// simlint layering rule — architecture lint for the simulator.
//
// The simulator is layered (util at the bottom, experiments at the top) and
// the layering is what keeps the hot path lean: a low layer that reaches up
// pulls protocol machinery into code that benchmarks assume is dependency-
// free. The compiler does not enforce it, so this rule does:
//
//   layering       a file in module A includes a header of module B that
//                  A's entry in default_layering() does not name (see
//                  DESIGN.md). Also fired when A itself is not declared, so
//                  new top-level directories must be registered.
//
// default_layering() lists the modules bottom-up, and a module names only
// modules listed before it (tests/test_simlint.cpp checks this). Every
// include the rule accepts therefore points to an earlier module, so the
// include graph of src/ is acyclic by construction. The rule has no escape
// hatch: `simlint:allow(layering)` suppresses nothing, and an upward include
// needs the shared code moved down.
//
// Edges are the scanner's `#include "..."` targets (<system> includes carry
// no layering information), so includes in comments and in disabled
// `#if 0` / `#if false` regions create none.
#pragma once

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tools/simlint_core.hpp"

namespace scion::lint {

/// The declared module layering, bottom-up: each module with the modules it
/// may include (besides itself), all of them listed before it. Mirrors the
/// table in DESIGN.md — update both together.
using Layering = std::vector<std::pair<std::string, std::set<std::string>>>;

inline const Layering& default_layering() {
  static const Layering kLayers{
      {"util", {}},
      {"crypto", {}},
      {"obs", {"util"}},
      {"exec", {"obs", "util"}},
      {"topology", {"util"}},
      {"simnet", {"obs", "util"}},
      {"analysis", {"topology", "obs", "util"}},
      {"faults", {"simnet", "topology", "obs", "util"}},
      {"bgp", {"faults", "simnet", "topology", "obs", "util"}},
      {"core", {"crypto", "faults", "simnet", "topology", "obs", "util"}},
      {"scion",
       {"analysis", "core", "crypto", "faults", "simnet", "topology", "obs",
        "util"}},
      {"experiments",
       {"analysis", "bgp", "core", "crypto", "exec", "faults", "obs", "scion",
        "simnet", "topology", "util"}},
  };
  return kLayers;
}

namespace detail {

/// Module of a source path: the segment after the last "src" component
/// ("src/bgp/speaker.cpp" -> "bgp", "/repo/src/util/rng.hpp" -> "util").
/// Empty for files outside src/ (bench, tools, tests are consumers of the
/// layered world, not part of it) or directly under it.
inline std::string module_of(std::string_view path) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t slash = path.find('/', start);
    if (slash == std::string_view::npos) {
      parts.push_back(path.substr(start));
      break;
    }
    parts.push_back(path.substr(start, slash - start));
    start = slash + 1;
  }
  for (std::size_t i = parts.size(); i-- > 0;) {
    // Need a module directory and a file name after the "src" component.
    if (parts[i] == "src" && i + 2 < parts.size()) {
      return std::string{parts[i + 1]};
    }
  }
  return {};
}

}  // namespace detail

/// The layering rule over every file, findings in file and line order.
inline std::vector<Finding> check_layering(
    const std::vector<SourceFile>& files) {
  const Layering& layers = default_layering();
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    const std::string module = detail::module_of(file.name);
    if (module.empty()) continue;  // outside the layered src/ tree
    const auto layer =
        std::find_if(layers.begin(), layers.end(),
                     [&](const auto& entry) { return entry.first == module; });
    for (const Line& line : file.lines) {
      const std::size_t slash = line.include.find('/');
      if (slash == std::string::npos) continue;  // none, or same directory
      const std::string to = line.include.substr(0, slash);
      if (to == module) continue;
      if (layer == layers.end()) {
        findings.push_back(Finding{
            file.name, line.number, "layering",
            "module '" + module +
                "' is not declared in the layering map; register it in "
                "default_layering() and DESIGN.md"});
      } else if (!layer->second.contains(to)) {
        std::string deps;
        for (const std::string& d : layer->second) {
          if (!deps.empty()) deps += ", ";
          deps += d;
        }
        findings.push_back(Finding{
            file.name, line.number, "layering",
            "module '" + module + "' may not include module '" + to +
                "' (declared deps: " + (deps.empty() ? "none" : deps) + ")"});
      }
    }
  }
  return findings;
}

}  // namespace scion::lint
