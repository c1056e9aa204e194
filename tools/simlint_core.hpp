// simlint — determinism lint for the simulator sources.
//
// The paper's overhead and path-quality results (Figs. 5-9, Table 1) are
// produced by multi-hour simulations that must be bit-reproducible across
// runs and machines. This linter token-scans C++ sources for the hazards
// that silently break that property:
//
//   wall-clock      nondeterministic time sources (std::chrono clocks,
//                   time(), gettimeofday, clock_gettime). All simulation
//                   time must flow through util::TimePoint.
//   std-rng         <random> engines and std::rand/srand/random_device.
//                   All randomness must flow through the seeded util::Rng.
//   unordered-iter  iteration over std::unordered_map/unordered_set.
//                   Hash iteration order is implementation- and
//                   address-dependent; when it feeds serialized or scored
//                   output, two identical runs diverge. Lookups are fine —
//                   only iteration (range-for, .begin()/.end()) is flagged.
//   float-accum     floating-point accumulation inside an unordered
//                   iteration (float addition is not associative, so the
//                   sum depends on hash order), and std::accumulate with a
//                   floating-point init wherever it appears.
//   raw-output      direct stdout writes (std::cout, printf, puts,
//                   fprintf(stdout, ...)) in simulation code. Result output
//                   must flow through the obs renderer (obs::print /
//                   obs::Table) so it stays convertible to the JSON
//                   telemetry outputs; files under an obs/ directory are
//                   the renderer itself and are exempt. stderr diagnostics
//                   and snprintf string formatting are not flagged.
//   raw-thread      raw threading primitives (std::thread, std::jthread,
//                   std::async, pthread_create) outside the task pool.
//                   Ad-hoc threads bypass the per-task telemetry captures
//                   and substream seeding that keep parallel runs
//                   byte-identical; all parallelism must flow through
//                   exec::TaskPool / exec::parallel_map. Files whose stem
//                   contains "task_pool" are the pool itself and exempt.
//
// Provably order-insensitive iteration (pure counting, erase-only sweeps)
// is silenced in place with `// simlint:allow(<rule>)` on the offending
// line or the line above; the directive documents the proof obligation.
//
// Scoping: a declaration like `std::unordered_map<K, V> foo;` makes `foo`
// an unordered name. Members (trailing '_') are visible across the whole
// scanned corpus; other names are visible within their translation-unit
// group, i.e. files sharing a path stem (speaker.hpp + speaker.cpp), which
// covers struct members used from the companion source file.
#pragma once

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scion::lint {

struct Finding {
  std::string file;
  int line{0};
  std::string rule;
  std::string message;

  bool operator==(const Finding&) const = default;
};

class Linter {
 public:
  /// Registers a source file. Call for every file before run().
  void add_file(std::string name, std::string content) {
    files_.emplace_back(std::move(name), std::move(content));
  }

  /// Lints every registered file and returns the findings in file order.
  std::vector<Finding> run() const;

 private:
  std::vector<std::pair<std::string, std::string>> files_;
};

namespace detail {

inline std::vector<std::string> split_lines(std::string_view content) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= content.size()) {
    const std::size_t nl = content.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.emplace_back(content.substr(start));
      break;
    }
    lines.emplace_back(content.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Path stem ("src/bgp/speaker.cpp" -> "src/bgp/speaker") used to group a
/// header with its companion source file.
inline std::string stem_of(std::string_view path) {
  const std::size_t dot = path.rfind('.');
  const std::size_t slash = path.rfind('/');
  if (dot == std::string_view::npos ||
      (slash != std::string_view::npos && dot < slash)) {
    return std::string{path};
  }
  return std::string{path.substr(0, dot)};
}

/// The code part of a line: strips the trailing // comment (naive: the
/// sources use no "//" inside string literals on hazard-relevant lines).
inline std::string_view code_part(std::string_view line) {
  const std::size_t pos = line.find("//");
  return pos == std::string_view::npos ? line : line.substr(0, pos);
}

/// Rules allowed by a `simlint:allow(a,b)` directive on this line, if any.
inline std::vector<std::string> allowed_rules(std::string_view line) {
  std::vector<std::string> out;
  const std::size_t pos = line.find("simlint:allow(");
  if (pos == std::string_view::npos) return out;
  const std::size_t open = pos + std::string_view{"simlint:allow("}.size();
  const std::size_t close = line.find(')', open);
  if (close == std::string_view::npos) return out;
  std::string name;
  for (char c : line.substr(open, close - open)) {
    if (c == ',') {
      if (!name.empty()) out.push_back(std::move(name));
      name.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      name.push_back(c);
    }
  }
  if (!name.empty()) out.push_back(std::move(name));
  return out;
}

/// Identifiers declared as unordered containers anywhere in `content`.
/// Handles declarations whose template arguments span line breaks.
inline std::vector<std::string> unordered_names(const std::string& content) {
  static const std::regex kDecl{
      R"(unordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*?>\s*(\w+)\s*[;={(])"};
  std::vector<std::string> names;
  for (std::sregex_iterator it{content.begin(), content.end(), kDecl}, end;
       it != end; ++it) {
    names.push_back((*it)[1].str());
  }
  return names;
}

/// Type-alias names bound to unordered containers
/// (`using Foo = std::unordered_map<...>`). Aliases hide the container from
/// the declaration scan above, so variables of alias type are resolved in a
/// second step.
inline std::vector<std::string> unordered_alias_names(
    const std::string& content) {
  static const std::regex kAlias{
      R"(using\s+(\w+)\s*=\s*std::unordered_(?:map|set|multimap|multiset)\b)"};
  std::vector<std::string> names;
  for (std::sregex_iterator it{content.begin(), content.end(), kAlias}, end;
       it != end; ++it) {
    names.push_back((*it)[1].str());
  }
  return names;
}

/// Variables declared with one of the given alias types.
inline std::vector<std::string> alias_typed_names(
    const std::string& content, const std::set<std::string>& aliases) {
  std::vector<std::string> names;
  if (aliases.empty()) return names;
  std::string alt;
  for (const std::string& a : aliases) {
    if (!alt.empty()) alt += '|';
    alt += a;
  }
  const std::regex kDecl{R"(\b(?:)" + alt + R"()\s+(\w+)\s*[;={(])"};
  for (std::sregex_iterator it{content.begin(), content.end(), kDecl}, end;
       it != end; ++it) {
    names.push_back((*it)[1].str());
  }
  return names;
}

/// Identifiers declared `double x` / `float x` in `content` (accumulator
/// candidates for the float-accum rule).
inline std::vector<std::string> float_names(const std::string& content) {
  static const std::regex kDecl{R"(\b(?:double|float)\s+(\w+)\s*[;={])"};
  std::vector<std::string> names;
  for (std::sregex_iterator it{content.begin(), content.end(), kDecl}, end;
       it != end; ++it) {
    names.push_back((*it)[1].str());
  }
  return names;
}

inline bool mentions_name(std::string_view expr,
                          const std::set<std::string>& names) {
  static const std::regex kIdent{R"(\w+)"};
  const std::string s{expr};
  for (std::sregex_iterator it{s.begin(), s.end(), kIdent}, end; it != end;
       ++it) {
    if (names.contains(it->str())) return true;
  }
  return false;
}

}  // namespace detail

inline std::vector<Finding> Linter::run() const {
  using namespace detail;

  static const std::regex kWallClock{
      R"(std::chrono::(?:system_clock|steady_clock|high_resolution_clock))"
      R"(|\bgettimeofday\s*\(|\bclock_gettime\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\))"};
  static const std::regex kStdRng{
      R"(std::(?:rand\b|srand\b|mt19937(?:_64)?\b|minstd_rand0?\b|)"
      R"(default_random_engine\b|random_device\b|knuth_b\b|ranlux\d+\b)|\bsrand\s*\()"};
  static const std::regex kRangeFor{R"(for\s*\([^;()]*:\s*([^)]*))"};
  static const std::regex kAccumulateFloat{
      R"(std::accumulate\s*\([^;]*,\s*(?:0\.\d*f?|\d+\.\d*f?|(?:double|float)\s*[{(])\s*[,)])"};
  // \b keeps snprintf/fputs/fprintf(stderr) out: only bare printf/puts and
  // an explicit stdout stream count as terminal output.
  static const std::regex kRawOutput{
      R"(\bstd::cout\b|\bprintf\s*\(|\bputs\s*\(|\bfprintf\s*\(\s*stdout\b)"};
  // std::mutex / condition_variable / atomic are fine (synchronization, not
  // thread creation); only spawning primitives are flagged.
  static const std::regex kRawThread{
      R"(\bstd::(?:thread|jthread|async)\b|\bpthread_create\b)"};

  // Pass 1a: alias names are corpus-global (a `using` in one header types
  // members everywhere).
  std::set<std::string> aliases;
  for (const auto& [name, content] : files_) {
    for (std::string& id : [&] { return unordered_alias_names(content); }()) {
      aliases.insert(std::move(id));
    }
  }

  // Pass 1b: unordered / float accumulator names, per stem group and global
  // (members with a trailing underscore).
  std::set<std::string> global_unordered;
  std::set<std::pair<std::string, std::string>> local_unordered;  // stem, name
  std::set<std::pair<std::string, std::string>> local_floats;
  for (const auto& [name, content] : files_) {
    const std::string stem = stem_of(name);
    std::vector<std::string> ids = unordered_names(content);
    for (std::string& id : [&] { return alias_typed_names(content, aliases); }()) {
      ids.push_back(std::move(id));
    }
    for (std::string& id : ids) {
      if (!id.empty() && id.back() == '_') global_unordered.insert(id);
      local_unordered.emplace(stem, std::move(id));
    }
    for (std::string& id : [&] { return float_names(content); }()) {
      local_floats.emplace(stem, std::move(id));
    }
  }

  // Pass 2: per-line scanning.
  std::vector<Finding> findings;
  for (const auto& [name, content] : files_) {
    const std::string stem = stem_of(name);
    // The obs renderer owns the sanctioned stdout sites.
    const bool obs_exempt = name.find("/obs/") != std::string::npos ||
                            name.rfind("obs/", 0) == 0;
    // The task pool is the one sanctioned owner of worker threads.
    const bool pool_exempt = stem.find("task_pool") != std::string::npos;
    std::set<std::string> unordered = global_unordered;
    std::set<std::string> floats;
    for (const auto& [s, id] : local_unordered) {
      if (s == stem) unordered.insert(id);
    }
    for (const auto& [s, id] : local_floats) {
      if (s == stem) floats.insert(id);
    }

    const std::vector<std::string> lines = split_lines(content);
    std::vector<std::string> carried_allow;  // from the previous line
    // Brace-depth tracking for the body of the innermost flagged
    // unordered-container loop (float-accum context).
    int unordered_loop_depth = -1;
    int depth = 0;
    bool in_block_comment = false;

    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& raw = lines[i];
      std::vector<std::string> allow = allowed_rules(raw);
      const std::vector<std::string> effective_allow = [&] {
        std::vector<std::string> v = carried_allow;
        v.insert(v.end(), allow.begin(), allow.end());
        return v;
      }();
      carried_allow = std::move(allow);

      std::string_view code = code_part(raw);
      if (in_block_comment) {
        const std::size_t close = code.find("*/");
        if (close == std::string_view::npos) continue;
        code = code.substr(close + 2);
        in_block_comment = false;
      }
      // Strip every complete /* ... */ span; an unterminated opener puts
      // the scanner into block-comment mode for the following lines.
      std::string code_buf;
      while (true) {
        const std::size_t open = code.find("/*");
        if (open == std::string_view::npos) {
          code_buf.append(code);
          break;
        }
        code_buf.append(code.substr(0, open));
        const std::size_t close = code.find("*/", open + 2);
        if (close == std::string_view::npos) {
          in_block_comment = true;
          break;
        }
        code = code.substr(close + 2);
      }

      const auto allowed = [&](const std::string& rule) {
        return std::find(effective_allow.begin(), effective_allow.end(),
                         rule) != effective_allow.end();
      };
      const auto report = [&](const char* rule, std::string message) {
        if (allowed(rule)) return;
        findings.push_back(
            Finding{name, static_cast<int>(i + 1), rule, std::move(message)});
      };

      const std::string& code_str = code_buf;
      if (std::regex_search(code_str, kWallClock)) {
        report("wall-clock",
               "wall-clock time source; use util::TimePoint simulation time");
      }
      if (std::regex_search(code_str, kStdRng)) {
        report("std-rng",
               "unseeded/standard RNG; use util::Rng with an explicit seed");
      }
      if (std::regex_search(code_str, kAccumulateFloat)) {
        report("float-accum",
               "std::accumulate over floats needs a documented ordering");
      }
      if (!obs_exempt && std::regex_search(code_str, kRawOutput)) {
        report("raw-output",
               "direct stdout write; route results through the obs renderer "
               "(obs::print / obs::Table)");
      }
      if (!pool_exempt && std::regex_search(code_str, kRawThread)) {
        report("raw-thread",
               "raw thread primitive; route parallelism through "
               "exec::TaskPool / exec::parallel_map");
      }

      bool flagged_iteration = false;
      std::smatch m;
      if (std::regex_search(code_str, m, kRangeFor) &&
          mentions_name(m[1].str(), unordered)) {
        flagged_iteration = true;
        report("unordered-iter",
               "range-for over an unordered container; order is "
               "hash/address dependent");
      }
      // Iterator-style walks: only `.begin()` marks iteration — `.end()`
      // alone is the idiomatic "not found" comparison after a lookup.
      if (!flagged_iteration) {
        static const std::regex kBegin{R"((\w+)\.begin\s*\()"};
        for (std::sregex_iterator it{code_str.begin(), code_str.end(), kBegin},
             end;
             it != end; ++it) {
          if (unordered.contains((*it)[1].str())) {
            flagged_iteration = true;
            report("unordered-iter",
                   "iterator walk over an unordered container; order is "
                   "hash/address dependent");
            break;
          }
        }
      }

      // float-accum: += on a double/float accumulator inside the body of a
      // flagged unordered iteration.
      if (unordered_loop_depth >= 0 && code_str.find("+=") != std::string::npos) {
        static const std::regex kPlusEq{R"((\w+)\s*\+=)"};
        std::smatch am;
        if (std::regex_search(code_str, am, kPlusEq) &&
            (floats.contains(am[1].str()) ||
             code_str.find("static_cast<double>") != std::string::npos ||
             code_str.find("static_cast<float>") != std::string::npos)) {
          report("float-accum",
                 "floating-point accumulation in unordered iteration order");
        }
      }

      if (flagged_iteration) unordered_loop_depth = depth;
      for (char c : code_str) {
        if (c == '{') ++depth;
        if (c == '}') {
          --depth;
          if (unordered_loop_depth >= 0 && depth <= unordered_loop_depth) {
            unordered_loop_depth = -1;
          }
        }
      }
    }
  }
  return findings;
}

}  // namespace scion::lint
