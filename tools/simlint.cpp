// simlint driver: lints the given files / directories (recursively, *.hpp
// *.cpp *.h) and reports determinism hazards, architecture (layering)
// violations, and shared-state hazards. See simlint_core.hpp for the
// determinism rule set, simlint_includes.hpp for the include-graph rules,
// simlint_state.hpp for the shared-state rules, and the
// `// simlint:allow(<rule>)` escape hatch shared by all three.
//
// --dot=PATH writes the observed module include graph as deterministic DOT
// (sorted nodes/edges) so DESIGN.md's dependency table can be reviewed
// against reality.
//
// --state-report=PATH writes the deterministic shared-state inventory JSON
// (simlint_state.hpp: per-file mutable-global / unguarded-shared /
// guarded-member counts, simlint:allow-suppressed sites included).
// --state-baseline=PATH diffs those counts against a checked-in report
// (tools/state_baseline.json) and fails on any increase.
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
//
// Registered as a ctest (`ctest -R simlint`) over src/, bench/, and tools/,
// so tier-1 keeps the tree hazard-free. Directories named simlint_fixtures
// hold deliberately-broken test vectors and are skipped during directory
// walks (they can still be linted by passing the files explicitly, which is
// how the WILL_FAIL fixture tests invoke them).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/simlint_core.hpp"
#include "tools/simlint_includes.hpp"
#include "tools/simlint_state.hpp"

namespace {

namespace fs = std::filesystem;

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

bool fixture_dir(const fs::path& p) {
  for (const auto& part : p) {
    if (part == "simlint_fixtures") return true;
  }
  return false;
}

bool add_path(scion::lint::Linter& linter, scion::lint::IncludeGraph& graph,
              scion::lint::StateAnalyzer& state, const fs::path& path) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(path, ec)) {
      if (entry.is_regular_file() && lintable(entry.path()) &&
          !fixture_dir(entry.path())) {
        files.push_back(entry.path());
      }
    }
    if (ec) {
      std::fprintf(stderr, "simlint: cannot walk %s: %s\n",
                   path.string().c_str(), ec.message().c_str());
      return false;
    }
    // Deterministic report order regardless of directory enumeration.
    std::sort(files.begin(), files.end());
    for (const fs::path& f : files) {
      if (!add_path(linter, graph, state, f)) return false;
    }
    return true;
  }

  std::ifstream in{path, std::ios::binary};
  if (!in) {
    std::fprintf(stderr, "simlint: cannot read %s\n", path.string().c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string content = std::move(buf).str();
  linter.add_file(path.generic_string(), content);
  graph.add_file(path.generic_string(), content);
  state.add_file(path.generic_string(), content);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dot_path;
  std::string state_report_path;
  std::string state_baseline_path;
  std::vector<const char*> inputs;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dot=", 6) == 0) {
      dot_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--state-report=", 15) == 0) {
      state_report_path = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--state-baseline=", 17) == 0) {
      state_baseline_path = argv[i] + 17;
    } else {
      inputs.push_back(argv[i]);
    }
  }
  if (inputs.empty()) {
    std::fprintf(stderr,
                 "usage: simlint [--dot=PATH] [--state-report=PATH] "
                 "[--state-baseline=PATH] <file-or-dir>...\n"
                 "rules: wall-clock std-rng unordered-iter float-accum "
                 "raw-output raw-thread layering module-cycle\n"
                 "       mutable-global unguarded-shared\n"
                 "suppress with // simlint:allow(<rule>) on or above the "
                 "offending line\n"
                 "--dot=PATH writes the observed module include graph as "
                 "deterministic DOT\n"
                 "--state-report=PATH writes the shared-state inventory "
                 "JSON; --state-baseline=PATH fails on regressions\n");
    return 2;
  }

  scion::lint::Linter linter;
  scion::lint::IncludeGraph graph;
  scion::lint::StateAnalyzer state;
  for (const char* input : inputs) {
    if (!add_path(linter, graph, state, input)) return 2;
  }

  std::vector<scion::lint::Finding> findings = linter.run();
  for (scion::lint::Finding& f : graph.check()) {
    findings.push_back(std::move(f));
  }
  for (scion::lint::Finding& f : state.check()) {
    findings.push_back(std::move(f));
  }
  if (!state_baseline_path.empty()) {
    std::ifstream in{state_baseline_path, std::ios::binary};
    if (!in) {
      std::fprintf(stderr, "simlint: cannot read state baseline %s\n",
                   state_baseline_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    for (scion::lint::Finding& f : state.diff_baseline(buf.str())) {
      findings.push_back(std::move(f));
    }
  }
  for (const scion::lint::Finding& f : findings) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }

  if (!dot_path.empty()) {
    std::ofstream out{dot_path, std::ios::binary};
    if (!out) {
      std::fprintf(stderr, "simlint: cannot write %s\n", dot_path.c_str());
      return 2;
    }
    out << graph.to_dot();
  }
  if (!state_report_path.empty()) {
    std::ofstream out{state_report_path, std::ios::binary};
    if (!out) {
      std::fprintf(stderr, "simlint: cannot write %s\n",
                   state_report_path.c_str());
      return 2;
    }
    out << state.state_report_json();
  }

  if (!findings.empty()) {
    std::fprintf(stderr, "simlint: %zu finding(s)\n", findings.size());
    return 1;
  }
  return 0;
}
