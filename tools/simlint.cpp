// simlint driver: lints the given files / directories (recursively, *.hpp
// *.cpp *.h *.cc) and reports determinism hazards (simlint_core.hpp),
// layering violations (simlint_includes.hpp) and shared mutable state
// (simlint_state.hpp). Each file is scanned once (scan() in
// simlint_core.hpp) and every rule reads the scanned lines.
//
//   simlint <file-or-dir>...
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.
//
// Registered as a ctest (`ctest -R simlint`) over src/, bench/, and tools/,
// so tier-1 keeps the tree hazard-free. Directories named simlint_fixtures
// hold deliberately-broken test vectors and are skipped during directory
// walks (they can still be linted by passing the files explicitly, which is
// how the WILL_FAIL fixture tests invoke them).
#include <algorithm>
#include <cstdio>
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

bool add_path(std::vector<scion::lint::SourceFile>& files,
              const fs::path& path) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<fs::path> found;
    for (const auto& entry : fs::recursive_directory_iterator(path, ec)) {
      if (entry.is_regular_file() && lintable(entry.path()) &&
          !fixture_dir(entry.path())) {
        found.push_back(entry.path());
      }
    }
    if (ec) {
      std::fprintf(stderr, "simlint: cannot walk %s: %s\n",
                   path.string().c_str(), ec.message().c_str());
      return false;
    }
    // Deterministic report order regardless of directory enumeration.
    std::sort(found.begin(), found.end());
    for (const fs::path& f : found) {
      if (!add_path(files, f)) return false;
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
  files.push_back(scion::lint::scan(path.generic_string(), buf.str()));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: simlint <file-or-dir>...\n"
                 "rules: wall-clock std-rng unordered-iter float-accum "
                 "raw-output raw-thread layering mutable-global\n"
                 "suppress a rule with // simlint:allow(<rule>) on or above "
                 "the offending line; layering has no suppression\n");
    return 2;
  }

  std::vector<scion::lint::SourceFile> files;
  for (int i = 1; i < argc; ++i) {
    if (!add_path(files, argv[i])) return 2;
  }

  std::vector<scion::lint::Finding> findings =
      scion::lint::check_determinism(files);
  for (scion::lint::Finding& f : scion::lint::check_layering(files)) {
    findings.push_back(std::move(f));
  }
  for (scion::lint::Finding& f : scion::lint::check_state(files)) {
    findings.push_back(std::move(f));
  }
  for (const scion::lint::Finding& f : findings) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "simlint: %zu finding(s)\n", findings.size());
    return 1;
  }
  return 0;
}
