// bench_diff: regression gate over BENCH_*.json reports.
//
// Compares a current bench report (or a directory of them) against a
// baseline and classifies every drift (tools/bench_diff_core.hpp):
// deterministic fields gate exactly, allocation counters gate with a
// tolerance band, wall time warns unless --wall-tolerance is set. CI runs
// this after the smoke bench against the checked-in baseline so a metric
// that silently changes — event counts, figure scalars, a table cell or CDF
// point, allocation cost — fails the build with the offending metric named.
//
// Usage:
//   bench_diff --baseline=<file-or-dir> --current=<file-or-dir>
//              [--alloc-tolerance=0.25] [--wall-tolerance=<frac>]
//              [--report-out=<file>]
//
// In directory mode every BENCH_*.json in the baseline directory must have
// a same-named counterpart in the current directory; extra current reports
// only warn (new benches are not regressions).
//
// Exit codes: 0 no regressions, 1 regression detected, 2 usage/IO error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_diff_core.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "util/flags.hpp"

namespace {

using scion::obs::JsonValue;
using scion::tools::DiffOptions;
using scion::tools::DiffReport;
using scion::tools::DiffSeverity;

std::optional<JsonValue> load_doc(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  auto doc = scion::obs::parse_json(buf.str(), &error);
  if (!doc) {
    std::fprintf(stderr, "bench_diff: %s: parse error: %s\n", path.c_str(),
                 error.c_str());
    return std::nullopt;
  }
  return doc;
}

/// Sorted BENCH_*.json file names directly inside `dir`.
std::vector<std::string> bench_files(const std::filesystem::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator{dir}) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 &&
        name.size() > 5 + 5 &&  // "BENCH_" + ".json"
        name.compare(name.size() - 5, 5, ".json") == 0) {
      names.push_back(name);
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Diffs one baseline/current file pair; nullopt on I/O or parse error.
std::optional<DiffReport> diff_files(const std::string& baseline,
                                     const std::string& current,
                                     const DiffOptions& opts) {
  const auto base_doc = load_doc(baseline);
  const auto cur_doc = load_doc(current);
  if (!base_doc || !cur_doc) return std::nullopt;
  DiffReport r = scion::tools::diff_bench_docs(*base_doc, *cur_doc, opts);
  if (r.name.empty()) {
    r.name = std::filesystem::path{baseline}.filename().string();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const scion::util::Flags flags{argc, argv};
  const std::string baseline = flags.get("baseline", "");
  const std::string current = flags.get("current", "");
  if (baseline.empty() || current.empty()) {
    std::fprintf(
        stderr,
        "usage: bench_diff --baseline=<file-or-dir> --current=<file-or-dir>\n"
        "                  [--alloc-tolerance=0.25] [--wall-tolerance=<frac>]\n"
        "                  [--report-out=<file>]\n");
    return 2;
  }

  DiffOptions opts;
  opts.alloc_tolerance = flags.get_double("alloc-tolerance", 0.25);
  opts.wall_tolerance = flags.get_double("wall-tolerance", -1.0);

  std::vector<DiffReport> reports;
  bool io_error = false;

  if (std::filesystem::is_directory(baseline)) {
    if (!std::filesystem::is_directory(current)) {
      std::fprintf(stderr,
                   "bench_diff: --baseline is a directory but --current is "
                   "not\n");
      return 2;
    }
    const std::vector<std::string> base_names = bench_files(baseline);
    if (base_names.empty()) {
      std::fprintf(stderr, "bench_diff: no BENCH_*.json in %s\n",
                   baseline.c_str());
      return 2;
    }
    for (const std::string& name : base_names) {
      const std::string cur_path =
          (std::filesystem::path{current} / name).string();
      if (!std::filesystem::exists(cur_path)) {
        DiffReport missing;
        missing.name = name;
        missing.add(DiffSeverity::kFail, "report", name, "-",
                    "bench report missing from current directory");
        reports.push_back(std::move(missing));
        continue;
      }
      auto r = diff_files((std::filesystem::path{baseline} / name).string(),
                          cur_path, opts);
      if (!r) {
        io_error = true;
        continue;
      }
      reports.push_back(std::move(*r));
    }
    for (const std::string& name : bench_files(current)) {
      if (std::filesystem::exists(std::filesystem::path{baseline} / name)) {
        continue;
      }
      DiffReport extra;
      extra.name = name;
      extra.add(DiffSeverity::kWarn, "report", "-", name,
                "new bench report (absent from baseline)");
      reports.push_back(std::move(extra));
    }
  } else {
    auto r = diff_files(baseline, current, opts);
    if (!r) return 2;
    reports.push_back(std::move(*r));
  }
  if (io_error) return 2;

  const scion::obs::Table table = scion::tools::diff_report_table(reports);
  const std::string text = table.to_text();
  scion::obs::print(text);

  const std::string report_out = flags.get("report-out", "");
  if (!report_out.empty()) {
    std::ofstream out{report_out};
    if (!out) {
      std::fprintf(stderr, "bench_diff: cannot open --report-out file %s\n",
                   report_out.c_str());
      return 2;
    }
    out << text;
  }

  std::size_t failures = 0;
  for (const DiffReport& r : reports) failures += r.failures;
  if (failures > 0) {
    std::fprintf(stderr, "bench_diff: %zu regression(s) vs baseline\n",
                 failures);
    return 1;
  }
  return 0;
}
