// Shared result rendering: one place that turns experiment results into
// aligned text tables (and JSON), instead of printf formatting copy-pasted
// across experiment drivers.
//
// obs::print/print_line are the sanctioned stdout sites for src/ — the
// simlint raw-output rule flags direct std::cout/printf anywhere else in
// simulation code, which keeps result output flowing through this renderer
// (and therefore convertible to JSON for the telemetry outputs).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace scion::obs {

class JsonWriter;

enum class Align : std::uint8_t { kLeft, kRight };

struct Column {
  std::string header;
  Align align{Align::kLeft};
  /// Minimum cell width; grows to fit the widest cell.
  int min_width{0};
};

/// A titled table of pre-formatted cells. to_text() renders the classic
/// two-space-indented aligned layout the experiment drivers always printed;
/// append_json() emits the same data as an array of row objects keyed by
/// column header.
class Table {
 public:
  Table(std::string title, std::vector<Column> columns);

  Table& row(std::vector<std::string> cells);

  /// Title line, header line, then one line per row (trailing spaces
  /// trimmed). Ends with '\n'.
  std::string to_text() const;

  /// {"title": ..., "columns": [...], "rows": [{header: cell, ...}, ...]}
  void append_json(JsonWriter& w) const;

 private:
  std::string title_;
  std::vector<Column> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Decimal rendering helpers for table cells.
std::string fmt_u64(std::uint64_t v);
std::string fmt_i64(std::int64_t v);
std::string fmt_f(double v, int precision);
/// %g-style shortest-ish rendering with `sig` significant digits.
std::string fmt_g(double v, int sig = 6);

/// The sanctioned stdout sites (see header comment). print() writes the
/// text verbatim; print_line() appends '\n'.
void print(std::string_view text);
void print_line(std::string_view text);

/// Renders a CDF summary plus `points` curve samples, matching the layout
/// previously provided by util::print_cdf.
void print_cdf(std::string_view name, const util::EmpiricalCdf& cdf,
               std::size_t points);

/// Appends {"summary": ..., "curve": [[x, F(x)], ...]} for a CDF.
void append_cdf_json(JsonWriter& w, const util::EmpiricalCdf& cdf,
                     std::size_t points);

}  // namespace scion::obs
