// Minimal command-line / environment knob parsing for the bench and example
// binaries. Every harness must run with no arguments (default scale), but
// larger paper-scale runs are reachable via --key=value flags or REPRO_*
// environment variables.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace scion::util {

/// Parsed `--key=value` flags with environment-variable fallback.
///
/// Lookup order for key "scale": the flag `--scale=X`, then the environment
/// variable `REPRO_SCALE`, then the provided default. Every lookup records
/// its key, so a caller can reject the flags it never read; the getters are
/// therefore not safe to call from several threads at once.
class Flags {
 public:
  Flags() = default;

  /// Parses argv, ignoring anything that does not look like --key=value
  /// (so bench_micro's google-benchmark flags pass through untouched).
  Flags(int argc, char** argv);

  std::string get(const std::string& key, const std::string& def) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  void set(const std::string& key, const std::string& value);

  /// Every explicitly set flag, in key order (for run manifests).
  const std::map<std::string, std::string>& values() const { return values_; }

  /// The explicitly set flags no lookup has read so far, in key order.
  std::vector<std::string> unread() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace scion::util
