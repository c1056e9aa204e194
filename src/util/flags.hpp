// Minimal command-line knob parsing for the bench and example binaries.
// Every harness must run with no arguments (default scale), but larger
// paper-scale runs are reachable via --key=value flags.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace scion::util {

/// A flag value the typed getter cannot parse; what() reads
/// `invalid value for --<key>: <value>`.
class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parsed `--key=value` flags.
///
/// A lookup returns the flag's value, or the provided default when the
/// command line did not set it. Every lookup records its key, so a caller
/// can reject the flags it never read; the getters are therefore not safe
/// to call from several threads at once.
class Flags {
 public:
  Flags() = default;

  /// Parses argv[1..argc). `--key=value` sets key; a bare `--key` sets it to
  /// "true". Any other argument is kept as a stray (see strays()).
  Flags(int argc, char** argv);

  std::string get(const std::string& key, const std::string& def) const;
  /// The typed getters parse the whole value (decimal integer, decimal or
  /// scientific real, and 1/true/yes/on or 0/false/no/off in any case) and
  /// throw FlagError when it does not parse.
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  void set(const std::string& key, const std::string& value);

  /// Every explicitly set flag, in key order (for run manifests).
  const std::map<std::string, std::string>& values() const { return values_; }

  /// The explicitly set flags no lookup has read so far, in key order.
  std::vector<std::string> unread() const;

  /// The arguments that were not `--key[=value]` flags, in argv order.
  const std::vector<std::string>& strays() const { return strays_; }

 private:
  /// The value set for `key` (nullptr if none); records the read.
  const std::string* lookup(const std::string& key) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> strays_;
  mutable std::set<std::string> read_;
};

/// The command-line check shared by bench_main and scion-mpr. Prints
/// `<program>: unexpected argument <arg>` for each stray argument or, when
/// there is none, `<program>: unknown flag --<key>` for each flag no lookup
/// has read, on stderr. Returns 2 if it printed anything, 0 otherwise.
int reject_unused(const Flags& flags, std::string_view program);

}  // namespace scion::util
