// Run manifests: every experiment or bench output records how it was made.
//
// A RunManifest captures the reproduction context of one run — binary name,
// seed, all explicitly set flags, build mode, sanitizers, git revision —
// and is embedded in every metrics/bench JSON the telemetry layer emits.
// Given only an output file, `manifest.seed` + `manifest.flags` + the named
// binary reproduce the run exactly (same-seed runs are byte-identical;
// tests/test_determinism.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace scion::util {
class Flags;
}

namespace scion::obs {

struct RunManifest {
  std::string binary;
  std::uint64_t seed{0};
  /// Explicitly set --key=value flags, in key order.
  std::map<std::string, std::string> flags;
  std::string build_type;  // CMAKE_BUILD_TYPE at compile time
  std::string git_sha;     // short sha, "unknown" outside a git checkout
  std::string sanitizers;  // SCION_MPR_SANITIZE value, "off" when disabled
  bool checked{false};     // SCION_MPR_CHECKED invariants compiled in

  /// Fills build metadata from compile-time definitions plus the given
  /// run parameters.
  static RunManifest capture(std::string_view binary,
                             const util::Flags& flags, std::uint64_t seed);

  /// {"binary": ..., "seed": ..., "flags": {...}, ...}
  std::string to_json() const;

  /// Writes the manifest's members into an already-open JSON object.
  void append_fields(class JsonWriter& w) const;
};

}  // namespace scion::obs
