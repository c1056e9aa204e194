#include "obs/manifest.hpp"

#include "obs/json.hpp"
#include "util/flags.hpp"

// SCION_MPR_GIT_SHA, from the header src/obs/git_sha.cmake writes at build
// time.
#include "git_sha.hpp"

// The rest of the build metadata is injected by src/obs/CMakeLists.txt;
// fall back to placeholders so the library still compiles standalone.
#ifndef SCION_MPR_BUILD_TYPE
#define SCION_MPR_BUILD_TYPE "unknown"
#endif
#ifndef SCION_MPR_SANITIZERS
#define SCION_MPR_SANITIZERS "off"
#endif

namespace scion::obs {

RunManifest RunManifest::capture(std::string_view binary,
                                 const util::Flags& flags,
                                 std::uint64_t seed) {
  RunManifest m;
  m.binary = std::string{binary};
  m.seed = seed;
  m.flags = flags.values();
  m.build_type = SCION_MPR_BUILD_TYPE;
  m.git_sha = SCION_MPR_GIT_SHA;
  m.sanitizers = SCION_MPR_SANITIZERS;
#ifdef SCION_MPR_CHECKED
  m.checked = true;
#else
  m.checked = false;
#endif
  return m;
}

void RunManifest::append_fields(JsonWriter& w) const {
  w.kv("binary", std::string_view{binary});
  w.kv("seed", seed);
  w.key("flags").begin_object();
  for (const auto& [k, v] : flags) w.kv(k, std::string_view{v});
  w.end_object();
  w.kv("build_type", std::string_view{build_type});
  w.kv("git_sha", std::string_view{git_sha});
  w.kv("sanitizers", std::string_view{sanitizers});
  w.kv("checked", checked);
}

std::string RunManifest::to_json() const {
  JsonWriter w;
  w.begin_object();
  append_fields(w);
  w.end_object();
  return std::move(w).take();
}

}  // namespace scion::obs
