#include "util/flags.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string_view>

namespace scion::util {

namespace {

std::string env_key_for(const std::string& key) {
  std::string out = "REPRO_";
  for (char c : key) {
    out += (c == '-') ? '_' : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg{argv[i]};
    if (arg.substr(0, 2) != "--") continue;
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string{arg}] = "true";
    } else {
      values_[std::string{arg.substr(0, eq)}] = std::string{arg.substr(eq + 1)};
    }
  }
}

std::string Flags::get(const std::string& key, const std::string& def) const {
  read_.insert(key);
  if (const auto it = values_.find(key); it != values_.end()) return it->second;
  // getenv is mt-unsafe only against concurrent setenv; flags are read on
  // the main thread during startup, before any worker exists.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv(env_key_for(key).c_str())) return env;
  return def;
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t def) const {
  const std::string v = get(key, "");
  if (v.empty()) return def;
  return std::strtoll(v.c_str(), nullptr, 10);
}

double Flags::get_double(const std::string& key, double def) const {
  const std::string v = get(key, "");
  if (v.empty()) return def;
  return std::strtod(v.c_str(), nullptr);
}

bool Flags::get_bool(const std::string& key, bool def) const {
  std::string v = get(key, "");
  if (v.empty()) return def;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

void Flags::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

std::vector<std::string> Flags::unread() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (!read_.contains(key)) out.push_back(key);
  }
  return out;
}

}  // namespace scion::util
