#include "util/flags.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <iostream>

namespace scion::util {

namespace {

FlagError invalid_value(const std::string& key, const std::string& v) {
  return FlagError{"invalid value for --" + key + ": " + v};
}

/// Parses all of `v` as a T, or throws FlagError naming the flag.
template <typename T>
T parse_whole(const std::string& key, const std::string& v) {
  T out{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (ec != std::errc{} || ptr != end) throw invalid_value(key, v);
  return out;
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg{argv[i]};
    if (arg.substr(0, 2) != "--") {
      strays_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string{arg}] = "true";
    } else {
      values_[std::string{arg.substr(0, eq)}] = std::string{arg.substr(eq + 1)};
    }
  }
}

const std::string* Flags::lookup(const std::string& key) const {
  read_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::string Flags::get(const std::string& key, const std::string& def) const {
  const std::string* v = lookup(key);
  return v == nullptr ? def : *v;
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t def) const {
  const std::string* v = lookup(key);
  return v == nullptr ? def : parse_whole<std::int64_t>(key, *v);
}

double Flags::get_double(const std::string& key, double def) const {
  const std::string* v = lookup(key);
  return v == nullptr ? def : parse_whole<double>(key, *v);
}

bool Flags::get_bool(const std::string& key, bool def) const {
  const std::string* v = lookup(key);
  if (v == nullptr) return def;
  std::string lower = *v;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "1" || lower == "true" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "0" || lower == "false" || lower == "no" || lower == "off") {
    return false;
  }
  throw invalid_value(key, *v);
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

int reject_unused(const Flags& flags, std::string_view program) {
  bool rejected = false;
  for (const std::string& arg : flags.strays()) {
    std::cerr << program << ": unexpected argument " << arg << '\n';
    rejected = true;
  }
  if (rejected) return 2;
  for (const std::string& key : flags.unread()) {
    std::cerr << program << ": unknown flag --" << key << '\n';
    rejected = true;
  }
  return rejected ? 2 : 0;
}

}  // namespace scion::util
