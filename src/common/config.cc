#include "common/config.h"

#include <charconv>

namespace bx {

Status Config::set_from_arg(std::string_view arg) {
  const auto eq = arg.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return invalid_argument("expected key=value, got '" + std::string(arg) +
                            "'");
  }
  set(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
  return Status::ok();
}

Status Config::parse_args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.find('=') == std::string_view::npos) continue;
    BX_RETURN_IF_ERROR(set_from_arg(arg));
  }
  return Status::ok();
}

void Config::set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

bool Config::contains(std::string_view key) const {
  return values_.find(key) != values_.end();
}

std::string Config::get_string(std::string_view key,
                               std::string_view fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::string(fallback) : it->second;
}

std::int64_t Config::get_int(std::string_view key,
                             std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::int64_t value = 0;
  const std::string& s = it->second;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{}) return fallback;
  // Accept size suffixes: k/K, m/M, g/G (binary).
  if (ptr != s.data() + s.size()) {
    switch (*ptr) {
      case 'k': case 'K': value <<= 10; break;
      case 'm': case 'M': value <<= 20; break;
      case 'g': case 'G': value <<= 30; break;
      default: return fallback;
    }
  }
  return value;
}

StatusOr<std::int64_t> Config::get_int_in(std::string_view key,
                                          std::int64_t fallback,
                                          std::int64_t min,
                                          std::int64_t max) const {
  const std::int64_t value = get_int(key, fallback);
  if (value < min) {
    return invalid_argument(std::string(key) + " must be >= " +
                            std::to_string(min));
  }
  if (value > max) {
    return invalid_argument(std::string(key) + " must be <= " +
                            std::to_string(max));
  }
  return value;
}

double Config::get_double(std::string_view key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (...) {
    return fallback;
  }
}

bool Config::get_bool(std::string_view key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  return fallback;
}

std::string Config::to_string() const {
  std::string out;
  for (const auto& [key, value] : values_) {
    out += key;
    out += '=';
    out += value;
    out += '\n';
  }
  return out;
}

}  // namespace bx
