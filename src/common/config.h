// Tiny key=value configuration store. Benchmarks and examples accept
// "key=value" command-line overrides (e.g. pcie.gen=4 nand.channels=8)
// without pulling in a flags library.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/status.h"

namespace bx {

class Config {
 public:
  Config() = default;

  /// Parses one "key=value" token.
  Status set_from_arg(std::string_view arg);

  /// Parses argv[1..), ignoring tokens without '='. Returns the first error.
  Status parse_args(int argc, const char* const* argv);

  void set(std::string key, std::string value);

  [[nodiscard]] bool contains(std::string_view key) const;

  [[nodiscard]] std::string get_string(std::string_view key,
                                       std::string_view fallback) const;
  [[nodiscard]] std::int64_t get_int(std::string_view key,
                                     std::int64_t fallback) const;
  /// get_int() of a knob that must lie in [min, max]. Out of range, the
  /// error names the knob and the bound it crosses: "<key> must be >= min"
  /// or "<key> must be <= max". A count read without it can wrap (a
  /// negative ops= becomes a huge unsigned count) or reach an assertion.
  [[nodiscard]] StatusOr<std::int64_t> get_int_in(std::string_view key,
                                                  std::int64_t fallback,
                                                  std::int64_t min,
                                                  std::int64_t max) const;
  [[nodiscard]] double get_double(std::string_view key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;

  /// Sorted "key=value" lines, for reproducibility banners in bench output.
  [[nodiscard]] std::string to_string() const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
};

}  // namespace bx
