// Strict whole-string number parsing for SUGAR_* environment knobs and
// bench command-line flags, shared by every layer (header-only so the
// bottom-most sugar_parallel target can use it too). "12x" or "" is
// malformed, not "12". An integer type takes only an integer that fits it
// ("2.5" and "1e30" are malformed for std::size_t), and a floating-point
// value must be finite ("nan" and "inf" are malformed).
// Malformed env values warn on stderr and leave the caller's default
// untouched, so a typo'd knob never silently reconfigures a run.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <type_traits>

namespace sugar::core {

/// Parses the whole of `s` as a number into `out`. On any leftover
/// character, empty string, out-of-range or non-finite value, returns false
/// with `out` untouched.
template <typename T>
bool parse_number(std::string_view s, T& out) {
  T value{};
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

/// parse_number for the environment knob `name`: a malformed value warns
/// (naming the knob) and returns false with `out` untouched.
template <typename T>
bool parse_env_number(const char* name, const char* s, T& out) {
  if (parse_number(std::string_view{s}, out)) return true;
  std::fprintf(stderr, "sugar: ignoring malformed %s='%s'\n", name, s);
  return false;
}

}  // namespace sugar::core
