#pragma once

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace smiless::common {

/// Parse the whole of `text` as one T into `out`: no leading blanks or '+',
/// no trailing characters, an integer within T's range, a floating-point
/// value that is not NaN. Returns an empty string on success and otherwise
/// what was expected, for the caller to prefix with the flag it was reading:
/// `expected an integer, got "abc"`. `out` is untouched on failure.
template <class T>
std::string parse_number(std::string_view text, T& out) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  bool ok = ec == std::errc() && end == text.data() + text.size();
  if constexpr (std::is_floating_point_v<T>) ok = ok && !std::isnan(value);
  if (ok) {
    out = value;
    return {};
  }
  const char* expected = !std::is_integral_v<T>                  ? "a number"
                         : ec == std::errc::result_out_of_range ? "an integer in range"
                                                                 : "an integer";
  return std::string("expected ") + expected + ", got \"" + std::string(text) + "\"";
}

}  // namespace smiless::common
