#pragma once

// Numeric flag values for the bench CLIs. A value that is not a decimal
// unsigned integer is a usage error: the CLI names the flag, prints its
// usage and exits 2, the way it treats an unknown argument.

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string_view>
#include <type_traits>

namespace microedge {

// The value of `--<flag>=` as an `Unsigned`. On an empty value, a sign,
// trailing characters or a value `Unsigned` cannot hold: reports `program`,
// the flag and the value on stderr, calls `usage` and exits 2.
template <typename Unsigned>
Unsigned unsignedFlag(std::string_view program, std::string_view flag,
                      std::string_view value, void (*usage)()) {
  static_assert(std::is_unsigned_v<Unsigned>);
  Unsigned out = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (value.empty() || ec != std::errc() || ptr != end) {
    std::cerr << program << ": bad --" << flag << " value '" << value
              << "' (expected a non-negative integer)\n";
    usage();
    std::exit(2);
  }
  return out;
}

}  // namespace microedge
