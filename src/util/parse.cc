#include "util/parse.h"

#include <limits>

namespace tasfar {

std::optional<uint64_t> ParseUnsigned(std::string_view text, uint64_t lo,
                                      uint64_t hi) {
  if (text.empty()) return std::nullopt;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<uint64_t>(c - '0');
    if (value > (kMax - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

}  // namespace tasfar
