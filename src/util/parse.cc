#include "util/parse.h"

#include <cstdio>
#include <cstdlib>
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

uint64_t ParseOrExit(const char* program, const char* name,
                     std::string_view text, uint64_t lo, uint64_t hi) {
  const std::optional<uint64_t> value = ParseUnsigned(text, lo, hi);
  if (!value.has_value()) {
    std::fprintf(stderr,
                 "%s: %s must be a whole number in [%llu, %llu], got "
                 "\"%.*s\"\n",
                 program, name, static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi),
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return *value;
}

}  // namespace tasfar
