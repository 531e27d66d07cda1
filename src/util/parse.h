#ifndef TASFAR_UTIL_PARSE_H_
#define TASFAR_UTIL_PARSE_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace tasfar {

/// Parses `text` as an unsigned decimal integer within [lo, hi]. The whole
/// string must be ASCII digits: no sign, no whitespace, no base prefix and
/// no suffix. Returns nullopt for anything else, including an empty
/// string, a value outside [lo, hi], and one too large for uint64_t.
/// For numbers read from the environment or the command line, where
/// strtoul would take "-1" as 2^64 − 1 and a caller's cast would narrow
/// "70000" to a 16-bit port.
std::optional<uint64_t> ParseUnsigned(std::string_view text, uint64_t lo,
                                      uint64_t hi);

/// ParseUnsigned for a command-line tool: `text`, the value of flag or
/// environment variable `name`, as an integer in [lo, hi]. Anything else
/// prints `<program>: <name> must be a whole number in [lo, hi], got
/// "<text>"` to stderr and exits the process with code 2.
uint64_t ParseOrExit(const char* program, const char* name,
                     std::string_view text, uint64_t lo, uint64_t hi);

}  // namespace tasfar

#endif  // TASFAR_UTIL_PARSE_H_
