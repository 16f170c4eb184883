#ifndef TUFFY_UTIL_STRING_UTIL_H_
#define TUFFY_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tuffy {

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a byte count as a short human-readable string ("4.8MB").
std::string FormatBytes(int64_t bytes);

}  // namespace tuffy

#endif  // TUFFY_UTIL_STRING_UTIL_H_
