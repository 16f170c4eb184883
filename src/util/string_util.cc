#include "util/string_util.h"

#include <cstdarg>
#include <cstdio>

namespace tuffy {

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out += parts[i];
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string FormatBytes(int64_t bytes) {
  const double b = static_cast<double>(bytes);
  if (b >= 1e9) return StrFormat("%.1fGB", b / 1e9);
  if (b >= 1e6) return StrFormat("%.1fMB", b / 1e6);
  if (b >= 1e3) return StrFormat("%.1fKB", b / 1e3);
  return StrFormat("%lldB", static_cast<long long>(bytes));
}

}  // namespace tuffy
