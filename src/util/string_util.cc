#include "util/string_util.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace tuffy {

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
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
