#include "util/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "util/require.hpp"

namespace cawo {

double parseDoubleStrict(const std::string& what, const std::string& token) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  CAWO_REQUIRE(end != token.c_str() && *end == '\0',
               what + ": \"" + token + "\" is not a number");
  return v;
}

std::int64_t parseInt64Strict(const std::string& what,
                              const std::string& token) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  CAWO_REQUIRE(end != token.c_str() && *end == '\0' && errno != ERANGE,
               what + ": \"" + token + "\" is not an integer");
  return static_cast<std::int64_t>(v);
}

std::uint64_t parseUint64Strict(const std::string& what,
                                const std::string& token) {
  CAWO_REQUIRE(!token.empty() && token[0] != '-',
               what + ": \"" + token + "\" must be a non-negative integer");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  CAWO_REQUIRE(end != token.c_str() && *end == '\0' && errno != ERANGE,
               what + ": \"" + token + "\" is not a valid 64-bit integer");
  return static_cast<std::uint64_t>(v);
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = s.find(sep, pos);
    if (next == std::string_view::npos) {
      out.emplace_back(s.substr(pos));
      break;
    }
    out.emplace_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool globMatch(const std::string& pattern, const std::string& text) {
  std::size_t p = 0, t = 0, star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

bool isGlob(const std::string& s) {
  return s.find('*') != std::string::npos || s.find('?') != std::string::npos;
}

std::string formatFixed(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return os.str();
}

std::string indexedName(std::string_view prefix, std::int64_t index) {
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

std::string padLeft(std::string s, std::size_t width) {
  if (s.size() < width) s.insert(0, width - s.size(), ' ');
  return s;
}

std::string padRight(std::string s, std::size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

} // namespace cawo
