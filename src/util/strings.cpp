#include "util/strings.h"

namespace ctaver::util {

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string pad_left(const std::string& s, std::size_t w) {
  if (s.size() >= w) return s;
  return std::string(w - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t w) {
  if (s.size() >= w) return s;
  return s + std::string(w - s.size(), ' ');
}

}  // namespace ctaver::util
