#include "common/text.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace hunter::common {

bool DoubleToSize(double value, size_t* out) {
  // 2^digits: every integral double below it converts to size_t exactly.
  const double limit =
      std::ldexp(1.0, std::numeric_limits<size_t>::digits);
  if (!(value >= 0.0 && value < limit) || value != std::floor(value)) {
    return false;
  }
  *out = static_cast<size_t>(value);
  return true;
}

std::string FormatDouble17(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0.0 ? "Infinity" : "-Infinity";
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.precision(17);
  os << value;
  return os.str();
}

std::string FormatDoubleFixed(double value, int digits) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os.setf(std::ios::fixed, std::ios::floatfield);
  os.precision(digits);
  os << value;
  return os.str();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace hunter::common
