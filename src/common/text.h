// Locale-independent text formatting shared by every emitter that feeds a
// byte-stable artifact (run journals, model files, bench JSON, tables).
//
// The C and C++ locale machinery silently rewrites numeric output ("1.5"
// becomes "1,5" under many European locales), which breaks the byte-identical
// journal contract (DESIGN.md §10). Everything that serializes numbers must
// go through these helpers, which pin std::locale::classic().

#ifndef HUNTER_COMMON_TEXT_H_
#define HUNTER_COMMON_TEXT_H_

#include <cstddef>
#include <ios>
#include <locale>
#include <string>

namespace hunter::common {

// RAII: imbues `stream` with std::locale::classic() and restores the previous
// locale on destruction, so parsers/serializers can pin "C" numerics on a
// caller-provided stream without leaking the change.
class ScopedClassicLocale {
 public:
  explicit ScopedClassicLocale(std::ios_base& stream)
      : stream_(stream), previous_(stream.imbue(std::locale::classic())) {}
  ~ScopedClassicLocale() { stream_.imbue(previous_); }
  ScopedClassicLocale(const ScopedClassicLocale&) = delete;
  ScopedClassicLocale& operator=(const ScopedClassicLocale&) = delete;

 private:
  std::ios_base& stream_;
  std::locale previous_;
};

// Shortest-precision-17 decimal rendering of `value` that round-trips to the
// same double, always with '.' as the decimal separator. Non-finite values
// render as "NaN", "Infinity", "-Infinity".
std::string FormatDouble17(double value);

// Fixed-point rendering with `digits` fractional digits, classic locale.
std::string FormatDoubleFixed(double value, int digits);

// Escapes `s` for use inside a JSON string literal (quotes, backslashes,
// control characters; everything else passes through byte-for-byte).
std::string JsonEscape(const std::string& s);

// Reads a count or index that a byte-stable artifact stores as a double.
// Returns false unless `value` is finite, non-negative, integral and exactly
// representable as size_t (a plain cast would truncate a fraction, and is
// undefined for negative, non-finite or too-large values).
bool DoubleToSize(double value, size_t* out);

}  // namespace hunter::common

#endif  // HUNTER_COMMON_TEXT_H_
