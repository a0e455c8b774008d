//===- support/StrUtil.h - String/formatting helpers ------------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string formatting helpers used by the printers and the benchmark
/// harness table output.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SUPPORT_STRUTIL_H
#define GDP_SUPPORT_STRUTIL_H

#include <cstdint>
#include <string>
#include <vector>

namespace gdp {

/// printf-style formatting into a std::string.
std::string formatStr(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Left-pads \p S with spaces to width \p Width (no-op if already wider).
std::string padLeft(const std::string &S, unsigned Width);

/// Right-pads \p S with spaces to width \p Width (no-op if already wider).
std::string padRight(const std::string &S, unsigned Width);

/// Formats \p Value with \p Decimals fractional digits.
std::string formatDouble(double Value, unsigned Decimals = 2);

/// Formats \p Fraction (e.g. 0.956) as a percentage string "95.6%".
std::string formatPercent(double Fraction, unsigned Decimals = 1);

/// Parses \p Text as a positive decimal integer (a --lat=N or --threads=N
/// value) into \p Out. False for anything else: empty, signed, trailing
/// text, zero or out of range.
bool parsePositive(const std::string &Text, unsigned &Out);

/// Parses \p Text as an unsigned decimal integer (a seed, a count or a
/// millisecond budget; 0 included) into \p Out. False for empty text, a
/// sign, trailing text or a value above UINT64_MAX.
bool parseUnsigned(const std::string &Text, uint64_t &Out);

/// Parses \p Text as a decimal fraction in [0, 1] (a probability flag)
/// into \p Out. False for empty text, a sign, trailing text or a value
/// outside the range.
bool parseFraction(const std::string &Text, double &Out);

/// Joins \p Parts with \p Sep.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// A tiny fixed-column text table used by the bench binaries to print
/// paper-style result tables.
class TextTable {
public:
  /// Creates a table whose header row is \p Header.
  explicit TextTable(std::vector<std::string> Header);

  /// Appends a data row; must have the same arity as the header.
  void addRow(std::vector<std::string> Row);

  /// Renders the table with aligned columns and a separator under the
  /// header.
  std::string render() const;

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace gdp

#endif // GDP_SUPPORT_STRUTIL_H
