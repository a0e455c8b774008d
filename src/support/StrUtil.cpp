//===- support/StrUtil.cpp - String/formatting helpers --------------------===//

#include "support/StrUtil.h"

#include <cassert>
#include <charconv>
#include <cstdarg>
#include <cstdio>

using namespace gdp;

std::string gdp::formatStr(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Result;
  if (Needed > 0) {
    Result.resize(static_cast<size_t>(Needed) + 1);
    vsnprintf(Result.data(), Result.size(), Fmt, ArgsCopy);
    Result.resize(static_cast<size_t>(Needed));
  }
  va_end(ArgsCopy);
  return Result;
}

std::string gdp::padLeft(const std::string &S, unsigned Width) {
  if (S.size() >= Width)
    return S;
  return std::string(Width - S.size(), ' ') + S;
}

std::string gdp::padRight(const std::string &S, unsigned Width) {
  if (S.size() >= Width)
    return S;
  return S + std::string(Width - S.size(), ' ');
}

std::string gdp::formatDouble(double Value, unsigned Decimals) {
  return formatStr("%.*f", static_cast<int>(Decimals), Value);
}

std::string gdp::formatPercent(double Fraction, unsigned Decimals) {
  return formatStr("%.*f%%", static_cast<int>(Decimals), Fraction * 100.0);
}

bool gdp::parsePositive(const std::string &Text, unsigned &Out) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Out);
  return Ec == std::errc() && Ptr == End && Out > 0;
}

bool gdp::parseUnsigned(const std::string &Text, uint64_t &Out) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Out);
  return Ec == std::errc() && Ptr == End;
}

bool gdp::parseFraction(const std::string &Text, double &Out) {
  if (Text.empty() || Text[0] == '-')
    return false;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Out);
  return Ec == std::errc() && Ptr == End && Out >= 0 && Out <= 1;
}

std::string gdp::join(const std::vector<std::string> &Parts,
                      const std::string &Sep) {
  std::string Result;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

TextTable::TextTable(std::vector<std::string> HeaderIn)
    : Header(std::move(HeaderIn)) {}

void TextTable::addRow(std::vector<std::string> Row) {
  assert(Row.size() == Header.size() && "row arity must match header");
  Rows.push_back(std::move(Row));
}

std::string TextTable::render() const {
  std::vector<unsigned> Widths(Header.size(), 0);
  auto Grow = [&](const std::vector<std::string> &Row) {
    for (size_t I = 0; I != Row.size(); ++I)
      Widths[I] = std::max(Widths[I], static_cast<unsigned>(Row[I].size()));
  };
  Grow(Header);
  for (const auto &Row : Rows)
    Grow(Row);

  std::string Out;
  auto Emit = [&](const std::vector<std::string> &Row) {
    for (size_t I = 0; I != Row.size(); ++I) {
      if (I != 0)
        Out += "  ";
      // First column left-aligned (names); the rest right-aligned (numbers).
      Out += I == 0 ? padRight(Row[I], Widths[I]) : padLeft(Row[I], Widths[I]);
    }
    Out += '\n';
  };
  Emit(Header);
  unsigned Total = 0;
  for (unsigned W : Widths)
    Total += W;
  Out += std::string(Total + 2 * (Widths.size() - 1), '-');
  Out += '\n';
  for (const auto &Row : Rows)
    Emit(Row);
  return Out;
}
