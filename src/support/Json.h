//===- support/Json.h - Minimal JSON parser ---------------------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Just enough JSON for the tools that read this repo's own exports
/// (bench records, stats files) and for test assertions: parses a complete
/// document into a tree of JVal nodes or reports the first syntax error.
/// Numbers are kept as doubles; `\uXXXX` escapes decode only below 0x80,
/// which covers every one escape() writes. `bench_diff` and `gdptool
/// report` consume benchmark records through it, so they need no JSON
/// dependency.
///
/// escape() is the one JSON string escaper every exporter uses (stats,
/// traces, diagnostics, serve bodies, bench records), so whatever they
/// write, parse() reads back.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SUPPORT_JSON_H
#define GDP_SUPPORT_JSON_H

#include <cctype>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace gdp {
namespace support {
namespace json {

struct JVal {
  enum Kind { Null, Bool, Number, String, Array, Object } K = Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JVal> Arr;
  std::map<std::string, JVal> Obj;

  bool has(const std::string &Key) const {
    return K == Object && Obj.count(Key);
  }
  const JVal &operator[](const std::string &Key) const {
    static const JVal Missing;
    auto It = Obj.find(Key);
    return It == Obj.end() ? Missing : It->second;
  }
};

class Parser {
public:
  explicit Parser(const std::string &Text) : S(Text) {}

  /// Parses the whole document; on failure returns false and sets Error.
  bool parse(JVal &Out) {
    if (!value(Out))
      return false;
    skipWs();
    if (Pos != S.size())
      return fail("trailing characters after document");
    return true;
  }

  std::string Error;

private:
  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  bool lit(const char *Word) {
    size_t L = std::string(Word).size();
    if (S.compare(Pos, L, Word) != 0)
      return fail(std::string("expected '") + Word + "'");
    Pos += L;
    return true;
  }

  bool value(JVal &Out) {
    skipWs();
    if (Pos >= S.size())
      return fail("unexpected end of input");
    char C = S[Pos];
    if (C == '{')
      return object(Out);
    if (C == '[')
      return array(Out);
    if (C == '"') {
      Out.K = JVal::String;
      return string(Out.Str);
    }
    if (C == 't') {
      Out.K = JVal::Bool;
      Out.B = true;
      return lit("true");
    }
    if (C == 'f') {
      Out.K = JVal::Bool;
      Out.B = false;
      return lit("false");
    }
    if (C == 'n') {
      Out.K = JVal::Null;
      return lit("null");
    }
    return number(Out);
  }

  bool string(std::string &Out) {
    if (S[Pos] != '"')
      return fail("expected string");
    ++Pos;
    Out.clear();
    while (Pos < S.size() && S[Pos] != '"') {
      char C = S[Pos++];
      if (C == '\\') {
        if (Pos >= S.size())
          return fail("unterminated escape");
        char E = S[Pos++];
        switch (E) {
        case '"': Out += '"'; break;
        case '\\': Out += '\\'; break;
        case '/': Out += '/'; break;
        case 'n': Out += '\n'; break;
        case 't': Out += '\t'; break;
        case 'r': Out += '\r'; break;
        case 'b': Out += '\b'; break;
        case 'f': Out += '\f'; break;
        case 'u':
          if (!unicode(Out))
            return false;
          break;
        default: return fail("unsupported escape");
        }
      } else {
        Out += C;
      }
    }
    if (Pos >= S.size())
      return fail("unterminated string");
    ++Pos; // closing quote
    return true;
  }

  /// The four hex digits after `\u`, appended to \p Out as one byte.
  bool unicode(std::string &Out) {
    for (size_t I = 0; I != 4; ++I)
      if (Pos + I >= S.size() ||
          !std::isxdigit(static_cast<unsigned char>(S[Pos + I])))
        return fail("malformed \\u escape");
    unsigned long CP = std::stoul(S.substr(Pos, 4), nullptr, 16);
    if (CP >= 0x80)
      return fail("unsupported \\u escape (non-ASCII)");
    Pos += 4;
    Out += static_cast<char>(CP);
    return true;
  }

  bool number(JVal &Out) {
    size_t Start = Pos;
    if (Pos < S.size() && (S[Pos] == '-' || S[Pos] == '+'))
      ++Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) ||
            S[Pos] == '.' || S[Pos] == 'e' || S[Pos] == 'E' ||
            S[Pos] == '-' || S[Pos] == '+'))
      ++Pos;
    if (Pos == Start)
      return fail("expected a value");
    try {
      Out.Num = std::stod(S.substr(Start, Pos - Start));
    } catch (...) {
      return fail("malformed number");
    }
    Out.K = JVal::Number;
    return true;
  }

  bool array(JVal &Out) {
    Out.K = JVal::Array;
    ++Pos; // '['
    skipWs();
    if (Pos < S.size() && S[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      JVal Elem;
      if (!value(Elem))
        return false;
      Out.Arr.push_back(std::move(Elem));
      skipWs();
      if (Pos >= S.size())
        return fail("unterminated array");
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == ']') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool object(JVal &Out) {
    Out.K = JVal::Object;
    ++Pos; // '{'
    skipWs();
    if (Pos < S.size() && S[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      std::string Key;
      if (Pos >= S.size() || S[Pos] != '"' || !string(Key))
        return fail("expected object key");
      skipWs();
      if (Pos >= S.size() || S[Pos] != ':')
        return fail("expected ':'");
      ++Pos;
      JVal Val;
      if (!value(Val))
        return false;
      Out.Obj.emplace(std::move(Key), std::move(Val));
      skipWs();
      if (Pos >= S.size())
        return fail("unterminated object");
      if (S[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (S[Pos] == '}') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  const std::string &S;
  size_t Pos = 0;
};

/// \p S as the body of a JSON string literal (no surrounding quotes):
/// `"`, `\` and newline, tab and carriage return get their short escapes,
/// every other byte below 0x20 becomes `\u00xx`, and all other bytes pass
/// through unchanged.
inline std::string escape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

/// Parses \p Text; returns false and fills \p Error on failure.
inline bool parse(const std::string &Text, JVal &Out, std::string &Error) {
  Parser P(Text);
  bool Ok = P.parse(Out);
  Error = P.Error;
  return Ok;
}

} // namespace json
} // namespace support
} // namespace gdp

#endif // GDP_SUPPORT_JSON_H
