//===- support/StringExtras.cpp -------------------------------------------===//

#include "support/StringExtras.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace denali;

std::string denali::strFormat(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Len = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Out;
  if (Len > 0) {
    Out.resize(static_cast<size_t>(Len) + 1);
    std::vsnprintf(Out.data(), Out.size(), Fmt, Args);
    Out.resize(static_cast<size_t>(Len));
  }
  va_end(Args);
  return Out;
}

std::vector<std::string> denali::splitString(const std::string &S,
                                             const std::string &Seps) {
  std::vector<std::string> Pieces;
  std::string Cur;
  for (char C : S) {
    if (Seps.find(C) != std::string::npos) {
      if (!Cur.empty())
        Pieces.push_back(Cur);
      Cur.clear();
      continue;
    }
    Cur.push_back(C);
  }
  if (!Cur.empty())
    Pieces.push_back(Cur);
  return Pieces;
}

bool denali::parseIntegerLiteral(std::string_view S, int64_t &Out) {
  if (S.empty())
    return false;
  size_t I = 0;
  bool Neg = false;
  if (S[0] == '-' || S[0] == '+') {
    Neg = S[0] == '-';
    I = 1;
  }
  if (I >= S.size())
    return false;
  int Base = 10;
  if (S.size() - I > 2 && S[I] == '0' && (S[I + 1] == 'x' || S[I + 1] == 'X')) {
    Base = 16;
    I += 2;
  }
  uint64_t Val = 0;
  for (; I < S.size(); ++I) {
    char C = S[I];
    int Digit;
    if (C >= '0' && C <= '9')
      Digit = C - '0';
    else if (Base == 16 && C >= 'a' && C <= 'f')
      Digit = C - 'a' + 10;
    else if (Base == 16 && C >= 'A' && C <= 'F')
      Digit = C - 'A' + 10;
    else
      return false;
    Val = Val * static_cast<uint64_t>(Base) + static_cast<uint64_t>(Digit);
  }
  // Negate as unsigned: -0x8000000000000000 wraps to INT64_MIN without
  // the signed overflow of negating it as an int64_t.
  Out = static_cast<int64_t>(Neg ? 0 - Val : Val);
  return true;
}

bool denali::parseDecimal(const char *S, uint64_t &Out) {
  if (S[0] == '0' && S[1] == '\0') {
    Out = 0;
    return true;
  }
  if (*S < '1' || *S > '9')
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (*End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

bool denali::parsePositiveDecimal(const char *S, unsigned &Out) {
  uint64_t V = 0;
  if (!parseDecimal(S, V) || V == 0 || V > UINT_MAX)
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

bool denali::parseDecimalNumber(const char *S, double &Out) {
  // Digits and at most one point: strtod alone would also take a sign, an
  // exponent, hex, "inf" and "nan".
  size_t Digits = 0, Points = 0;
  for (const char *P = S; *P; ++P) {
    if (*P >= '0' && *P <= '9')
      ++Digits;
    else if (*P == '.' && !Points)
      ++Points;
    else
      return false;
  }
  if (!Digits)
    return false;
  double V = std::strtod(S, nullptr);
  if (!std::isfinite(V))
    return false; // Too many digits.
  Out = V;
  return true;
}

const char *denali::flagValue(const char *Arg, const char *Name, int &I,
                              int Argc, char **Argv) {
  size_t Len = std::strlen(Name);
  if (std::strncmp(Arg, Name, Len) != 0)
    return nullptr;
  if (Arg[Len] == '=')
    return Arg + Len + 1;
  if (Arg[Len] == '\0' && I + 1 < Argc)
    return Argv[++I];
  return nullptr;
}

std::string denali::formatConstant(uint64_t V) {
  if (V < 1024)
    return strFormat("%llu", static_cast<unsigned long long>(V));
  if (static_cast<int64_t>(V) < 0 && static_cast<int64_t>(V) > -1024)
    return strFormat("%lld", static_cast<long long>(V));
  return strFormat("0x%llx", static_cast<unsigned long long>(V));
}
