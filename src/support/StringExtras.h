//===- support/StringExtras.h - String helpers ------------------*- C++ -*-===//
///
/// \file
/// printf-style formatting into std::string plus a few small string
/// predicates used by the parsers and printers.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_SUPPORT_STRINGEXTRAS_H
#define DENALI_SUPPORT_STRINGEXTRAS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace denali {

/// printf-style formatting that returns a std::string.
std::string strFormat(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits \p S on any character from \p Seps, dropping empty pieces.
std::vector<std::string> splitString(const std::string &S,
                                     const std::string &Seps);

/// \returns true if \p S parses as a (possibly negative, possibly 0x-prefixed)
/// integer literal; the value is stored in \p Out.
/// The parameter is a view so zero-copy tokenizers (sexpr::parse) can
/// test candidate tokens without materializing a std::string.
bool parseIntegerLiteral(std::string_view S, int64_t &Out);

/// \returns true if \p S is a decimal integer, 0 included, that fits
/// uint64_t (the command-line form of a count where 0 means unlimited or
/// off: "0" or "64", but not "-3", "08", "12x" or "abc"); the value is
/// stored in \p Out.
bool parseDecimal(const char *S, uint64_t &Out);

/// \returns true if \p S is a positive decimal integer that fits unsigned
/// (the command-line form of a cycle budget: "8", but not "0", "-3",
/// "12x" or "abc"); the value is stored in \p Out.
bool parsePositiveDecimal(const char *S, unsigned &Out);

/// \returns true if \p S is a non-negative, finite decimal number, a
/// fraction allowed (the command-line form of a time where 0 means off:
/// "0", "250" or "0.5", but not "-1", "1e3", "inf", "1.5x" or "abc"); the
/// value is stored in \p Out.
bool parseDecimalNumber(const char *S, double &Out);

/// The value of the command-line flag \p Name if \p Arg, which is
/// argv[I], is that flag: "--name=value", or "--name value", which
/// advances \p I past the value. nullptr when \p Arg is another flag or
/// its value is missing.
const char *flagValue(const char *Arg, const char *Name, int &I, int Argc,
                      char **Argv);

/// Renders \p V as a decimal if small, hexadecimal otherwise (readability of
/// masks like 0xffff in printed terms).
std::string formatConstant(uint64_t V);

} // namespace denali

#endif // DENALI_SUPPORT_STRINGEXTRAS_H
