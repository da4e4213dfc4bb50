//===- support/StringExtras.h - String helpers ----------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#ifndef EXO_SUPPORT_STRINGEXTRAS_H
#define EXO_SUPPORT_STRINGEXTRAS_H

#include <string>
#include <vector>

namespace exo {

/// Splits on a single-character separator; keeps empty fields.
std::vector<std::string> splitString(const std::string &S, char Sep);

/// Joins with a separator.
std::string joinStrings(const std::vector<std::string> &Parts,
                        const std::string &Sep);

/// Strips ASCII whitespace from both ends.
std::string trimString(const std::string &S);

/// True if \p S starts with \p Prefix.
bool startsWith(const std::string &S, const std::string &Prefix);

/// Replaces every occurrence of \p From (non-empty) with \p To.
std::string replaceAll(std::string S, const std::string &From,
                       const std::string &To);

/// Counts the newline-separated lines of a string (a trailing newline does
/// not add an extra line). Used by the Fig. 7 code-size harness.
unsigned countLines(const std::string &S);

/// Escapes \p S for use inside a JSON string literal (without the quotes).
std::string jsonEscape(const std::string &S);

} // namespace exo

#endif // EXO_SUPPORT_STRINGEXTRAS_H
