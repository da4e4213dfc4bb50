//===- tests/CursorAt.h - Pattern-to-cursor test shorthand -----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tests address code the way users do: a pattern string resolved by
/// Cursor::find, handed to a cursor-taking operator. `at` is the
/// shorthand for that; a pattern that matches nothing yields a null
/// cursor, which every operator rejects.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_TESTS_CURSORAT_H
#define EXO_TESTS_CURSORAT_H

#include "scheduling/Cursor.h"

namespace exo {
namespace scheduling {

inline Cursor at(const ProcRef &P, const std::string &Pattern,
                 unsigned Count = 1) {
  auto C = Cursor::find(P, Pattern, Count);
  return C ? *C : Cursor();
}

} // namespace scheduling
} // namespace exo

#endif // EXO_TESTS_CURSORAT_H
