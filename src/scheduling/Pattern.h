//===- scheduling/Pattern.h - Syntactic cursor patterns --------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The syntactic pattern-matching strings scheduling operators use to
/// point at code (§3.3): "in our prototype, this is accomplished via
/// simple syntactic pattern matching strings."
///
/// Supported patterns (whitespace-insensitive; `_` is a wildcard):
///
///   "for i in _: _"        — loop with iteration variable named i
///   "for _ in _: _"        — any loop
///   "if _: _"              — any if-statement
///   "a : _"                — allocation of a buffer named a
///   "x[_] = _"             — assignment to x   (also "x = _")
///   "x[_] += _"            — reduction into x
///   "Cfg.field = _"        — configuration write
///   "foo(_)"               — call to procedure foo
///   "pass"                 — a pass statement
///
/// Any pattern may end with "#k" to select the k-th match (0-based) in
/// pre-order; the default is the first match. findStmts(..., Count)
/// extends the selection to Count consecutive statements starting at the
/// match.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SCHEDULING_PATTERN_H
#define EXO_SCHEDULING_PATTERN_H

#include "analysis/Context.h"
#include "frontend/Parser.h"
#include "support/Error.h"

namespace exo {
namespace scheduling {

using analysis::PathStep;
using analysis::StmtCursor;

/// Finds the statement selected by \p Pattern; the cursor selects
/// [match, match + Count) consecutive statements. Cursor::find (Cursor.h)
/// is its one caller: operators take a resolved Cursor, never a pattern.
Expected<StmtCursor> findStmts(const ir::Proc &P, const std::string &Pattern,
                               unsigned Count = 1);

/// Names visible at the cursor: procedure arguments, then bindings made
/// by statements preceding it (allocations, windows, loop iterators of
/// enclosing loops). Later bindings shadow earlier ones.
std::map<std::string, frontend::ScopedName> scopeAt(const ir::Proc &P,
                                                    const StmtCursor &C);

} // namespace scheduling
} // namespace exo

#endif // EXO_SCHEDULING_PATTERN_H
