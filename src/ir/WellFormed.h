//===- ir/WellFormed.h - Lightweight IR well-formedness checks -*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cheap structural well-formedness pass over a procedure, in the shape
/// of rego-cpp's wf.h: a single O(n) walk asserting the invariants every
/// other pass is allowed to assume. It is asserted between scheduling
/// rewrites in debug builds (see deriveProc) so that a rewrite which
/// corrupts the tree — or records a dirty region that does not resolve in
/// the tree it claims to describe — fails at the rewrite, not three
/// analyses or cursor forwardings later.
///
/// Checked invariants:
///   - every statement node is non-null and payload-complete for its kind
///     (For has bounds, Assign/Reduce/If/WriteConfig/WindowStmt have an
///     rhs, Call arity matches the callee signature);
///   - If and For bodies are non-empty (an empty block is spelled `pass`);
///   - only If carries an orelse;
///   - binders (loop iterators, allocations, window names) do not shadow
///     an enclosing binding or argument on the same path — the analysis
///     keys effect environments and canonical solver variables by Sym, so
///     shadowing would silently conflate two bindings;
///   - the recorded DirtyRegion, if any, resolves: its spine path indices
///     are in range, For steps descend into the body, and the replaced
///     range fits the block it names.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_IR_WELLFORMED_H
#define EXO_IR_WELLFORMED_H

#include "ir/Proc.h"

#include <string>
#include <vector>

namespace exo {
namespace ir {

/// Returns every violated invariant as a human-readable message; empty
/// means the procedure is well-formed.
std::vector<std::string> wellFormednessErrors(const Proc &P);

/// Convenience predicate over wellFormednessErrors.
bool isWellFormed(const Proc &P);

/// Aborts via fatalError with the first violation; used from deriveProc
/// in debug builds.
void assertWellFormed(const Proc &P);

} // namespace ir
} // namespace exo

#endif // EXO_IR_WELLFORMED_H
