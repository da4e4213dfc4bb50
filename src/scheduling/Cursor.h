//===- scheduling/Cursor.h - First-class scheduling cursors ----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// First-class cursors (Exo 2, "Growing a Scheduling Language"): a Cursor
/// is a stable handle to a statement selection — or to a zero-width *gap*
/// between statements — anchored in a specific ProcRef. Cursors are
/// resolved once (from a pattern, or by structural navigation from
/// another cursor) and then *forwarded* across rewrites instead of being
/// re-matched: `forwardTo(Derived)` composes the ForwardingMap of every
/// rewrite on the provenance chain (see Forward.h) and either re-anchors
/// the cursor in the derived procedure or fails with a structured
/// ScheduleErrorInfo naming the operator that consumed it.
///
/// A cursor is the one way a scheduling operator is told where to act:
/// every primitive (Schedule.h) and every composite (Procedures.h) takes
/// a `const Cursor &`, and the rewrite happens in the cursor's anchor
/// procedure. `Cursor::find` is the only place a pattern string (§3.3)
/// becomes a cursor; the Schedule facade, the trace interpreter and
/// hand-written code all go through it. A cursor obtained by navigation
/// can point at code no unambiguous pattern string exists for (e.g. one
/// of two same-named loops at different nesting depths).
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SCHEDULING_CURSOR_H
#define EXO_SCHEDULING_CURSOR_H

#include "scheduling/Forward.h"
#include "scheduling/Pattern.h"

namespace exo {
namespace scheduling {

using ir::ProcRef;

class Cursor {
public:
  /// A null cursor; every accessor fails until one is resolved.
  Cursor() = default;

  /// Resolves a cursor from a pattern string (Pattern.h) — the one place
  /// a pattern becomes a cursor. The selection covers
  /// [match, match + Count) statements.
  static Expected<Cursor> find(const ProcRef &P, const std::string &Pattern,
                               unsigned Count = 1);
  /// The whole procedure body, [0, size).
  static Cursor whole(const ProcRef &P);
  /// Wraps an already-resolved low-level cursor (used by the fuzz
  /// property layer, which enumerates positions directly, and by
  /// composites that know where a step put their statement).
  static Cursor fromStmtCursor(const ProcRef &P, StmtCursor C);

  bool null() const { return !Anchor; }
  const ProcRef &proc() const { return Anchor; }
  const StmtCursor &raw() const { return Cur; }
  /// True for a zero-width gap between statements.
  bool isGap() const { return Cur.Begin == Cur.End; }
  unsigned count() const { return Cur.count(); }

  /// The selected statements ([] for gaps).
  std::vector<ir::StmtRef> stmts() const;
  /// The single selected statement; errors on gaps and multi-selections.
  Expected<ir::StmtRef> stmt() const;

  //--- Structural navigation ----------------------------------------------
  // All navigation returns a new cursor anchored in the same procedure;
  // structurally impossible moves return an Error.

  /// First statement of the selected For/If's body.
  Expected<Cursor> body() const;
  /// First statement of the selected If's orelse block.
  Expected<Cursor> orelse() const;
  /// The next sibling statement (the one after the selection / gap).
  Expected<Cursor> next() const;
  /// The previous sibling statement.
  Expected<Cursor> prev() const;
  /// The enclosing For/If statement.
  Expected<Cursor> parent() const;
  /// The gap immediately before the selection.
  Cursor before() const;
  /// The gap immediately after the selection.
  Cursor after() const;
  /// Widens the selection by \p Extra trailing statements.
  Expected<Cursor> expand(unsigned Extra) const;

  //--- Forwarding ----------------------------------------------------------

  /// Re-anchors this cursor in \p Target, a procedure derived from
  /// proc() by scheduling rewrites, by composing the forwarding map of
  /// every rewrite on the provenance chain. Invalidated cursors produce
  /// an Error whose ScheduleErrorInfo names the operator that consumed
  /// the cursor and why.
  Expected<Cursor> forwardTo(const ProcRef &Target) const;
  /// The same, exposing the fate (unchanged / shifted / rebuilt /
  /// invalidated) instead of folding it into an Error.
  ForwardResult forwardResult(const ProcRef &Target) const;

  /// Diagnostic rendering: "gemmini_matmul@[2.body, 0.body] 1:3".
  std::string str() const;

private:
  Cursor(ProcRef P, StmtCursor C) : Anchor(std::move(P)), Cur(std::move(C)) {}

  ProcRef Anchor;
  StmtCursor Cur;
};

} // namespace scheduling
} // namespace exo

#endif // EXO_SCHEDULING_CURSOR_H
