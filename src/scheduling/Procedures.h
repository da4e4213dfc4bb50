//===- scheduling/Procedures.h - Composable scheduling procedures -*- C++ -*-=//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named, composable scheduling procedures (Exo 2, "Growing a Scheduling
/// Language"): mid-level rewrites built purely from the primitive
/// operators of Schedule.h, with first-class cursors (Cursor.h) doing the
/// internal addressing. A procedure is an ordinary function from a cursor
/// to a procedure — it adds no rewriting power and no trusted code; every
/// step inside it is one of the safety-checked primitives, so the first
/// failing primitive aborts the whole procedure with its structured
/// error. Between steps a procedure follows its statements by cursor
/// navigation, forwarding, or the known effect of the step it just took —
/// never by re-matching a pattern.
///
/// A procedure call is exactly the primitive sequence it stands for, so
/// replacing a hand-written sequence in an app with the procedure leaves
/// the generated C byte-identical. The apps (Sgemm, Conv, and the
/// accelerator matmul of apps/AccelMatmul.h that Gemmini and AMX share)
/// reach these through the Schedule facade's chainers (hoistToTop,
/// tile2d, stageVec, autoDivide), the trace grammar through its hoist /
/// tile2d / stage_vec / auto_divide steps.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SCHEDULING_PROCEDURES_H
#define EXO_SCHEDULING_PROCEDURES_H

#include "scheduling/Schedule.h"

namespace exo {
namespace scheduling {

/// hoist: hoists the selected statement to the top of the procedure by
/// repeatedly commuting it above its predecessors (moveStmtUp) and, at
/// the head of an enclosing loop, fissioning the loop after it and
/// removing the singleton loop left around it (fissionAfter, removeLoop).
/// Every step is safety-checked; the first failing step aborts the whole
/// hoist. Hoisting out of a conditional is rejected.
Expected<ProcRef> hoistStmtToTop(const Cursor &Stmt);

/// tile2D: tiles a 2-deep loop nest \p LoopI { LoopJ { ... } } by
/// TileI x TileJ and sinks the two intra-tile loops below whatever single
/// loop follows them (the classic register/scratchpad tiling prologue of
/// every matmul in this repo):
///
///   for i: for j: for k: s
///     ==>  for io: for jo: for ko: for ii: for ji: s'   (k split too)
///
/// Exactly the primitive sequence
///   split I; split J; reorder InnerI; reorder InnerJ; reorder InnerI;
///   simplify
/// so a schedule migrated from that spelling produces byte-identical C.
/// \p LoopI addresses the outer loop; intermediate loops are re-found by
/// cursor navigation + forwarding.
Expected<ProcRef> tile2D(const Cursor &LoopI, int64_t TileI, int64_t TileJ,
                         const std::string &OuterI, const std::string &InnerI,
                         const std::string &OuterJ, const std::string &InnerJ,
                         SplitTail Tail = SplitTail::Perfect);

/// stageAndVectorize: stages the window \p WindowSrc of a buffer into a
/// new \p NewName buffer in \p Mem around the selected statement(s), then
/// splits the *innermost copy-in loop* — found by navigating into the
/// staged region, not by pattern — by \p Lanes into OuterName/InnerName
/// (Perfect), shaping the copy stream into lane-sized chunks ready for a
/// replaceWith against a vector-load instruction. Equivalent to the
/// hand-written "stage; split <copy iterator>" pair, byte-identically.
/// The selection width is taken from the cursor.
Expected<ProcRef> stageAndVectorize(const Cursor &Stmts,
                                    const std::string &WindowSrc,
                                    const std::string &NewName,
                                    const std::string &Mem, int64_t Lanes,
                                    const std::string &OuterName,
                                    const std::string &InnerName);

/// autoDivide: splits a constant-trip-count loop by the *largest* factor
/// <= \p MaxFactor that divides the trip count evenly (SplitTail::Perfect,
/// so the divisibility is also proved, not just computed). Errors when the
/// loop bound is not a compile-time constant or no factor >= 2 divides it.
/// The autotuner uses this to tile loops without hard-coding factors per
/// problem size.
Expected<ProcRef> autoDivide(const Cursor &Loop, int64_t MaxFactor,
                             const std::string &OuterName,
                             const std::string &InnerName);

} // namespace scheduling
} // namespace exo

#endif // EXO_SCHEDULING_PROCEDURES_H
