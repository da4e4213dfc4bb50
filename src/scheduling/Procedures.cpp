//===- scheduling/Procedures.cpp - Composable scheduling procedures -------===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "scheduling/Procedures.h"

#include <algorithm>

using namespace exo;
using namespace exo::scheduling;
using namespace exo::ir;
using namespace exo::analysis;

namespace {

/// Descends through guard ifs (the Guard split tail wraps bodies in a
/// bounds test) until the cursor rests on the first non-If statement.
Expected<Cursor> throughGuards(Cursor C) {
  for (int Depth = 0; Depth < 64; ++Depth) {
    auto S = C.stmt();
    if (!S)
      return S.error();
    if ((*S)->kind() != StmtKind::If)
      return C;
    auto Inner = C.body();
    if (!Inner)
      return Inner.error();
    C = *Inner;
  }
  return makeError(Error::Kind::Internal, "guard nest too deep");
}

/// The first statement of the selected loop's body, skipping guard ifs.
Expected<Cursor> loopBody(const Cursor &Loop) {
  auto B = Loop.body();
  if (!B)
    return B.error();
  return throughGuards(*B);
}

Error notALoop(const char *Proc, const Cursor &C) {
  ScheduleErrorInfo Info;
  Info.Op = Proc;
  Info.Loc = C.str();
  return makeScheduleError(Error::Kind::Scheduling,
                           std::string(Proc) +
                               ": cursor does not select a for-loop",
                           std::move(Info));
}

} // namespace

//===----------------------------------------------------------------------===//
// hoist
//===----------------------------------------------------------------------===//

Expected<ProcRef> exo::scheduling::hoistStmtToTop(const Cursor &Stmt) {
  auto S = Stmt.stmt();
  if (!S)
    return S.error();
  // Each step moves the statement one slot up or one level out, so the
  // loop ends; the cursor follows the statement by where each step is
  // known to put it.
  Cursor C = Stmt;
  for (;;) {
    StmtCursor At = C.raw();
    if (At.Begin > 0) {
      auto Next = moveStmtUp(C);
      if (!Next)
        return Next.error();
      --At.Begin;
      --At.End;
      C = Cursor::fromStmtCursor(*Next, At);
      continue;
    }
    if (At.Path.empty())
      return C.proc(); // already the first statement of the procedure
    // First statement of an enclosing block: fission the loop after it,
    // then remove the singleton loop left around it.
    Cursor Parent = *C.parent();
    StmtRef Loop = *Parent.stmt();
    if (Loop->kind() != StmtKind::For)
      return makeError(Error::Kind::Scheduling,
                       "hoist: cannot hoist out of a conditional");
    if (Loop->body().size() > 1) {
      // The first of the two loops keeps the parent's slot.
      auto Fissioned = fissionAfter(C);
      if (!Fissioned)
        return Fissioned.error();
      Parent = Cursor::fromStmtCursor(*Fissioned, Parent.raw());
    }
    auto Next = removeLoop(Parent);
    if (!Next)
      return Next.error();
    // The loop's body, the statement alone, takes the loop's slot.
    C = Cursor::fromStmtCursor(*Next, Parent.raw());
  }
}

//===----------------------------------------------------------------------===//
// tile2D
//===----------------------------------------------------------------------===//

Expected<ProcRef> exo::scheduling::tile2D(const Cursor &LoopI, int64_t TileI,
                                          int64_t TileJ,
                                          const std::string &OuterI,
                                          const std::string &InnerI,
                                          const std::string &OuterJ,
                                          const std::string &InnerJ,
                                          SplitTail Tail) {
  auto SI = LoopI.stmt();
  if (!SI)
    return SI.error();
  if ((*SI)->kind() != StmtKind::For)
    return notALoop(ops::Tile2D, LoopI);

  // split I -- the tile row loop.
  auto P1 = splitLoop(LoopI, TileI, OuterI, InnerI, Tail);
  if (!P1)
    return P1.error();

  // The old loop cursor forwards (rebuilt) onto the new OuterI loop;
  // navigation from there reaches InnerI and then the J loop, so no
  // pattern ordinals are involved even when iterator names repeat.
  auto CIo = LoopI.forwardTo(*P1);
  if (!CIo)
    return CIo.error();
  auto CIi = loopBody(*CIo);
  if (!CIi)
    return CIi.error();
  auto CJ = loopBody(*CIi);
  if (!CJ)
    return CJ.error();
  auto SJ = CJ->stmt();
  if (!SJ)
    return SJ.error();
  if ((*SJ)->kind() != StmtKind::For)
    return notALoop(ops::Tile2D, *CJ);

  // split J -- the tile column loop.
  auto P2 = splitLoop(*CJ, TileJ, OuterJ, InnerJ, Tail);
  if (!P2)
    return P2.error();

  // reorder InnerI past OuterJ: io ii jo ji ... -> io jo ii ji ...
  auto CIi2 = CIi->forwardTo(*P2);
  if (!CIi2)
    return CIi2.error();
  auto P3 = reorderLoops(*CIi2);
  if (!P3)
    return P3.error();

  // The swap leaves OuterJ in InnerI's old slot; descend to InnerI and
  // InnerJ beneath it.
  auto CJo = CIi2->forwardTo(*P3);
  if (!CJo)
    return CJo.error();
  auto CIi3 = loopBody(*CJo);
  if (!CIi3)
    return CIi3.error();
  auto CJi = loopBody(*CIi3);
  if (!CJi)
    return CJi.error();

  // reorder InnerJ, then InnerI again, sinking the intra-tile pair below
  // the loop that followed them: io jo ii ji k -> io jo k ii ji.
  auto P4 = reorderLoops(*CJi);
  if (!P4)
    return P4.error();
  auto CIi4 = CIi3->forwardTo(*P4);
  if (!CIi4)
    return CIi4.error();
  auto P5 = reorderLoops(*CIi4);
  if (!P5)
    return P5.error();

  return simplify(*P5);
}

//===----------------------------------------------------------------------===//
// stageAndVectorize
//===----------------------------------------------------------------------===//

namespace {

/// Finds the innermost loop of the copy-in nest stage_mem generated: the
/// first For in the staged region whose perfectly-nested chain bottoms
/// out in an assignment into \p NewName.
Expected<Cursor> copyInLaneLoop(const ProcRef &P, const Cursor &Staged,
                                const std::string &NewName) {
  const StmtCursor &Raw = Staged.raw();
  for (unsigned I = Raw.Begin; I < Raw.End; ++I) {
    StmtCursor One;
    One.Path = Raw.Path;
    One.Begin = I;
    One.End = I + 1;
    Cursor Cand = Cursor::fromStmtCursor(P, One);
    auto S = Cand.stmt();
    if (!S)
      return S.error();
    if ((*S)->kind() != StmtKind::For)
      continue;
    // Descend while the body is exactly one nested loop.
    Cursor Lane = Cand;
    for (;;) {
      auto St = Lane.stmt();
      if (!St)
        return St.error();
      const Block &B = (*St)->body();
      if (B.size() != 1 || B[0]->kind() != StmtKind::For)
        break;
      auto Next = Lane.body();
      if (!Next)
        return Next.error();
      Lane = *Next;
    }
    auto St = Lane.stmt();
    const Block &B = (*St)->body();
    if (B.size() == 1 && B[0]->kind() == StmtKind::Assign &&
        B[0]->name().name() == NewName)
      return Lane;
  }
  return makeError(Error::Kind::Scheduling,
                   "stage_and_vectorize: staging produced no copy-in loop "
                   "into '" +
                       NewName + "' (is the window write-only?)");
}

} // namespace

Expected<ProcRef> exo::scheduling::stageAndVectorize(
    const Cursor &Stmts, const std::string &WindowSrc,
    const std::string &NewName, const std::string &Mem, int64_t Lanes,
    const std::string &OuterName, const std::string &InnerName) {
  auto P1 = stageMem(Stmts, WindowSrc, NewName, Mem);
  if (!P1)
    return P1.error();
  // The staged selection forwards (rebuilt) onto the generated region:
  // alloc, copy-in nest, redirected body, copy-out.
  auto Staged = Stmts.forwardTo(*P1);
  if (!Staged)
    return Staged.error();
  auto Lane = copyInLaneLoop(*P1, *Staged, NewName);
  if (!Lane)
    return Lane.error();
  return splitLoop(*Lane, Lanes, OuterName, InnerName, SplitTail::Perfect);
}

//===----------------------------------------------------------------------===//
// autoDivide
//===----------------------------------------------------------------------===//

Expected<ProcRef> exo::scheduling::autoDivide(const Cursor &Loop,
                                              int64_t MaxFactor,
                                              const std::string &OuterName,
                                              const std::string &InnerName) {
  auto S = Loop.stmt();
  if (!S)
    return S.error();
  if ((*S)->kind() != StmtKind::For)
    return notALoop(ops::AutoDivide, Loop);
  const ExprRef &Lo = (*S)->lo();
  const ExprRef &Hi = (*S)->hi();
  if (Lo->kind() != ExprKind::Const || Lo->intValue() != 0 ||
      Hi->kind() != ExprKind::Const)
    return makeError(Error::Kind::Scheduling,
                     "auto_divide: loop trip count is not a compile-time "
                     "constant");
  int64_t N = Hi->intValue();
  if (MaxFactor < 2 || N < 2)
    return makeError(Error::Kind::Scheduling,
                     "auto_divide: no usable factor (trip count " +
                         std::to_string(N) + ", max factor " +
                         std::to_string(MaxFactor) + ")");
  int64_t Factor = 0;
  for (int64_t K = std::min(MaxFactor, N); K >= 2; --K)
    if (N % K == 0) {
      Factor = K;
      break;
    }
  if (!Factor)
    return makeError(Error::Kind::Scheduling,
                     "auto_divide: no factor in [2, " +
                         std::to_string(MaxFactor) +
                         "] divides the trip count " + std::to_string(N));
  return splitLoop(Loop, Factor, OuterName, InnerName, SplitTail::Perfect);
}

//===----------------------------------------------------------------------===//
// Schedule facade chainers for the procedures above
//===----------------------------------------------------------------------===//

Schedule &Schedule::hoistToTop(const std::string &StmtPat) {
  return stepAt(ops::Hoist, StmtPat, hoistStmtToTop);
}

Schedule &Schedule::tile2d(const std::string &LoopI, int64_t TileI,
                           int64_t TileJ, const std::string &OuterI,
                           const std::string &InnerI,
                           const std::string &OuterJ,
                           const std::string &InnerJ, SplitTail Tail) {
  return stepAt(ops::Tile2D, loopPattern(LoopI), [&](const Cursor &C) {
    return tile2D(C, TileI, TileJ, OuterI, InnerI, OuterJ, InnerJ, Tail);
  });
}

Schedule &Schedule::stageVec(const std::string &StmtPat,
                             const std::string &WindowSrc,
                             const std::string &NewName,
                             const std::string &Mem, int64_t Lanes,
                             const std::string &OuterName,
                             const std::string &InnerName) {
  return stepAt(ops::StageVec, StmtPat, [&](const Cursor &C) {
    return stageAndVectorize(C, WindowSrc, NewName, Mem, Lanes, OuterName,
                             InnerName);
  });
}

Schedule &Schedule::autoDivide(const std::string &Loop, int64_t MaxFactor,
                               const std::string &OuterName,
                               const std::string &InnerName) {
  return stepAt(ops::AutoDivide, loopPattern(Loop), [&](const Cursor &C) {
    return scheduling::autoDivide(C, MaxFactor, OuterName, InnerName);
  });
}
