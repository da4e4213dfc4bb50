//===- scheduling/Cursor.cpp - First-class scheduling cursors -------------===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "scheduling/Cursor.h"

using namespace exo;
using namespace exo::scheduling;
using namespace exo::ir;
using namespace exo::analysis;

namespace {

Error nullCursorError() {
  return makeError(Error::Kind::Scheduling, "operation on a null cursor");
}

} // namespace

Expected<Cursor> Cursor::find(const ProcRef &P, const std::string &Pattern,
                              unsigned Count) {
  auto C = findStmts(*P, Pattern, Count);
  if (!C)
    return C.error();
  return Cursor(P, *C);
}

Cursor Cursor::whole(const ProcRef &P) {
  StmtCursor C;
  C.Begin = 0;
  C.End = unsigned(P->body().size());
  return Cursor(P, std::move(C));
}

Cursor Cursor::fromStmtCursor(const ProcRef &P, StmtCursor C) {
  return Cursor(P, std::move(C));
}

std::vector<StmtRef> Cursor::stmts() const {
  if (null() || isGap())
    return {};
  return selectedStmts(*Anchor, Cur);
}

Expected<StmtRef> Cursor::stmt() const {
  if (null())
    return nullCursorError();
  if (Cur.count() != 1)
    return makeError(Error::Kind::Scheduling,
                     "cursor selects " + std::to_string(Cur.count()) +
                         " statements, not one");
  return selectedStmts(*Anchor, Cur)[0];
}

Expected<Cursor> Cursor::body() const {
  auto S = stmt();
  if (!S)
    return S.error();
  if ((*S)->body().empty())
    return makeError(Error::Kind::Scheduling,
                     "cursor target has no body to descend into");
  StmtCursor N;
  N.Path = Cur.Path;
  N.Path.push_back({Cur.Begin, PathStep::Branch::Body});
  N.Begin = 0;
  N.End = 1;
  return Cursor(Anchor, std::move(N));
}

Expected<Cursor> Cursor::orelse() const {
  auto S = stmt();
  if (!S)
    return S.error();
  if ((*S)->kind() != StmtKind::If || (*S)->orelse().empty())
    return makeError(Error::Kind::Scheduling,
                     "cursor target has no orelse branch");
  StmtCursor N;
  N.Path = Cur.Path;
  N.Path.push_back({Cur.Begin, PathStep::Branch::Orelse});
  N.Begin = 0;
  N.End = 1;
  return Cursor(Anchor, std::move(N));
}

Expected<Cursor> Cursor::next() const {
  if (null())
    return nullCursorError();
  const Block &B = blockAt(*Anchor, Cur);
  if (Cur.End >= B.size())
    return makeError(Error::Kind::Scheduling,
                     "no statement after the cursor in its block");
  StmtCursor N = Cur;
  N.Begin = Cur.End;
  N.End = Cur.End + 1;
  return Cursor(Anchor, std::move(N));
}

Expected<Cursor> Cursor::prev() const {
  if (null())
    return nullCursorError();
  if (Cur.Begin == 0)
    return makeError(Error::Kind::Scheduling,
                     "no statement before the cursor in its block");
  StmtCursor N = Cur;
  N.Begin = Cur.Begin - 1;
  N.End = Cur.Begin;
  return Cursor(Anchor, std::move(N));
}

Expected<Cursor> Cursor::parent() const {
  if (null())
    return nullCursorError();
  if (Cur.Path.empty())
    return makeError(Error::Kind::Scheduling,
                     "cursor is at the top level of the procedure");
  StmtCursor N;
  N.Path.assign(Cur.Path.begin(), Cur.Path.end() - 1);
  N.Begin = Cur.Path.back().Index;
  N.End = N.Begin + 1;
  return Cursor(Anchor, std::move(N));
}

Cursor Cursor::before() const {
  StmtCursor N = Cur;
  N.End = N.Begin;
  return Cursor(Anchor, std::move(N));
}

Cursor Cursor::after() const {
  StmtCursor N = Cur;
  N.Begin = N.End;
  return Cursor(Anchor, std::move(N));
}

Expected<Cursor> Cursor::expand(unsigned Extra) const {
  if (null())
    return nullCursorError();
  const Block &B = blockAt(*Anchor, Cur);
  if (Cur.End + Extra > B.size())
    return makeError(Error::Kind::Scheduling,
                     "expanded selection runs past the end of the block");
  StmtCursor N = Cur;
  N.End += Extra;
  return Cursor(Anchor, std::move(N));
}

ForwardResult Cursor::forwardResult(const ProcRef &Target) const {
  if (null()) {
    ForwardResult R;
    R.Fate = ForwardFate::Invalidated;
    R.Reason = "null cursor";
    return R;
  }
  return forwardCursor(Anchor, Target, Cur);
}

Expected<Cursor> Cursor::forwardTo(const ProcRef &Target) const {
  ForwardResult R = forwardResult(Target);
  if (!R.live()) {
    ScheduleErrorInfo Info;
    Info.Op = R.Op;
    Info.Loc = str();
    return makeScheduleError(
        Error::Kind::Scheduling,
        "cursor invalidated" +
            (R.Op.empty() ? std::string() : " by '" + R.Op + "'") + ": " +
            R.Reason,
        std::move(Info));
  }
  return Cursor(Target, std::move(R.Cur));
}

std::string Cursor::str() const {
  if (null())
    return "<null cursor>";
  std::string Out = Anchor->name() + "@[";
  for (size_t I = 0; I < Cur.Path.size(); ++I) {
    if (I)
      Out += ", ";
    Out += std::to_string(Cur.Path[I].Index);
    Out += Cur.Path[I].Into == PathStep::Branch::Orelse ? ".orelse" : ".body";
  }
  Out += "] " + std::to_string(Cur.Begin) + ":" + std::to_string(Cur.End);
  return Out;
}
