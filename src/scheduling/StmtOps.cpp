//===- scheduling/StmtOps.cpp - Statement transformations ------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "scheduling/OpsCommon.h"

#include "ir/Builder.h"
#include "ir/FreeVars.h"
#include "ir/Printer.h"
#include "ir/Subst.h"

#include <functional>

using namespace exo;
using namespace exo::scheduling;
using namespace exo::ir;
using namespace exo::analysis;

namespace {

/// Shared commute-and-swap used by reorderStmts / moveStmtUp: swaps the
/// statement at \p C with its successor after proving they commute.
Expected<ProcRef> swapAdjacent(const ProcRef &P, const StmtCursor &C) {
  const Block &B = blockAt(*P, C);
  if (C.Begin + 1 >= B.size())
    return makeError(Error::Kind::Scheduling,
                     "reorder_stmts: no statement after the match");
  StmtRef S1 = B[C.Begin], S2 = B[C.Begin + 1];

  // Binders of s1 must not be used by s2 (scope would break).
  if (S1->kind() == StmtKind::Alloc || S1->kind() == StmtKind::WindowStmt)
    if (freeVars(S2).count(S1->name()))
      return makeError(Error::Kind::Scheduling,
                       "reorder_stmts: the second statement uses a binding "
                       "of the first");

  StmtCursor Two = C;
  Two.End = C.Begin + 2;
  OpContext Op(P, Two);
  const ContextInfo &Info = Op.info();
  // A window s1 binds is in scope for s2's extraction; the footprint
  // pre-check reads s2 under the state before s1, so it skips that case.
  if (S1->kind() == StmtKind::WindowStmt ||
      !footprintsCommute(Info.Pre, {S1}, {S2})) {
    FlowState State = Info.Pre;
    EffectSets A1 = extractStmt(Op.Ctx, State, S1);
    EffectSets A2 = extractStmt(Op.Ctx, State, S2);
    if (auto E = checkProved(Op.Ctx, Info.PathCond, commutesCond(A1, A2),
                             printStmt(S1),
                             "reorder_stmts: statements do not commute"))
      return *E;
  }
  return Op.derive({S2, S1});
}

} // namespace

Expected<ProcRef> exo::scheduling::reorderStmts(const Cursor &First) {
  ScopedOpName Op(ops::ReorderStmts);
  auto C = selection(First);
  if (!C)
    return C.error();
  return swapAdjacent(First.proc(), *C);
}

Expected<ProcRef> exo::scheduling::moveStmtUp(const Cursor &Stmt) {
  ScopedOpName Op(ops::MoveUp);
  auto C = selection(Stmt);
  if (!C)
    return C.error();
  if (C->Begin == 0)
    return makeError(Error::Kind::Scheduling,
                     "move_stmt_up: no predecessor to swap with");
  StmtCursor Prev = *C;
  --Prev.Begin;
  --Prev.End;
  return swapAdjacent(Stmt.proc(), Prev);
}

Expected<ProcRef> exo::scheduling::fissionAfter(const Cursor &Stmt) {
  ScopedOpName OpName(ops::Fission);
  auto C = selection(Stmt);
  if (!C)
    return C.error();
  const ProcRef &P = Stmt.proc();
  if (C->Path.empty())
    return makeError(Error::Kind::Scheduling,
                     "fission_after: statement is not inside a loop");
  // The parent must be a For.
  StmtCursor ParentCur;
  ParentCur.Path.assign(C->Path.begin(), C->Path.end() - 1);
  ParentCur.Begin = C->Path.back().Index;
  ParentCur.End = ParentCur.Begin + 1;
  OpContext Op(P, ParentCur);
  StmtRef Loop = Op.stmt();
  if (Loop->kind() != StmtKind::For)
    return makeError(Error::Kind::Scheduling,
                     "fission_after: enclosing statement is not a loop");

  const Block &Body = Loop->body();
  unsigned Split = C->Begin + 1;
  if (Split >= Body.size())
    return makeError(Error::Kind::Scheduling,
                     "fission_after: nothing after the statement to split "
                     "off");
  Block B1(Body.begin(), Body.begin() + Split);
  Block B2(Body.begin() + Split, Body.end());

  // Scope: bindings made in the first half must not be used in the second.
  for (Sym S : boundVars(B1))
    if (freeVars(B2).count(S))
      return makeError(Error::Kind::Scheduling,
                       "fission_after: the second half uses '" + S.name() +
                           "' bound in the first half");

  // §5.8: B1 at iteration x moves before B2 at iteration x' for x' < x.
  AnalysisCtx &Ctx = Op.Ctx;
  const ContextInfo &Info = Op.info();
  if (!footprintsCommute(Info.Pre, B1, B2)) {
    smt::TermRef X1 = smt::mkVar(smt::freshVar("x1", smt::Sort::Int));
    smt::TermRef X2 = smt::mkVar(smt::freshVar("x2", smt::Sort::Int));
    FlowState SA = Info.Pre;
    SA.Env[Loop->name()] = EffInt::known(X1);
    EffectSets A1 = extractBlock(Ctx, SA, B1);
    FlowState SB = Info.Pre;
    SB.Env[Loop->name()] = EffInt::known(X2);
    EffectSets A2 = extractBlock(Ctx, SB, B2);

    EffInt Lo = Ctx.liftControl(Loop->lo(), Info.Pre.Env);
    EffInt Hi = Ctx.liftControl(Loop->hi(), Info.Pre.Env);
    auto InBounds = [&](const smt::TermRef &X) {
      EffInt XV = EffInt::known(X);
      return triAnd(triCmp(BinOpKind::Le, Lo, XV),
                    triCmp(BinOpKind::Lt, XV, Hi));
    };
    TriBool Premise = triAnd(Info.PathCond,
                             triAnd(InBounds(X1), InBounds(X2)));
    Premise = triAnd(Premise, TriBool::certain(smt::lt(X2, X1)));
    if (auto E = checkProved(Ctx, Premise, commutesCond(A1, A2),
                             "for " + Loop->name().name() + " in _: _",
                             "fission_after: split halves do not commute "
                             "across iterations"))
      return *E;
  }

  // B2 moves into the new loop rather than being copied, so its binders
  // stay unique; only the iterator is renamed.
  Sym Iter2 = Loop->name().copy();
  SymSubst Map;
  Map[Loop->name()] = Expr::read(Iter2, {}, Type(ScalarKind::Index));
  StmtRef L1 = Stmt::forStmt(Loop->name(), Loop->lo(), Loop->hi(), B1);
  StmtRef L2 = Stmt::forStmt(Iter2, Loop->lo(), Loop->hi(),
                             substBlock(B2, Map));
  return Op.derive({L1, L2});
}

Expected<ProcRef> exo::scheduling::liftAlloc(const Cursor &Target,
                                             unsigned Levels) {
  ScopedOpName Op(ops::LiftAlloc);
  auto Sel = selectionOfKind(Target, StmtKind::Alloc, "an allocation");
  if (!Sel)
    return Sel.error();
  StmtCursor C = *Sel;
  StmtRef Alloc = Target.stmts()[0];
  ProcRef Cur = Target.proc();
  for (unsigned L = 0; L < Levels; ++L) {
    if (C.Path.empty())
      return makeError(Error::Kind::Scheduling,
                       "lift_alloc: allocation is already at the top level");
    // The allocation's dimension expressions must not use the binders we
    // are lifting past (e.g. the loop iterator).
    StmtCursor ParentCur;
    ParentCur.Path.assign(C.Path.begin(), C.Path.end() - 1);
    ParentCur.Begin = C.Path.back().Index;
    ParentCur.End = ParentCur.Begin + 1;
    StmtRef Parent = selectedStmts(*Cur, ParentCur)[0];
    if (Parent->kind() == StmtKind::For) {
      std::set<Sym> Used;
      for (auto &D : Alloc->allocType().dims()) {
        auto F = freeVars(D);
        Used.insert(F.begin(), F.end());
      }
      if (Used.count(Parent->name()))
        return makeError(Error::Kind::Scheduling,
                         "lift_alloc: buffer size depends on the loop "
                         "iterator");
    }
    // Remove the alloc from its block and reinsert before the (rebuilt)
    // parent statement; the path above the parent is unchanged, so the
    // net dirty region is the parent's slot widening to two statements,
    // and the allocation now sits in the parent's old slot.
    Block Without = replaceRange(Cur->body(), C, {});
    const Block *Bp = &Without;
    for (const PathStep &Step : ParentCur.Path)
      Bp = Step.Into == PathStep::Branch::Body
               ? &(*Bp)[Step.Index]->body()
               : &(*Bp)[Step.Index]->orelse();
    StmtRef NewParent = (*Bp)[ParentCur.Begin];
    Block Rebuilt = replaceRange(Without, ParentCur, {Alloc, NewParent});
    Cur = deriveProc(Cur, std::move(Rebuilt), ParentCur, 2);
    C = ParentCur;
  }
  return Cur;
}

Expected<ProcRef> exo::scheduling::bindExpr(const Cursor &Stmt,
                                            const std::string &ExprPat,
                                            const std::string &NewName) {
  ScopedOpName OpName(ops::BindExpr);
  auto C = selection(Stmt);
  if (!C)
    return C.error();
  OpContext Op(Stmt.proc(), *C);
  StmtRef S = Op.stmt();
  if (S->kind() != StmtKind::Assign && S->kind() != StmtKind::Reduce)
    return makeError(Error::Kind::Scheduling,
                     "bind_expr: statement must be an assignment or "
                     "reduction");

  auto Squeeze = [](const std::string &In) {
    std::string Out;
    for (char Ch : In)
      if (!std::isspace(static_cast<unsigned char>(Ch)))
        Out += Ch;
    return Out;
  };
  std::string Wanted = Squeeze(ExprPat);

  // Find the first data-typed subexpression whose printed form matches.
  ExprRef Found;
  std::function<void(const ExprRef &)> Search = [&](const ExprRef &E) {
    if (!E || Found)
      return;
    if (E->type().isData() && Squeeze(printExpr(E)) == Wanted) {
      Found = E;
      return;
    }
    for (auto &K : childExprs(E))
      Search(K);
  };
  Search(S->rhs());
  if (!Found)
    return makeError(Error::Kind::Pattern,
                     "bind_expr: no data subexpression matches '" + ExprPat +
                         "'");

  Sym NewSym = Sym::fresh(NewName);
  ScalarKind Elem = Found->type().elem();
  ExprRef NewRead = Expr::read(NewSym, {}, Type(Elem));

  // Replace all occurrences (by printed form) within the rhs.
  std::function<ExprRef(const ExprRef &)> Rewrite =
      [&](const ExprRef &E) -> ExprRef {
    if (E->type().isData() && Squeeze(printExpr(E)) == Wanted)
      return NewRead;
    std::vector<ExprRef> Kids = childExprs(E);
    bool Changed = false;
    for (auto &K : Kids) {
      if (!K)
        continue;
      ExprRef R = Rewrite(K);
      Changed |= R != K;
      K = R;
    }
    return Changed ? withNewArgs(E, std::move(Kids)) : E;
  };
  ExprRef NewRhs = Rewrite(S->rhs());

  StmtRef NewStmt =
      S->kind() == StmtKind::Assign
          ? Stmt::assign(S->name(), S->indices(), NewRhs)
          : Stmt::reduce(S->name(), S->indices(), NewRhs);
  return Op.derive({Stmt::alloc(NewSym, Type(Elem), "DRAM"),
                    Stmt::assign(NewSym, {}, Found), NewStmt});
}

Expected<ProcRef> exo::scheduling::addGuard(const Cursor &Stmt,
                                            const std::string &CondSrc) {
  ScopedOpName OpName(ops::AddGuard);
  auto C = selection(Stmt);
  if (!C)
    return C.error();
  const ProcRef &P = Stmt.proc();
  OpContext Op(P, *C);
  StmtRef S = Op.stmt();

  frontend::ParseEnv Env;
  auto Cond = frontend::parseExprInScope(CondSrc, scopeAt(*P, *C), Env);
  if (!Cond)
    return Cond.error();

  const ContextInfo &Info = Op.info();
  TriBool CondT = Op.Ctx.liftBool(*Cond, Info.Pre.Env);
  if (auto E = checkProved(Op.Ctx, Info.PathCond, CondT.Must, CondSrc,
                           "add_guard: condition '" + CondSrc +
                               "' is not provably true here"))
    return *E;
  return Op.derive({Stmt::ifStmt(*Cond, {S})});
}
