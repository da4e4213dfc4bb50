//===- scheduling/LoopOps.cpp - Loop transformations -----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "scheduling/OpsCommon.h"

#include "ir/Builder.h"
#include "ir/FreeVars.h"
#include "ir/Printer.h"
#include "ir/Subst.h"

using namespace exo;
using namespace exo::scheduling;
using namespace exo::ir;
using namespace exo::analysis;

namespace {

/// Lifts an IR boolean under the context env into a TriBool premise.
TriBool loopBoundsPremise(AnalysisCtx &Ctx, const FlowState &State,
                          const ExprRef &Lo, const ExprRef &Hi,
                          const smt::TermRef &X) {
  EffInt LoV = Ctx.liftControl(Lo, State.Env);
  EffInt HiV = Ctx.liftControl(Hi, State.Env);
  EffInt XV = EffInt::known(X);
  return triAnd(triCmp(BinOpKind::Le, LoV, XV),
                triCmp(BinOpKind::Lt, XV, HiV));
}

} // namespace

Expected<ProcRef> exo::scheduling::splitLoop(const Cursor &Target,
                                             int64_t Factor,
                                             const std::string &OuterName,
                                             const std::string &InnerName,
                                             SplitTail Tail) {
  ScopedOpName OpName(ops::Split);
  if (Factor <= 1)
    return makeError(Error::Kind::Scheduling, "split factor must be > 1");
  auto C = selectionOfKind(Target, StmtKind::For, "a loop");
  if (!C)
    return C.error();
  const ProcRef &P = Target.proc();
  OpContext Op(P, *C);
  StmtRef Loop = Op.stmt();
  if (Loop->lo()->kind() != ExprKind::Const || Loop->lo()->intValue() != 0)
    return makeError(Error::Kind::Scheduling,
                     "split requires a loop starting at 0");
  ExprRef Hi = Loop->hi();

  Sym Outer = Sym::fresh(OuterName);
  Sym Inner = Sym::fresh(InnerName);
  ExprRef OuterV = Expr::read(Outer, {}, Type(ScalarKind::Index));
  ExprRef InnerV = Expr::read(Inner, {}, Type(ScalarKind::Index));
  // i = Factor * io + ii.
  ExprRef Recombined = simplifyExpr(
      eAdd(eMul(litInt(Factor), OuterV), InnerV));
  SymSubst Map;
  Map[Loop->name()] = Recombined;
  Block NewInnerBody = substBlock(Loop->body(), Map);

  std::vector<StmtRef> Replacement;
  switch (Tail) {
  case SplitTail::Guard: {
    // for io in seq(0, (hi+f-1)/f): for ii in seq(0, f):
    //   if f*io + ii < hi: body
    ExprRef OuterHi = simplifyExpr(
        eDiv(eAdd(Hi, litInt(Factor - 1)), litInt(Factor)));
    Block Guarded = {Stmt::ifStmt(eLt(Recombined, Hi), NewInnerBody)};
    StmtRef InnerLoop =
        Stmt::forStmt(Inner, litInt(0), litInt(Factor), std::move(Guarded));
    Replacement.push_back(
        Stmt::forStmt(Outer, litInt(0), OuterHi, {InnerLoop}));
    break;
  }
  case SplitTail::Perfect: {
    // Prove f | hi under the path condition.
    const ContextInfo &Info = Op.info();
    EffInt HiV = Op.Ctx.liftControl(Hi, Info.Pre.Env);
    smt::TermRef Divides =
        smt::mkAnd(HiV.Def, smt::eq(smt::mod(HiV.Val, Factor),
                                    smt::intConst(0)));
    if (auto E = checkProved(Op.Ctx, Info.PathCond, Divides,
                             "for " + Loop->name().name() + " in _: _",
                             "split(perfect): cannot prove " +
                                 std::to_string(Factor) + " divides " +
                                 printExpr(Hi)))
      return *E;
    ExprRef OuterHi = simplifyExpr(eDiv(Hi, litInt(Factor)));
    StmtRef InnerLoop =
        Stmt::forStmt(Inner, litInt(0), litInt(Factor), NewInnerBody);
    Replacement.push_back(
        Stmt::forStmt(Outer, litInt(0), OuterHi, {InnerLoop}));
    break;
  }
  case SplitTail::Cut: {
    // Main loop over hi/f full tiles, then a tail loop of hi%f iterations.
    ExprRef OuterHi = simplifyExpr(eDiv(Hi, litInt(Factor)));
    StmtRef InnerLoop =
        Stmt::forStmt(Inner, litInt(0), litInt(Factor), NewInnerBody);
    Replacement.push_back(
        Stmt::forStmt(Outer, litInt(0), OuterHi, {InnerLoop}));
    Sym TailIter = Sym::fresh(InnerName);
    ExprRef TailIdx = simplifyExpr(
        eAdd(eMul(litInt(Factor), eDiv(Hi, litInt(Factor))),
             Expr::read(TailIter, {}, Type(ScalarKind::Index))));
    SymSubst TailMap;
    TailMap[Loop->name()] = TailIdx;
    Block TailBody = refreshBinders(substBlock(Loop->body(), TailMap));
    Replacement.push_back(Stmt::forStmt(
        TailIter, litInt(0), simplifyExpr(eMod(Hi, litInt(Factor))),
        std::move(TailBody)));
    break;
  }
  }
  return Op.derive(Replacement);
}

Expected<ProcRef> exo::scheduling::reorderLoops(const Cursor &Target) {
  ScopedOpName OpName(ops::Reorder);
  auto C = selectionOfKind(Target, StmtKind::For, "a loop");
  if (!C)
    return C.error();
  const ProcRef &P = Target.proc();
  OpContext Op(P, *C);
  StmtRef OuterLoop = Op.stmt();
  if (OuterLoop->body().size() != 1 ||
      OuterLoop->body()[0]->kind() != StmtKind::For)
    return makeError(Error::Kind::Scheduling,
                     "reorder: loop body must be exactly one nested loop");
  StmtRef InnerLoop = OuterLoop->body()[0];

  // Inner bounds must not depend on the outer iterator (otherwise the
  // iteration space is not rectangular).
  std::set<Sym> BoundVars = freeVars(InnerLoop->lo());
  std::set<Sym> HiVars = freeVars(InnerLoop->hi());
  if (BoundVars.count(OuterLoop->name()) || HiVars.count(OuterLoop->name()))
    return makeError(Error::Kind::Scheduling,
                     "reorder: inner bounds depend on the outer iterator");

  // §5.8 condition: any flipped iteration pair must commute.
  AnalysisCtx &Ctx = Op.Ctx;
  const ContextInfo &Info = Op.info();
  smt::TermRef X1 = smt::mkVar(smt::freshVar("x1", smt::Sort::Int));
  smt::TermRef Y1 = smt::mkVar(smt::freshVar("y1", smt::Sort::Int));
  smt::TermRef X2 = smt::mkVar(smt::freshVar("x2", smt::Sort::Int));
  smt::TermRef Y2 = smt::mkVar(smt::freshVar("y2", smt::Sort::Int));

  auto bodyEffects = [&](const smt::TermRef &XV, const smt::TermRef &YV) {
    FlowState State = Info.Pre;
    State.Env[OuterLoop->name()] = EffInt::known(XV);
    State.Env[InnerLoop->name()] = EffInt::known(YV);
    return extractBlock(Ctx, State, InnerLoop->body());
  };
  EffectSets A1 = bodyEffects(X1, Y1);
  EffectSets A2 = bodyEffects(X2, Y2);

  TriBool Premise = Info.PathCond;
  Premise = triAnd(Premise, loopBoundsPremise(Ctx, Info.Pre, OuterLoop->lo(),
                                              OuterLoop->hi(), X1));
  Premise = triAnd(Premise, loopBoundsPremise(Ctx, Info.Pre, OuterLoop->lo(),
                                              OuterLoop->hi(), X2));
  Premise = triAnd(Premise, loopBoundsPremise(Ctx, Info.Pre, InnerLoop->lo(),
                                              InnerLoop->hi(), Y1));
  Premise = triAnd(Premise, loopBoundsPremise(Ctx, Info.Pre, InnerLoop->lo(),
                                              InnerLoop->hi(), Y2));
  // Flipped pairs: x1 < x2 but y2 < y1.
  Premise = triAnd(Premise, TriBool::certain(smt::mkAnd(
                                smt::lt(X1, X2), smt::lt(Y2, Y1))));
  if (auto E = checkProved(Ctx, Premise, commutesCond(A1, A2),
                           "for " + OuterLoop->name().name() + " in _: for " +
                               InnerLoop->name().name() + " in _: _",
                           "reorder: loop iterations do not commute"))
    return *E;

  // The inner loop's bounds are re-evaluated per outer iteration; they
  // must commute with the body (relevant when bounds read configuration
  // state the body writes).
  EffectSets BoundReads =
      seqEffects(extractExprReads(Ctx, Info.Pre, InnerLoop->lo()),
                 extractExprReads(Ctx, Info.Pre, InnerLoop->hi()));
  if (auto E = checkProved(Ctx, Info.PathCond, commutesCond(BoundReads, A1),
                           "for " + InnerLoop->name().name() + " in _: _",
                           "reorder: inner bounds conflict with the body"))
    return *E;

  StmtRef NewInner = Stmt::forStmt(OuterLoop->name(), OuterLoop->lo(),
                                   OuterLoop->hi(), InnerLoop->body());
  StmtRef NewOuter = Stmt::forStmt(InnerLoop->name(), InnerLoop->lo(),
                                   InnerLoop->hi(), {NewInner});
  return Op.derive({NewOuter});
}

Expected<ProcRef> exo::scheduling::unrollLoop(const Cursor &Target) {
  ScopedOpName OpName(ops::Unroll);
  auto C = selectionOfKind(Target, StmtKind::For, "a loop");
  if (!C)
    return C.error();
  const ProcRef &P = Target.proc();
  OpContext Op(P, *C);
  StmtRef Loop = Op.stmt();
  ExprRef Lo = simplifyExpr(Loop->lo());
  ExprRef Hi = simplifyExpr(Loop->hi());
  if (Lo->kind() != ExprKind::Const || Hi->kind() != ExprKind::Const)
    return makeError(Error::Kind::Scheduling,
                     "unroll requires constant loop bounds");
  int64_t LoV = Lo->intValue(), HiV = Hi->intValue();
  if (HiV - LoV > 1024)
    return makeError(Error::Kind::Scheduling,
                     "unroll would create more than 1024 copies");
  std::vector<StmtRef> Replacement;
  for (int64_t I = LoV; I < HiV; ++I) {
    SymSubst Map;
    Map[Loop->name()] = litInt(I);
    Block Copy = refreshBinders(substBlock(Loop->body(), Map));
    for (auto &S : Copy)
      Replacement.push_back(S);
  }
  if (Replacement.empty())
    Replacement.push_back(Stmt::pass());
  return Op.derive(Replacement);
}

Expected<ProcRef> exo::scheduling::partitionLoop(const Cursor &Target,
                                                 int64_t Cut) {
  ScopedOpName OpName(ops::Partition);
  auto C = selectionOfKind(Target, StmtKind::For, "a loop");
  if (!C)
    return C.error();
  const ProcRef &P = Target.proc();
  OpContext Op(P, *C);
  StmtRef Loop = Op.stmt();

  const ContextInfo &Info = Op.info();
  EffInt LoV = Op.Ctx.liftControl(Loop->lo(), Info.Pre.Env);
  EffInt HiV = Op.Ctx.liftControl(Loop->hi(), Info.Pre.Env);
  smt::TermRef Fits = smt::mkAnd(
      smt::mkAnd(LoV.Def, HiV.Def),
      smt::le(smt::add(LoV.Val, smt::intConst(Cut)), HiV.Val));
  if (auto E = checkProved(Op.Ctx, Info.PathCond, Fits,
                           "for " + Loop->name().name() + " in _: _",
                           "partition_loop: cannot prove lo + " +
                               std::to_string(Cut) + " <= hi"))
    return *E;

  ExprRef Mid = simplifyExpr(eAdd(Loop->lo(), litInt(Cut)));
  Sym I1 = Loop->name().copy(), I2 = Loop->name().copy();
  SymSubst M1, M2;
  M1[Loop->name()] = Expr::read(I1, {}, Type(ScalarKind::Index));
  M2[Loop->name()] = Expr::read(I2, {}, Type(ScalarKind::Index));
  StmtRef L1 = Stmt::forStmt(I1, Loop->lo(), Mid,
                             refreshBinders(substBlock(Loop->body(), M1)));
  StmtRef L2 = Stmt::forStmt(I2, Mid, Loop->hi(),
                             refreshBinders(substBlock(Loop->body(), M2)));
  return Op.derive({L1, L2});
}

Expected<ProcRef> exo::scheduling::removeLoop(const Cursor &Target) {
  ScopedOpName OpName(ops::Remove);
  auto C = selectionOfKind(Target, StmtKind::For, "a loop");
  if (!C)
    return C.error();
  const ProcRef &P = Target.proc();
  OpContext Op(P, *C);
  StmtRef Loop = Op.stmt();
  if (freeVars(Loop->body()).count(Loop->name()))
    return makeError(Error::Kind::Scheduling,
                     "remove_loop: iterator occurs free in the body");

  AnalysisCtx &Ctx = Op.Ctx;
  const ContextInfo &Info = Op.info();
  // At least one iteration: lo < hi.
  EffInt LoV = Ctx.liftControl(Loop->lo(), Info.Pre.Env);
  EffInt HiV = Ctx.liftControl(Loop->hi(), Info.Pre.Env);
  smt::TermRef NonEmpty = smt::mkAnd(smt::mkAnd(LoV.Def, HiV.Def),
                                     smt::lt(LoV.Val, HiV.Val));
  if (auto E = checkProved(
          Ctx, Info.PathCond, NonEmpty,
          "for " + Loop->name().name() + " in _: _",
          "remove_loop: cannot prove the loop runs at least once"))
    return *E;

  // Idempotence: Shadows(a, a) for the body's effect (§5.8).
  FlowState S1 = Info.Pre;
  EffectSets A = extractBlock(Ctx, S1, Loop->body());
  FlowState S2 = Info.Pre;
  EffectSets A2 = extractBlock(Ctx, S2, Loop->body());
  if (auto E = checkProved(Ctx, Info.PathCond, shadowsCond(A, A2),
                           "for " + Loop->name().name() + " in _: _",
                           "remove_loop: body is not provably idempotent"))
    return *E;

  return Op.derive(Loop->body());
}

Expected<ProcRef> exo::scheduling::fuseLoops(const Cursor &Target) {
  ScopedOpName OpName(ops::Fuse);
  auto C = selectionOfKind(Target, StmtKind::For, "a loop");
  if (!C)
    return C.error();
  const ProcRef &P = Target.proc();
  const Block &B = blockAt(*P, *C);
  if (C->Begin + 1 >= B.size() ||
      B[C->Begin + 1]->kind() != StmtKind::For)
    return makeError(Error::Kind::Scheduling,
                     "fuse_loop: no adjacent loop after the match");
  StmtRef L1 = B[C->Begin];
  StmtRef L2 = B[C->Begin + 1];

  OpContext Op(P, *C);
  AnalysisCtx &Ctx = Op.Ctx;
  const ContextInfo &Info = Op.info();
  // Bounds must provably coincide.
  EffInt Lo1 = Ctx.liftControl(L1->lo(), Info.Pre.Env);
  EffInt Lo2 = Ctx.liftControl(L2->lo(), Info.Pre.Env);
  EffInt Hi1 = Ctx.liftControl(L1->hi(), Info.Pre.Env);
  EffInt Hi2 = Ctx.liftControl(L2->hi(), Info.Pre.Env);
  smt::TermRef SameBounds =
      smt::mkAnd({Lo1.Def, Lo2.Def, Hi1.Def, Hi2.Def,
                  smt::eq(Lo1.Val, Lo2.Val), smt::eq(Hi1.Val, Hi2.Val)});
  if (auto E = checkProved(Ctx, Info.PathCond, SameBounds,
                           "for " + L1->name().name() + " in _: _",
                           "fuse_loop: loop bounds are not provably equal"))
    return *E;

  // Flipped pairs: s2 at iteration x2 now precedes s1 at x1 for x2 < x1.
  if (!footprintsCommute(Info.Pre, L1->body(), L2->body())) {
    smt::TermRef X1 = smt::mkVar(smt::freshVar("x1", smt::Sort::Int));
    smt::TermRef X2 = smt::mkVar(smt::freshVar("x2", smt::Sort::Int));
    FlowState SA = Info.Pre;
    SA.Env[L1->name()] = EffInt::known(X1);
    EffectSets A1 = extractBlock(Ctx, SA, L1->body());
    FlowState SB = Info.Pre;
    SB.Env[L2->name()] = EffInt::known(X2);
    EffectSets A2 = extractBlock(Ctx, SB, L2->body());

    TriBool Premise = Info.PathCond;
    Premise = triAnd(Premise, loopBoundsPremise(Ctx, Info.Pre, L1->lo(),
                                                L1->hi(), X1));
    Premise = triAnd(Premise, loopBoundsPremise(Ctx, Info.Pre, L2->lo(),
                                                L2->hi(), X2));
    Premise = triAnd(Premise, TriBool::certain(smt::lt(X2, X1)));
    if (auto E = checkProved(Ctx, Premise, commutesCond(A1, A2),
                             "for " + L1->name().name() + " in _: _",
                             "fuse_loop: moved iterations do not commute"))
      return *E;
  }

  SymSubst Map;
  Map[L2->name()] =
      Expr::read(L1->name(), {}, Type(ScalarKind::Index));
  Block Fused = L1->body();
  Block Tail = refreshBinders(substBlock(L2->body(), Map));
  for (auto &S : Tail)
    Fused.push_back(S);
  StmtRef NewLoop = Stmt::forStmt(L1->name(), L1->lo(), L1->hi(), Fused);
  StmtCursor Two = *C;
  Two.End = C->Begin + 2;
  return deriveProc(P, replaceRange(P->body(), Two, {NewLoop}), Two, 1);
}

Expected<ProcRef> exo::scheduling::liftIf(const Cursor &Target) {
  ScopedOpName OpName(ops::LiftIf);
  auto C = selectionOfKind(Target, StmtKind::If, "an if");
  if (!C)
    return C.error();
  const ProcRef &P = Target.proc();
  if (C->Path.empty())
    return makeError(Error::Kind::Scheduling,
                     "lift_if: the if has no enclosing statement");
  StmtRef If = selectedStmts(*P, *C)[0];

  // The parent must be a loop whose body is exactly this if.
  StmtCursor ParentCur;
  ParentCur.Path.assign(C->Path.begin(), C->Path.end() - 1);
  ParentCur.Begin = C->Path.back().Index;
  ParentCur.End = ParentCur.Begin + 1;
  StmtRef Parent = selectedStmts(*P, ParentCur)[0];
  if (Parent->kind() != StmtKind::For || Parent->body().size() != 1)
    return makeError(Error::Kind::Scheduling,
                     "lift_if: parent must be a loop containing only the if");
  if (freeVars(If->rhs()).count(Parent->name()))
    return makeError(Error::Kind::Scheduling,
                     "lift_if: condition depends on the loop iterator");

  StmtRef ThenLoop =
      Stmt::forStmt(Parent->name(), Parent->lo(), Parent->hi(), If->body());
  Block Orelse;
  if (!If->orelse().empty()) {
    Sym Fresh = Parent->name().copy();
    SymSubst Map;
    Map[Parent->name()] = Expr::read(Fresh, {}, Type(ScalarKind::Index));
    Orelse = {Stmt::forStmt(Fresh, Parent->lo(), Parent->hi(),
                            refreshBinders(substBlock(If->orelse(), Map)))};
  }
  StmtRef NewIf = Stmt::ifStmt(If->rhs(), {ThenLoop}, std::move(Orelse));
  return deriveProc(P, replaceRange(P->body(), ParentCur, {NewIf}), ParentCur,
                    1);
}
