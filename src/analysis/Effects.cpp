//===- analysis/Effects.cpp ------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/Effects.h"

using namespace exo;
using namespace exo::analysis;
using namespace exo::ir;

EffectSets exo::analysis::seqEffects(const EffectSets &A, const EffectSets &B) {
  EffectSets Out;
  Out.RdG = LocSet::unionOf(A.RdG, LocSet::diffOf(B.RdG, A.WrG));
  Out.WrG = LocSet::unionOf(A.WrG, B.WrG);
  Out.RdH = LocSet::unionOf(
      A.RdH, LocSet::diffOf(LocSet::diffOf(B.RdH, A.WrH), A.Al));
  Out.WrH = LocSet::unionOf(A.WrH, LocSet::diffOf(B.WrH, A.Al));
  Out.RpH = LocSet::unionOf(A.RpH, LocSet::diffOf(B.RpH, A.Al));
  Out.Al = LocSet::unionOf(A.Al, B.Al);
  return Out;
}

EffectSets exo::analysis::guardEffects(const TriBool &P, const EffectSets &A) {
  EffectSets Out;
  Out.RdG = LocSet::filter(P, A.RdG);
  Out.WrG = LocSet::filter(P, A.WrG);
  Out.RdH = LocSet::filter(P, A.RdH);
  Out.WrH = LocSet::filter(P, A.WrH);
  Out.RpH = LocSet::filter(P, A.RpH);
  Out.Al = LocSet::filter(P, A.Al);
  return Out;
}

EffectSets exo::analysis::loopEffects(const smt::TermVar &X,
                                      const EffectSets &A) {
  EffectSets Out;
  Out.RdG = LocSet::bigUnion(X, A.RdG);
  Out.WrG = LocSet::bigUnion(X, A.WrG);
  Out.RdH = LocSet::bigUnion(X, A.RdH);
  Out.WrH = LocSet::bigUnion(X, A.WrH);
  Out.RpH = LocSet::bigUnion(X, A.RpH);
  Out.Al = LocSet::bigUnion(X, A.Al);
  return Out;
}

namespace {

/// Collects read locations of an expression into \p Out.
void collectReads(AnalysisCtx &Ctx, const FlowState &State, const ExprRef &E,
                  std::vector<LocSetRef> &Heap, std::vector<LocSetRef> &Glob) {
  switch (E->kind()) {
  case ExprKind::Read: {
    // Index expressions first (control; may read configs).
    for (auto &I : E->args())
      collectReads(Ctx, State, I, Heap, Glob);
    if (E->type().isData()) {
      std::vector<EffInt> Coords;
      Coords.reserve(E->args().size());
      for (auto &I : E->args())
        Coords.push_back(Ctx.liftControl(I, State.Env));
      auto [Base, Resolved] =
          resolveLocation(State, E->name(), std::move(Coords));
      Heap.push_back(LocSet::single(Base, std::move(Resolved)));
    }
    return;
  }
  case ExprKind::ReadConfig:
    Glob.push_back(LocSet::single(E->field(), {}));
    return;
  case ExprKind::Const:
  case ExprKind::StrideExpr:
    return;
  case ExprKind::WindowExpr:
    for (auto &C : E->winCoords()) {
      collectReads(Ctx, State, C.Lo, Heap, Glob);
      if (C.Hi)
        collectReads(Ctx, State, C.Hi, Heap, Glob);
    }
    return;
  case ExprKind::USub:
  case ExprKind::BinOp:
  case ExprKind::BuiltIn:
    for (auto &A : E->args())
      collectReads(Ctx, State, A, Heap, Glob);
    return;
  }
}

} // namespace

EffectSets exo::analysis::extractExprReads(AnalysisCtx &Ctx,
                                           const FlowState &State,
                                           const ExprRef &E) {
  std::vector<LocSetRef> Heap, Glob;
  collectReads(Ctx, State, E, Heap, Glob);
  EffectSets Out;
  Out.RdH = LocSet::unionOf(std::move(Heap));
  Out.RdG = LocSet::unionOf(std::move(Glob));
  return Out;
}

/// The Def 5.4/5.5 recursion.
EffectSets exo::analysis::extractStmt(AnalysisCtx &Ctx, FlowState &State,
                                      const StmtRef &S) {
  switch (S->kind()) {
  case StmtKind::Pass:
    return EffectSets();
  case StmtKind::Assign:
  case StmtKind::Reduce: {
    EffectSets Reads;
    for (auto &I : S->indices())
      Reads = seqEffects(Reads, extractExprReads(Ctx, State, I));
    Reads = seqEffects(Reads, extractExprReads(Ctx, State, S->rhs()));
    std::vector<EffInt> Coords;
    Coords.reserve(S->indices().size());
    for (auto &I : S->indices())
      Coords.push_back(Ctx.liftControl(I, State.Env));
    auto [Base, Resolved] =
        resolveLocation(State, S->name(), std::move(Coords));
    EffectSets Access;
    if (S->kind() == StmtKind::Assign)
      Access.WrH = LocSet::single(Base, std::move(Resolved));
    else
      Access.RpH = LocSet::single(Base, std::move(Resolved));
    return seqEffects(Reads, Access);
  }
  case StmtKind::WriteConfig: {
    EffectSets Reads = extractExprReads(Ctx, State, S->rhs());
    EffectSets Write;
    Write.WrG = LocSet::single(S->field(), {});
    EffectSets Out = seqEffects(Reads, Write);
    flowStmt(Ctx, State, S); // update γ
    return Out;
  }
  case StmtKind::WindowStmt: {
    EffectSets Reads = extractExprReads(Ctx, State, S->rhs());
    flowStmt(Ctx, State, S); // record the alias
    return Reads;
  }
  case StmtKind::Alloc: {
    EffectSets Out;
    Out.Al = LocSet::single(S->name(), {});
    return Out;
  }
  case StmtKind::If: {
    TriBool Cond = Ctx.liftBool(S->rhs(), State.Env);
    EffectSets CondReads = extractExprReads(Ctx, State, S->rhs());
    FlowState ThenState = State, ElseState = State;
    EffectSets ThenEff = extractBlock(Ctx, ThenState, S->body());
    EffectSets ElseEff = extractBlock(Ctx, ElseState, S->orelse());
    EffectSets Out = seqEffects(
        CondReads, seqEffects(guardEffects(Cond, ThenEff),
                              guardEffects(triNot(Cond), ElseEff)));
    // Merge the flow states via flowStmt (recomputed, but keeps the merge
    // logic in one place).
    flowStmt(Ctx, State, S);
    return Out;
  }
  case StmtKind::For: {
    EffectSets BoundReads =
        seqEffects(extractExprReads(Ctx, State, S->lo()),
                   extractExprReads(Ctx, State, S->hi()));
    EffInt Lo = Ctx.liftControl(S->lo(), State.Env);
    EffInt Hi = Ctx.liftControl(S->hi(), State.Env);

    // Stabilize globals (§5.3) before extracting the body's effect, so
    // coordinates do not use stale first-iteration values.
    FlowState Probe = State;
    Probe.Env[S->name()] = Ctx.unknownInt();
    flowBlock(Ctx, Probe, S->body());
    Probe.Env.erase(S->name());
    std::vector<ir::Sym> Changed = changedKeys(State.Env, Probe.Env);
    FlowState BodyState = State;
    havocKeys(Ctx, BodyState.Env, Changed);

    // Per-node iteration variable (an alpha choice): within one context
    // the same For node always quantifies over the same variable, which is
    // what makes its summaries, and the queries posed over them,
    // reproducible.
    smt::TermVar X = Ctx.loopVar(S);
    BodyState.Env[S->name()] = EffInt::known(smt::mkVar(X));
    EffectSets BodyEff = extractBlock(Ctx, BodyState, S->body());
    TriBool InBounds =
        triAnd(triCmp(BinOpKind::Le, Lo, EffInt::known(smt::mkVar(X))),
               triCmp(BinOpKind::Lt, EffInt::known(smt::mkVar(X)), Hi));
    EffectSets Looped = loopEffects(X, guardEffects(InBounds, BodyEff));

    // Post-loop state: changed globals are unknown.
    havocKeys(Ctx, State.Env, Changed);
    return seqEffects(BoundReads, Looped);
  }
  case StmtKind::Call: {
    Block Body = substitutedCalleeBody(S);
    return extractBlock(Ctx, State, Body);
  }
  }
  return EffectSets();
}

EffectSets exo::analysis::extractBlock(AnalysisCtx &Ctx, FlowState &State,
                                       const Block &B) {
  EffectSets Out;
  for (auto &S : B)
    Out = seqEffects(Out, extractStmt(Ctx, State, S));
  return Out;
}
