//===- analysis/Context.cpp ------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/Context.h"

#include "support/Error.h"

#include <functional>

using namespace exo;
using namespace exo::analysis;
using namespace exo::ir;

const Block &exo::analysis::blockAt(const Proc &P, const StmtCursor &C) {
  const Block *B = &P.body();
  for (const PathStep &Step : C.Path) {
    if (Step.Index >= B->size())
      fatalError("blockAt: path index out of range");
    const StmtRef &S = (*B)[Step.Index];
    B = Step.Into == PathStep::Branch::Body ? &S->body() : &S->orelse();
  }
  if (C.End > B->size() || C.Begin > C.End)
    fatalError("blockAt: selection out of range");
  return *B;
}

std::vector<StmtRef> exo::analysis::selectedStmts(const Proc &P,
                                                  const StmtCursor &C) {
  const Block &B = blockAt(P, C);
  return std::vector<StmtRef>(B.begin() + C.Begin, B.begin() + C.End);
}

namespace {

Block replaceRangeImpl(const Block &B, const StmtCursor &C, unsigned Depth,
                       const std::vector<StmtRef> &NewStmts) {
  Block Out = B;
  if (Depth == C.Path.size()) {
    Out.erase(Out.begin() + C.Begin, Out.begin() + C.End);
    Out.insert(Out.begin() + C.Begin, NewStmts.begin(), NewStmts.end());
    return Out;
  }
  const PathStep &Step = C.Path[Depth];
  const StmtRef &S = B[Step.Index];
  if (S->kind() == StmtKind::For) {
    assert(Step.Into == PathStep::Branch::Body && "orelse of a loop");
    Out[Step.Index] = withForParts(
        S, S->lo(), S->hi(), replaceRangeImpl(S->body(), C, Depth + 1,
                                              NewStmts));
  } else if (S->kind() == StmtKind::If) {
    if (Step.Into == PathStep::Branch::Body)
      Out[Step.Index] = withIfParts(
          S, S->rhs(), replaceRangeImpl(S->body(), C, Depth + 1, NewStmts),
          S->orelse());
    else
      Out[Step.Index] = withIfParts(
          S, S->rhs(), S->body(),
          replaceRangeImpl(S->orelse(), C, Depth + 1, NewStmts));
  } else {
    fatalError("replaceRange: path descends into a leaf statement");
  }
  return Out;
}

} // namespace

Block exo::analysis::replaceRange(const Block &Body, const StmtCursor &C,
                                  const std::vector<StmtRef> &NewStmts) {
  return replaceRangeImpl(Body, C, 0, NewStmts);
}

void exo::analysis::collectConfigReads(const StmtRef &S,
                                       std::set<Sym> &Out) {
  // Expression-level reads.
  std::function<void(const ExprRef &)> Walk = [&](const ExprRef &E) {
    if (!E)
      return;
    if (E->kind() == ExprKind::ReadConfig)
      Out.insert(E->field());
    for (auto &C : childExprs(E))
      Walk(C);
  };
  for (auto &I : S->indices())
    Walk(I);
  if (S->Rhs)
    Walk(S->Rhs);
  if (S->kind() == StmtKind::For) {
    Walk(S->lo());
    Walk(S->hi());
  }
  if (S->kind() == StmtKind::Alloc)
    for (auto &D : S->allocType().dims())
      Walk(D);
  if (S->kind() == StmtKind::Call)
    collectConfigReads(S->proc()->body(), Out);
  collectConfigReads(S->body(), Out);
  collectConfigReads(S->orelse(), Out);
}

void exo::analysis::collectConfigReads(const Block &B, std::set<Sym> &Out) {
  for (auto &S : B)
    collectConfigReads(S, Out);
}

namespace {

void collectConfigWritesStmt(const StmtRef &S, std::set<Sym> &Out) {
  if (S->kind() == StmtKind::WriteConfig)
    Out.insert(S->field());
  if (S->kind() == StmtKind::Call)
    collectConfigWrites(S->proc()->body(), Out);
  collectConfigWrites(S->body(), Out);
  collectConfigWrites(S->orelse(), Out);
}

} // namespace

void exo::analysis::collectConfigWrites(const Block &B, std::set<Sym> &Out) {
  for (auto &S : B)
    collectConfigWritesStmt(S, Out);
}

WindowBases exo::analysis::windowBasesAt(const Proc &P, const StmtCursor &C) {
  WindowBases Bases;
  const Block *B = &P.body();
  for (size_t Depth = 0;; ++Depth) {
    unsigned Stop = Depth < C.Path.size() ? C.Path[Depth].Index : C.Begin;
    if (Stop > B->size() || (Depth < C.Path.size() && Stop >= B->size()))
      fatalError("windowBasesAt: cursor path out of range");
    for (unsigned I = 0; I < Stop; ++I) {
      const StmtRef &S = (*B)[I];
      if (S->kind() != StmtKind::WindowStmt)
        continue;
      Sym Viewed = S->rhs()->name();
      auto It = Bases.find(Viewed);
      Bases[S->name()] = It == Bases.end() ? Viewed : It->second;
    }
    if (Depth == C.Path.size())
      return Bases;
    const StmtRef &S = (*B)[C.Path[Depth].Index];
    B = C.Path[Depth].Into == PathStep::Branch::Body ? &S->body()
                                                     : &S->orelse();
  }
}

ContextInfo exo::analysis::computeContext(AnalysisCtx &Ctx, const Proc &P,
                                          const StmtCursor &C) {
  ContextInfo Info;

  auto AddCfg = [&](const StmtRef &S) {
    collectConfigReads(S, Info.PostReadFields);
    collectConfigWrites({S}, Info.PostWriteFields);
  };

  // Asserted preconditions strengthen the path condition (§3.1 item 6).
  for (auto &Pred : P.preds())
    Info.PathCond = triAnd(Info.PathCond, Ctx.liftBool(Pred, Info.Pre.Env));

  const Block *B = &P.body();
  // Collect post-context fields: trailing statements at every level, plus
  // everything inside the outermost enclosing loop (later iterations
  // re-execute the siblings that precede the selection).
  bool SawLoop = false;

  for (size_t Depth = 0; Depth <= C.Path.size(); ++Depth) {
    unsigned Stop = Depth < C.Path.size() ? C.Path[Depth].Index : C.Begin;
    if (Stop > B->size() || (Depth < C.Path.size() && Stop >= B->size()))
      fatalError("computeContext: cursor path out of range");
    // Flow through the preceding statements of this level.
    for (unsigned I = 0; I < Stop; ++I) {
      flowStmt(Ctx, Info.Pre, (*B)[I]);
      if (SawLoop)
        AddCfg((*B)[I]);
    }
    // Trailing statements at this level execute after the selection.
    unsigned After = Depth < C.Path.size() ? C.Path[Depth].Index + 1 : C.End;
    for (unsigned I = After; I < B->size(); ++I)
      AddCfg((*B)[I]);
    if (Depth == C.Path.size())
      break;

    const StmtRef &S = (*B)[C.Path[Depth].Index];
    if (S->kind() == StmtKind::For) {
      Info.EnclosingLoops.push_back(S);
      if (!SawLoop) {
        SawLoop = true;
        // All of this loop's body may re-execute after the selection; the
        // deeper walk adds the preceding/trailing parts, and the selection
        // itself is added conservatively here by including the full
        // subtree minus nothing — simpler and sound.
        for (auto &Child : S->body())
          AddCfg(Child);
      }
      // Entering the loop at an arbitrary iteration: stabilize globals and
      // bind the iterator to a fresh variable constrained by its bounds.
      EffInt Lo = Ctx.liftControl(S->lo(), Info.Pre.Env);
      EffInt Hi = Ctx.liftControl(S->hi(), Info.Pre.Env);
      FlowState Probe = Info.Pre;
      Probe.Env[S->name()] = Ctx.unknownInt();
      flowBlock(Ctx, Probe, S->body());
      Probe.Env.erase(S->name());
      havocKeys(Ctx, Info.Pre.Env, changedKeys(Info.Pre.Env, Probe.Env));
      // Use the symbol's canonical solver variable so downstream passes
      // (notably unification) can render solutions back to expressions.
      smt::TermVar X = Ctx.varFor(S->name());
      EffInt XV = EffInt::known(smt::mkVar(X));
      Info.Pre.Env[S->name()] = XV;
      Info.PathCond = triAnd(
          Info.PathCond, triAnd(triCmp(BinOpKind::Le, Lo, XV),
                                triCmp(BinOpKind::Lt, XV, Hi)));
    } else if (S->kind() == StmtKind::If) {
      TriBool Cond = Ctx.liftBool(S->rhs(), Info.Pre.Env);
      if (C.Path[Depth].Into == PathStep::Branch::Body)
        Info.PathCond = triAnd(Info.PathCond, Cond);
      else
        Info.PathCond = triAnd(Info.PathCond, triNot(Cond));
    } else {
      fatalError("computeContext: path descends into a leaf statement");
    }
    B = C.Path[Depth].Into == PathStep::Branch::Body ? &S->body()
                                                     : &S->orelse();
  }
  return Info;
}
