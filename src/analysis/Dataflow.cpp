//===- analysis/Dataflow.cpp -----------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"

#include "ir/Subst.h"

#include <algorithm>

using namespace exo;
using namespace exo::analysis;
using namespace exo::ir;

std::pair<Sym, std::vector<EffInt>>
exo::analysis::resolveLocation(const FlowState &State, Sym Name,
                               std::vector<EffInt> Coords) {
  auto It = State.Aliases.find(Name);
  if (It == State.Aliases.end())
    return {Name, std::move(Coords)};
  const AliasInfo &A = It->second;
  std::vector<EffInt> Out;
  Out.reserve(A.Coords.size());
  size_t Next = 0;
  for (const AliasCoord &C : A.Coords) {
    if (!C.IsInterval) {
      Out.push_back(C.Lo);
      continue;
    }
    assert(Next < Coords.size() && "alias rank mismatch");
    EffInt Idx = Coords[Next++];
    Out.push_back({smt::add(C.Lo.Val, Idx.Val), smt::mkAnd(C.Lo.Def, Idx.Def)});
  }
  assert(Next == Coords.size() && "alias rank mismatch");
  // Aliases are stored base-resolved, so one hop suffices.
  return {A.Base, std::move(Out)};
}

std::vector<Sym> exo::analysis::changedKeys(const EffEnv &Before,
                                            const EffEnv &After) {
  std::vector<Sym> Changed;
  for (auto &[Key, Val] : After) {
    auto It = Before.find(Key);
    if (It == Before.end() || !It->second.Val->equals(*Val.Val) ||
        !It->second.Def->equals(*Val.Def))
      Changed.push_back(Key);
  }
  for (auto &[Key, Val] : Before)
    if (!After.count(Key))
      Changed.push_back(Key);
  return Changed;
}

void exo::analysis::havocKeys(AnalysisCtx &Ctx, EffEnv &Env,
                              const std::vector<Sym> &Keys) {
  for (Sym K : Keys)
    Env[K] = Ctx.unknownInt();
}

Block exo::analysis::substitutedCalleeBody(const StmtRef &CallStmt) {
  assert(CallStmt->kind() == StmtKind::Call && "not a call");
  const ProcRef &Callee = CallStmt->proc();
  SymSubst Map;
  const auto &Params = Callee->args();
  const auto &Args = CallStmt->args();
  assert(Params.size() == Args.size() && "call arity mismatch");
  for (size_t I = 0; I < Params.size(); ++I)
    Map[Params[I].Name] = Args[I];
  return refreshBinders(substBlock(Callee->body(), Map));
}

bool exo::analysis::isStateInvariant(const StmtRef &S) {
  // Only If/For have statement children, and the three state-touching
  // kinds poison the whole subtree.
  switch (S->kind()) {
  case StmtKind::WriteConfig:
  case StmtKind::WindowStmt:
  case StmtKind::Call:
    return false;
  case StmtKind::If:
    return std::all_of(S->body().begin(), S->body().end(), isStateInvariant) &&
           std::all_of(S->orelse().begin(), S->orelse().end(),
                       isStateInvariant);
  case StmtKind::For:
    return std::all_of(S->body().begin(), S->body().end(), isStateInvariant);
  default:
    return true;
  }
}

void exo::analysis::flowStmt(AnalysisCtx &Ctx, FlowState &State,
                             const StmtRef &S) {
  // State-invariant subtrees (no WriteConfig/WindowStmt/Call anywhere
  // inside) are identities on the flow state: skip the If/For recursion
  // below.
  if (isStateInvariant(S))
    return;
  switch (S->kind()) {
  case StmtKind::Assign:
  case StmtKind::Reduce:
  case StmtKind::Pass:
  case StmtKind::Alloc:
    return; // data state is not tracked by ValG
  case StmtKind::WriteConfig:
    State.Env[S->field()] = Ctx.liftControl(S->rhs(), State.Env);
    return;
  case StmtKind::WindowStmt: {
    const ExprRef &W = S->rhs();
    std::vector<AliasCoord> Coords;
    for (const WinCoord &C : W->winCoords())
      Coords.push_back({C.IsInterval, Ctx.liftControl(C.Lo, State.Env)});
    // Resolve through an existing alias so the stored base is physical.
    auto It = State.Aliases.find(W->name());
    if (It == State.Aliases.end()) {
      State.Aliases[S->name()] = {W->name(), std::move(Coords)};
      return;
    }
    const AliasInfo &Inner = It->second;
    std::vector<AliasCoord> Composed;
    size_t Next = 0;
    for (const AliasCoord &C : Inner.Coords) {
      if (!C.IsInterval) {
        Composed.push_back(C);
        continue;
      }
      assert(Next < Coords.size() && "window alias rank mismatch");
      const AliasCoord &O = Coords[Next++];
      Composed.push_back(
          {O.IsInterval,
           {smt::add(C.Lo.Val, O.Lo.Val), smt::mkAnd(C.Lo.Def, O.Lo.Def)}});
    }
    State.Aliases[S->name()] = {Inner.Base, std::move(Composed)};
    return;
  }
  case StmtKind::If: {
    TriBool Cond = Ctx.liftBool(S->rhs(), State.Env);
    FlowState ThenState = State, ElseState = State;
    flowBlock(Ctx, ThenState, S->body());
    flowBlock(Ctx, ElseState, S->orelse());
    // Merge: identical values survive; a fully-known condition merges with
    // ite; otherwise the global becomes unknown.
    bool CondKnown = Cond.Must->equals(*Cond.May);
    EffEnv Merged;
    for (auto &[Key, TVal] : ThenState.Env) {
      auto It = ElseState.Env.find(Key);
      EffInt EVal = It != ElseState.Env.end()
                        ? It->second
                        : EffInt::known(smt::mkVar(Ctx.varFor(Key)));
      if (TVal.Val->equals(*EVal.Val) && TVal.Def->equals(*EVal.Def)) {
        Merged[Key] = TVal;
      } else if (CondKnown) {
        Merged[Key] = {smt::ite(Cond.May, TVal.Val, EVal.Val),
                       smt::ite(Cond.May, TVal.Def, EVal.Def)};
      } else {
        Merged[Key] = Ctx.unknownInt();
      }
    }
    for (auto &[Key, EVal] : ElseState.Env)
      if (!Merged.count(Key)) {
        // Key only changed in the else branch.
        EffInt TVal = EffInt::known(smt::mkVar(Ctx.varFor(Key)));
        auto It = State.Env.find(Key);
        if (It != State.Env.end())
          TVal = It->second;
        if (EVal.Val->equals(*TVal.Val) && EVal.Def->equals(*TVal.Def))
          Merged[Key] = EVal;
        else if (CondKnown)
          Merged[Key] = {smt::ite(Cond.May, TVal.Val, EVal.Val),
                         smt::ite(Cond.May, TVal.Def, EVal.Def)};
        else
          Merged[Key] = Ctx.unknownInt();
      }
    State.Env = std::move(Merged);
    // Aliases bound inside branches are out of scope afterwards.
    return;
  }
  case StmtKind::For: {
    // Stabilization heuristic (§5.3): run the body symbolically once; any
    // global that does not provably return to its entry value is ⊥ both
    // inside subsequent analysis and after the loop.
    FlowState BodyState = State;
    BodyState.Env[S->name()] = Ctx.unknownInt(); // some iteration
    flowBlock(Ctx, BodyState, S->body());
    BodyState.Env.erase(S->name());
    havocKeys(Ctx, State.Env, changedKeys(State.Env, BodyState.Env));
    return;
  }
  case StmtKind::Call: {
    // A callee body of state-invariant statements (a data instruction:
    // no config write, window or nested call) flows as the identity, so
    // skip the substitution and binder refresh that inlining it costs.
    const Block &Callee = S->proc()->body();
    if (std::all_of(Callee.begin(), Callee.end(), isStateInvariant))
      return;
    Block Body = substitutedCalleeBody(S);
    flowBlock(Ctx, State, Body);
    return;
  }
  }
}

void exo::analysis::flowBlock(AnalysisCtx &Ctx, FlowState &State,
                              const Block &B) {
  for (auto &S : B)
    flowStmt(Ctx, State, S);
}
