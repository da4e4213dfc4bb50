//===- analysis/EffExpr.cpp ------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/EffExpr.h"

#include <cassert>

using namespace exo;
using namespace exo::analysis;
using namespace exo::smt;
using ir::BinOpKind;
using ir::ExprKind;

TriBool exo::analysis::triAnd(const TriBool &A, const TriBool &B) {
  return {mkAnd(A.Must, B.Must), mkAnd(A.May, B.May)};
}

TriBool exo::analysis::triOr(const TriBool &A, const TriBool &B) {
  return {mkOr(A.Must, B.Must), mkOr(A.May, B.May)};
}

TriBool exo::analysis::triNot(const TriBool &A) {
  return {mkNot(A.May), mkNot(A.Must)};
}

TriBool exo::analysis::triImplies(const TriBool &A, const TriBool &B) {
  return triOr(triNot(A), B);
}

TriBool exo::analysis::triExists(const TermVar &V, const TriBool &A) {
  return {exists(V, A.Must), exists(V, A.May)};
}

TriBool exo::analysis::triForall(const TermVar &V, const TriBool &A) {
  return {forall(V, A.Must), forall(V, A.May)};
}

TriBool exo::analysis::triCmp(BinOpKind Op, const EffInt &A, const EffInt &B) {
  TermRef Cmp;
  switch (Op) {
  case BinOpKind::Eq:
    Cmp = eq(A.Val, B.Val);
    break;
  case BinOpKind::Ne:
    Cmp = ne(A.Val, B.Val);
    break;
  case BinOpKind::Lt:
    Cmp = lt(A.Val, B.Val);
    break;
  case BinOpKind::Gt:
    Cmp = gt(A.Val, B.Val);
    break;
  case BinOpKind::Le:
    Cmp = le(A.Val, B.Val);
    break;
  case BinOpKind::Ge:
    Cmp = ge(A.Val, B.Val);
    break;
  default:
    fatalError("triCmp: not a comparison");
  }
  TermRef BothKnown = mkAnd(A.Def, B.Def);
  return {mkAnd(BothKnown, Cmp), mkOr(mkNot(BothKnown), Cmp)};
}

TriBool exo::analysis::triEq(const EffInt &A, const EffInt &B) {
  return triCmp(BinOpKind::Eq, A, B);
}

TermVar AnalysisCtx::varFor(ir::Sym S) {
  auto It = Vars.find(S);
  if (It != Vars.end())
    return It->second;
  TermVar V = freshVar(S.name(), Sort::Int);
  Vars.emplace(S, V);
  VarSyms.emplace(V.Id, S);
  return V;
}

std::optional<ir::Sym> AnalysisCtx::symFor(unsigned VarId) const {
  auto It = VarSyms.find(VarId);
  if (It == VarSyms.end())
    return std::nullopt;
  return It->second;
}

TermRef AnalysisCtx::strideValue(ir::Sym Buffer, unsigned Dim) {
  auto Key = std::make_pair(Buffer, Dim);
  auto It = Strides.find(Key);
  if (It != Strides.end())
    return It->second;
  TermRef V = mkVar(freshVar(Buffer.name() + "_stride" + std::to_string(Dim),
                             Sort::Int));
  Strides.emplace(Key, V);
  StrideSyms.emplace(V->var().Id, Key);
  return V;
}

std::optional<std::pair<ir::Sym, unsigned>>
AnalysisCtx::strideFor(unsigned VarId) const {
  auto It = StrideSyms.find(VarId);
  if (It == StrideSyms.end())
    return std::nullopt;
  return It->second;
}

TermVar AnalysisCtx::loopVar(const ir::StmtRef &For) {
  assert(For->kind() == ir::StmtKind::For && "not a For statement");
  auto It = LoopVars.find(For.get());
  if (It != LoopVars.end())
    return It->second.second;
  TermVar V = freshVar(For->name().name(), Sort::Int);
  LoopVars.emplace(For.get(), std::make_pair(For, V));
  return V;
}

EffInt AnalysisCtx::unknownInt() {
  return {mkVar(freshVar("unk", Sort::Int)), mkFalse()};
}

EffInt AnalysisCtx::liftControl(const ir::ExprRef &E, const EffEnv &Env) {
  if (!E->type().isControl()) // data values are not lifted
    return unknownInt();
  switch (E->kind()) {
  case ExprKind::Const:
    if (E->type().elem() == ir::ScalarKind::Bool)
      return EffInt::known(intConst(E->boolValue() ? 1 : 0));
    return EffInt::known(intConst(E->intValue()));
  case ExprKind::Read: {
    if (!E->args().empty())
      return unknownInt(); // control arrays do not exist; be safe
    auto It = Env.find(E->name());
    if (It != Env.end())
      return It->second;
    return EffInt::known(mkVar(varFor(E->name())));
  }
  case ExprKind::ReadConfig: {
    auto It = Env.find(E->field());
    if (It != Env.end())
      return It->second;
    return EffInt::known(mkVar(varFor(E->field())));
  }
  case ExprKind::StrideExpr:
    return EffInt::known(strideValue(E->name(), E->strideDim()));
  case ExprKind::USub: {
    EffInt A = liftControl(E->args()[0], Env);
    return {neg(A.Val), A.Def};
  }
  case ExprKind::BinOp: {
    BinOpKind Op = E->binOp();
    if (ir::isCompareOp(Op) || Op == BinOpKind::And || Op == BinOpKind::Or) {
      // Boolean in integer position: encode as 0/1.
      TriBool B = liftBool(E, Env);
      // Known iff D and M agree; value is M (== D where known).
      return {ite(B.May, intConst(1), intConst(0)), iff(B.Must, B.May)};
    }
    EffInt A = liftControl(E->args()[0], Env);
    EffInt B = liftControl(E->args()[1], Env);
    TermRef Def = mkAnd(A.Def, B.Def);
    switch (Op) {
    case BinOpKind::Add:
      return {add(A.Val, B.Val), Def};
    case BinOpKind::Sub:
      return {sub(A.Val, B.Val), Def};
    case BinOpKind::Mul:
      // Quasi-affine: one side must be a literal.
      if (A.Val->kind() == TermKind::IntConst)
        return {mul(A.Val->intValue(), B.Val), Def};
      if (B.Val->kind() == TermKind::IntConst)
        return {mul(B.Val->intValue(), A.Val), Def};
      return unknownInt();
    case BinOpKind::Div:
      if (B.Val->kind() == TermKind::IntConst && B.Val->intValue() > 0)
        return {div(A.Val, B.Val->intValue()), Def};
      return unknownInt();
    case BinOpKind::Mod:
      if (B.Val->kind() == TermKind::IntConst && B.Val->intValue() > 0)
        return {mod(A.Val, B.Val->intValue()), Def};
      return unknownInt();
    default:
      return unknownInt();
    }
  }
  default:
    return unknownInt();
  }
}

TriBool AnalysisCtx::liftBool(const ir::ExprRef &E, const EffEnv &Env) {
  switch (E->kind()) {
  case ExprKind::Const:
    if (E->type().elem() == ir::ScalarKind::Bool)
      return E->boolValue() ? TriBool::yes() : TriBool::no();
    return TriBool::unknown();
  case ExprKind::BinOp: {
    BinOpKind Op = E->binOp();
    if (Op == BinOpKind::And)
      return triAnd(liftBool(E->args()[0], Env), liftBool(E->args()[1], Env));
    if (Op == BinOpKind::Or)
      return triOr(liftBool(E->args()[0], Env), liftBool(E->args()[1], Env));
    if (ir::isCompareOp(Op))
      return triCmp(Op, liftControl(E->args()[0], Env),
                    liftControl(E->args()[1], Env));
    return TriBool::unknown();
  }
  case ExprKind::Read:
  case ExprKind::ReadConfig: {
    // A boolean variable: 0/1-encoded integer.
    EffInt V = liftControl(E, Env);
    return triCmp(BinOpKind::Ge, V, EffInt::known(intConst(1)));
  }
  default:
    return TriBool::unknown();
  }
}

SolverResult AnalysisCtx::checkDefinitely(const TriBool &P) {
  return TheSolver.checkValid(P.Must);
}

SolverResult AnalysisCtx::checkDefinitely(const TriBool &Premise,
                                          const TriBool &P) {
  // Conservative strengthening: require the conclusion to definitely hold
  // whenever the premise may hold (the premise's M is what the rewrite
  // conditions of §5.7/5.8 use).
  return TheSolver.checkValid(implies(Premise.May, P.Must));
}
