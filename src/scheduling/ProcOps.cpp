//===- scheduling/ProcOps.cpp - Procedure-level operators ------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "scheduling/OpsCommon.h"

#include "analysis/Dataflow.h"
#include "ir/FreeVars.h"
#include "ir/Subst.h"
#include "ir/WellFormed.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <functional>

using namespace exo;
using namespace exo::scheduling;
using namespace exo::ir;
using namespace exo::analysis;

namespace {

thread_local const char *CurOpName = "";

/// Shared tail of the deriveProc overloads: stamp the dirty region
/// (including the name of the operator that made the edit, for cursor
/// forwarding diagnostics) and assert tree/region coherence in debug
/// builds.
ProcRef finishDerive(std::shared_ptr<Proc> P, DirtyRegion Dirty) {
  Dirty.Op = CurOpName;
  P->setDirtyRegion(std::move(Dirty));
#ifndef NDEBUG
  assertWellFormed(*P);
#endif
  return P;
}

} // namespace

const char *exo::scheduling::currentOpName() { return CurOpName; }

ScopedOpName::ScopedOpName(const char *Name) : Prev(CurOpName) {
  CurOpName = Name;
}

ScopedOpName::~ScopedOpName() { CurOpName = Prev; }

ProcRef exo::scheduling::deriveProc(const ProcRef &Old, Block NewBody,
                                    std::set<Sym> Delta) {
  auto P = Old->clone();
  P->setBody(std::move(NewBody));
  P->setProvenance(Old, std::move(Delta));
  return finishDerive(std::move(P), DirtyRegion{});
}

ProcRef exo::scheduling::deriveProc(const ProcRef &Old, Block NewBody,
                                    const StmtCursor &C, unsigned NewCount,
                                    std::set<Sym> Delta) {
  auto P = Old->clone();
  P->setBody(std::move(NewBody));
  P->setProvenance(Old, std::move(Delta));
  DirtyRegion Dirty;
  Dirty.Whole = false;
  Dirty.Path.reserve(C.Path.size());
  for (const PathStep &Step : C.Path)
    Dirty.Path.push_back(
        {Step.Index, Step.Into == PathStep::Branch::Orelse});
  Dirty.Begin = C.Begin;
  Dirty.OldCount = C.count();
  Dirty.NewCount = NewCount;
  return finishDerive(std::move(P), std::move(Dirty));
}

Expected<StmtCursor> exo::scheduling::findOneOfKind(const Proc &P,
                                                    const std::string &Pattern,
                                                    StmtKind K,
                                                    const char *What) {
  ScheduleErrorInfo Info;
  Info.Op = currentOpName();
  Info.Pattern = Pattern;
  auto C = findStmts(P, Pattern);
  if (!C)
    return C.error().scheduleInfo() ? C.error()
                                    : C.error().withScheduleInfo(Info);
  auto Sel = selectedStmts(P, *C);
  if (Sel.size() != 1 || Sel[0]->kind() != K)
    return makeScheduleError(Error::Kind::Pattern,
                             std::string("pattern '") + Pattern +
                                 "' did not select " + What,
                             std::move(Info));
  return C;
}

namespace {

/// Structural cache key for linear-canonicalization atoms; uses unique
/// symbol names so distinct symbols with equal base names never merge.
std::string exprKey(const ExprRef &E) {
  std::string Out;
  switch (E->kind()) {
  case ExprKind::Read:
    Out = "r:" + E->name().uniqueName();
    break;
  case ExprKind::Const:
    Out = E->type().isControl() ? "c:" + std::to_string(E->IntVal)
                                : "d:" + std::to_string(E->DataVal);
    break;
  case ExprKind::USub:
    Out = "u:";
    break;
  case ExprKind::BinOp:
    Out = std::string("b:") + binOpName(E->binOp());
    break;
  case ExprKind::BuiltIn:
    Out = "f:" + E->builtin();
    break;
  case ExprKind::WindowExpr:
    Out = "w:" + E->name().uniqueName();
    break;
  case ExprKind::StrideExpr:
    Out = "s:" + E->name().uniqueName() + ":" +
          std::to_string(E->strideDim());
    break;
  case ExprKind::ReadConfig:
    Out = "g:" + E->name().uniqueName() + "." + E->field().uniqueName();
    break;
  }
  for (auto &K : childExprs(E))
    Out += K ? "(" + exprKey(K) + ")" : "()";
  return Out;
}

/// Linear combination of opaque atom expressions plus a constant.
struct LinearCombo {
  // key -> (representative expr, coefficient); kept sorted for
  // deterministic rebuilds.
  std::map<std::string, std::pair<ExprRef, int64_t>> Atoms;
  int64_t Constant = 0;

  void add(const ExprRef &Atom, int64_t Coeff) {
    auto [It, New] = Atoms.try_emplace(exprKey(Atom),
                                       std::make_pair(Atom, 0));
    It->second.second += Coeff;
    if (It->second.second == 0)
      Atoms.erase(It);
  }
  void merge(const LinearCombo &O, int64_t Scale) {
    Constant += O.Constant * Scale;
    for (auto &[K, V] : O.Atoms) {
      auto [It, New] = Atoms.try_emplace(K, std::make_pair(V.first, 0));
      It->second.second += V.second * Scale;
      if (It->second.second == 0)
        Atoms.erase(It);
    }
  }
};

/// Decomposes a control integer expression; atoms are subexpressions the
/// decomposition cannot see through (div/mod/stride/config/non-literal
/// products).
std::optional<LinearCombo> toLinearCombo(const ExprRef &E) {
  if (!E->type().isControl() || E->type().elem() == ScalarKind::Bool)
    return std::nullopt;
  LinearCombo Out;
  switch (E->kind()) {
  case ExprKind::Const:
    Out.Constant = E->intValue();
    return Out;
  case ExprKind::Read:
    if (!E->args().empty())
      return std::nullopt;
    Out.add(E, 1);
    return Out;
  case ExprKind::ReadConfig:
  case ExprKind::StrideExpr:
    Out.add(E, 1);
    return Out;
  case ExprKind::USub: {
    auto Inner = toLinearCombo(E->args()[0]);
    if (!Inner)
      return std::nullopt;
    Out.merge(*Inner, -1);
    return Out;
  }
  case ExprKind::BinOp: {
    BinOpKind Op = E->binOp();
    if (Op == BinOpKind::Add || Op == BinOpKind::Sub) {
      auto L = toLinearCombo(E->args()[0]);
      auto R = toLinearCombo(E->args()[1]);
      if (!L || !R)
        return std::nullopt;
      Out.merge(*L, 1);
      Out.merge(*R, Op == BinOpKind::Add ? 1 : -1);
      return Out;
    }
    if (Op == BinOpKind::Mul) {
      const ExprRef &L = E->args()[0], &R = E->args()[1];
      if (L->kind() == ExprKind::Const) {
        auto Inner = toLinearCombo(R);
        if (!Inner)
          return std::nullopt;
        Out.merge(*Inner, L->intValue());
        return Out;
      }
      if (R->kind() == ExprKind::Const) {
        auto Inner = toLinearCombo(L);
        if (!Inner)
          return std::nullopt;
        Out.merge(*Inner, R->intValue());
        return Out;
      }
      Out.add(E, 1); // non-affine product: opaque atom
      return Out;
    }
    if (Op == BinOpKind::Div || Op == BinOpKind::Mod) {
      Out.add(E, 1); // opaque (children already simplified)
      return Out;
    }
    return std::nullopt;
  }
  default:
    return std::nullopt;
  }
}

/// Human-friendly ordering for rebuilt terms: larger strides first (so
/// tiled indices print as 16 * io + ii), then by name.
struct TermOrder {
  int64_t AbsCoeff;
  std::string Name;
  unsigned Id;
  ExprRef Atom;
  int64_t Coeff;

  bool operator<(const TermOrder &O) const {
    if (AbsCoeff != O.AbsCoeff)
      return AbsCoeff > O.AbsCoeff;
    if (Name != O.Name)
      return Name < O.Name;
    return Id < O.Id;
  }
};

/// Rebuilds a LinearCombo as an expression: positive terms first, then
/// subtractions, constant last.
ExprRef fromLinearCombo(const LinearCombo &L) {
  std::vector<TermOrder> Terms;
  for (auto &[K, V] : L.Atoms) {
    const ExprRef &A = V.first;
    std::string Name = K;
    unsigned Id = 0;
    if (A->kind() == ExprKind::Read) {
      Name = A->name().name();
      Id = A->name().id();
    }
    int64_t C = V.second;
    Terms.push_back({C < 0 ? -C : C, std::move(Name), Id, A, C});
  }
  std::sort(Terms.begin(), Terms.end());

  ExprRef Out;
  auto addTerm = [&](const ExprRef &Atom, int64_t C) {
    ExprRef Term =
        C == 1 || C == -1
            ? Atom
            : Expr::binOp(BinOpKind::Mul,
                          Expr::constInt(C < 0 ? -C : C), Atom);
    if (!Out)
      Out = C < 0 ? Expr::usub(Term) : Term;
    else
      Out = Expr::binOp(C < 0 ? BinOpKind::Sub : BinOpKind::Add, Out, Term);
  };
  for (auto &T : Terms)
    if (T.Coeff > 0)
      addTerm(T.Atom, T.Coeff);
  for (auto &T : Terms)
    if (T.Coeff < 0)
      addTerm(T.Atom, T.Coeff);
  if (!Out)
    return Expr::constInt(L.Constant);
  if (L.Constant > 0)
    Out = Expr::binOp(BinOpKind::Add, Out, Expr::constInt(L.Constant));
  else if (L.Constant < 0)
    Out = Expr::binOp(BinOpKind::Sub, Out, Expr::constInt(-L.Constant));
  return Out;
}

} // namespace

static ExprRef simplifyExprLocal(const ExprRef &E);

ExprRef exo::scheduling::simplifyExpr(const ExprRef &E) {
  ExprRef Base = simplifyExprLocal(E);
  // Canonicalize linear control arithmetic: merges like terms, so
  // (i + 1) - i folds to 1 and 16*io + ii*1 + 0 to 16*io + ii.
  if (Base->kind() == ExprKind::BinOp &&
      (Base->binOp() == BinOpKind::Add || Base->binOp() == BinOpKind::Sub ||
       Base->binOp() == BinOpKind::Mul)) {
    if (auto L = toLinearCombo(Base))
      return fromLinearCombo(*L);
  }
  return Base;
}

static ExprRef simplifyExprLocal(const ExprRef &E) {
  // Simplify children first.
  std::vector<ExprRef> Kids = childExprs(E);
  bool Changed = false;
  for (auto &K : Kids) {
    if (!K)
      continue;
    ExprRef S = exo::scheduling::simplifyExpr(K);
    Changed |= S != K;
    K = S;
  }
  ExprRef Base = Changed ? withNewArgs(E, std::move(Kids)) : E;

  auto asConst = [](const ExprRef &X) -> std::optional<int64_t> {
    if (X->kind() == ExprKind::Const && X->type().isControl() &&
        X->type().elem() != ScalarKind::Bool)
      return X->intValue();
    return std::nullopt;
  };

  if (Base->kind() == ExprKind::USub) {
    if (auto C = asConst(Base->args()[0]))
      return Expr::constInt(-*C);
    return Base;
  }
  if (Base->kind() != ExprKind::BinOp)
    return Base;

  const ExprRef &L = Base->args()[0];
  const ExprRef &R = Base->args()[1];
  auto CL = asConst(L), CR = asConst(R);
  BinOpKind Op = Base->binOp();

  // Full constant folding on control ints.
  if (CL && CR) {
    switch (Op) {
    case BinOpKind::Add:
      return Expr::constInt(*CL + *CR);
    case BinOpKind::Sub:
      return Expr::constInt(*CL - *CR);
    case BinOpKind::Mul:
      return Expr::constInt(*CL * *CR);
    case BinOpKind::Div:
      if (*CR > 0)
        return Expr::constInt(floorDiv(*CL, *CR));
      break;
    case BinOpKind::Mod:
      if (*CR > 0)
        return Expr::constInt(floorMod(*CL, *CR));
      break;
    case BinOpKind::Eq:
      return Expr::constBool(*CL == *CR);
    case BinOpKind::Ne:
      return Expr::constBool(*CL != *CR);
    case BinOpKind::Lt:
      return Expr::constBool(*CL < *CR);
    case BinOpKind::Gt:
      return Expr::constBool(*CL > *CR);
    case BinOpKind::Le:
      return Expr::constBool(*CL <= *CR);
    case BinOpKind::Ge:
      return Expr::constBool(*CL >= *CR);
    default:
      break;
    }
    return Base;
  }

  // Neutral / absorbing elements.
  switch (Op) {
  case BinOpKind::Add:
    if (CL && *CL == 0)
      return R;
    if (CR && *CR == 0)
      return L;
    break;
  case BinOpKind::Sub:
    if (CR && *CR == 0)
      return L;
    break;
  case BinOpKind::Mul:
    if ((CL && *CL == 0) || (CR && *CR == 0))
      return Expr::constInt(0);
    if (CL && *CL == 1)
      return R;
    if (CR && *CR == 1)
      return L;
    break;
  case BinOpKind::Div:
    if (CR && *CR == 1)
      return L;
    break;
  default:
    break;
  }
  return Base;
}

namespace {

StmtRef simplifyStmt(const StmtRef &S);

Block simplifyBlock(const Block &B) {
  Block Out;
  for (auto &S : B) {
    StmtRef N = simplifyStmt(S);
    if (!N)
      continue; // pruned
    Out.push_back(std::move(N));
  }
  return Out;
}

StmtRef simplifyStmt(const StmtRef &S) {
  switch (S->kind()) {
  case StmtKind::Assign:
  case StmtKind::Reduce: {
    std::vector<ExprRef> Idx;
    for (auto &I : S->indices())
      Idx.push_back(simplifyExpr(I));
    ExprRef Rhs = simplifyExpr(S->rhs());
    return S->kind() == StmtKind::Assign
               ? Stmt::assign(S->name(), std::move(Idx), std::move(Rhs))
               : Stmt::reduce(S->name(), std::move(Idx), std::move(Rhs));
  }
  case StmtKind::WriteConfig:
    return Stmt::writeConfig(S->name(), S->field(), simplifyExpr(S->rhs()));
  case StmtKind::Pass:
    return S;
  case StmtKind::If: {
    ExprRef Cond = simplifyExpr(S->rhs());
    if (Cond->kind() == ExprKind::Const &&
        Cond->type().elem() == ScalarKind::Bool) {
      Block Taken = simplifyBlock(Cond->boolValue() ? S->body() : S->orelse());
      if (Taken.empty())
        return nullptr;
      if (Taken.size() == 1)
        return Taken[0];
      // Multi-statement branch: keep a trivially-true guard wrapping it to
      // avoid splicing (callers replace one stmt with one stmt).
      return Stmt::ifStmt(Expr::constBool(true), std::move(Taken));
    }
    Block Body = simplifyBlock(S->body());
    Block Orelse = simplifyBlock(S->orelse());
    if (Body.empty() && Orelse.empty())
      return nullptr;
    if (Body.empty())
      Body.push_back(Stmt::pass());
    return Stmt::ifStmt(std::move(Cond), std::move(Body), std::move(Orelse));
  }
  case StmtKind::For: {
    ExprRef Lo = simplifyExpr(S->lo());
    ExprRef Hi = simplifyExpr(S->hi());
    if (Lo->kind() == ExprKind::Const && Hi->kind() == ExprKind::Const &&
        Lo->intValue() >= Hi->intValue())
      return nullptr; // zero iterations
    Block Body = simplifyBlock(S->body());
    if (Body.empty())
      return nullptr;
    return Stmt::forStmt(S->name(), std::move(Lo), std::move(Hi),
                         std::move(Body));
  }
  case StmtKind::Alloc: {
    const Type &T = S->allocType();
    if (!T.isTensor())
      return S;
    std::vector<ExprRef> Dims;
    for (auto &D : T.dims())
      Dims.push_back(simplifyExpr(D));
    return Stmt::alloc(S->name(),
                       Type::tensor(T.elem(), std::move(Dims), T.isWindow()),
                       S->memName());
  }
  case StmtKind::Call: {
    std::vector<ExprRef> Args;
    for (auto &A : S->args())
      Args.push_back(simplifyExpr(A));
    return Stmt::call(S->proc(), std::move(Args));
  }
  case StmtKind::WindowStmt: {
    const ExprRef &W = S->rhs();
    std::vector<WinCoord> Coords;
    for (auto &C : W->winCoords())
      Coords.push_back({C.IsInterval, simplifyExpr(C.Lo),
                        C.Hi ? simplifyExpr(C.Hi) : nullptr});
    std::vector<ExprRef> Dims;
    for (auto &D : W->type().dims())
      Dims.push_back(simplifyExpr(D));
    return Stmt::windowStmt(
        S->name(), Expr::window(W->name(), std::move(Coords),
                                Type::tensor(W->type().elem(),
                                             std::move(Dims), true)));
  }
  }
  return S;
}

} // namespace

Expected<ProcRef> exo::scheduling::simplify(const ProcRef &P) {
  ScopedOpName Op(ops::Simplify);
  Block NewBody = simplifyBlock(P->body());
  if (NewBody.empty())
    NewBody.push_back(Stmt::pass());
  return deriveProc(P, std::move(NewBody));
}

Expected<ProcRef> exo::scheduling::deletePass(const ProcRef &P) {
  ScopedOpName Op(ops::DeletePass);
  // simplifyBlock drops nothing but Pass among leaves; reuse a dedicated
  // small walker to remove only Pass statements.
  std::function<Block(const Block &)> Walk = [&](const Block &B) -> Block {
    Block Out;
    for (auto &S : B) {
      if (S->kind() == StmtKind::Pass)
        continue;
      if (S->kind() == StmtKind::If) {
        Block Body = Walk(S->body());
        Block Orelse = Walk(S->orelse());
        if (Body.empty() && Orelse.empty())
          continue;
        if (Body.empty())
          Body.push_back(Stmt::pass());
        Out.push_back(Stmt::ifStmt(S->rhs(), std::move(Body),
                                   std::move(Orelse)));
      } else if (S->kind() == StmtKind::For) {
        Block Body = Walk(S->body());
        if (Body.empty())
          continue;
        Out.push_back(withForParts(S, S->lo(), S->hi(), std::move(Body)));
      } else {
        Out.push_back(S);
      }
    }
    return Out;
  };
  Block NewBody = Walk(P->body());
  if (NewBody.empty())
    NewBody.push_back(Stmt::pass());
  return deriveProc(P, std::move(NewBody));
}

Expected<ProcRef> exo::scheduling::inlineCall(const ProcRef &P,
                                              const std::string &CallPat) {
  ScopedOpName Op(ops::Inline);
  auto C = findOneOfKind(*P, CallPat, StmtKind::Call, "a call");
  if (!C)
    return C.error();
  StmtRef Call = selectedStmts(*P, *C)[0];
  Block Inlined = substitutedCalleeBody(Call);
  unsigned NewCount = unsigned(Inlined.size());
  return deriveProc(P, replaceRange(P->body(), *C, Inlined), *C, NewCount);
}

Expected<ProcRef> exo::scheduling::callEqv(const ProcRef &P,
                                           const std::string &CallPat,
                                           const ProcRef &NewCallee) {
  ScopedOpName Op(ops::CallEqv);
  auto C = findOneOfKind(*P, CallPat, StmtKind::Call, "a call");
  if (!C)
    return C.error();
  StmtRef Call = selectedStmts(*P, *C)[0];
  const ProcRef &Old = Call->proc();
  auto Delta = equivalenceDelta(Old, NewCallee);
  if (!Delta)
    return makeError(Error::Kind::Scheduling,
                     "call_eqv: '" + NewCallee->name() +
                         "' is not provenance-equivalent to '" + Old->name() +
                         "'");
  if (Old->args().size() != NewCallee->args().size())
    return makeError(Error::Kind::Scheduling,
                     "call_eqv: callee signatures differ");

  if (!Delta->empty()) {
    // Context extension (§6.2): fields the two callees may disagree on
    // must not be read by anything executing after the call.
    AnalysisCtx Ctx;
    ContextInfo Info = computeContext(Ctx, *P, *C);
    for (Sym F : *Delta)
      if (Info.PostReadFields.count(F))
        return makeError(Error::Kind::Safety,
                         "call_eqv: configuration field '" + F.name() +
                             "' is read after the call site");
  }

  StmtRef NewCall = Stmt::call(NewCallee, Call->args());
  return deriveProc(P, replaceRange(P->body(), *C, {NewCall}), *C, 1, *Delta);
}

ProcRef exo::scheduling::renameProc(const ProcRef &P,
                                    const std::string &NewName) {
  auto Q = P->clone();
  Q->setName(NewName);
  Q->setProvenance(P, {});
  return Q;
}
