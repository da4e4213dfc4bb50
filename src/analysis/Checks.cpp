//===- analysis/Checks.cpp -------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/Checks.h"

#include "analysis/Context.h"
#include "smt/Simplify.h"

#include <optional>

using namespace exo;
using namespace exo::analysis;
using namespace exo::smt;

namespace {

/// One Single access reached by the fast-path walk: its coordinates, the
/// interval bounds harvested from Filter conditions on the path, and the
/// BigUnion binder ids the coordinates may mention.
struct FlatAccess {
  ir::Sym Base;
  const std::vector<EffInt> *Coords;
  IntervalEnv Bounds;
  std::set<unsigned> Binders;
};

/// Flattens a location set into Single accesses, over-approximating
/// Inter and Diff by their left operand (sound for disjointness: the
/// flattened list covers every possibly-member location). Returns false
/// when the shape is not analyzable.
bool flattenForFastPath(const LocSetRef &S, IntervalEnv Bounds,
                        std::set<unsigned> Binders,
                        std::vector<FlatAccess> &Out) {
  switch (S->kind()) {
  case LocSet::Kind::Empty:
    return true;
  case LocSet::Kind::Single:
    Out.push_back({S->base(), &S->coords(), std::move(Bounds),
                   std::move(Binders)});
    return true;
  case LocSet::Kind::Union:
    for (const LocSetRef &P : S->parts())
      if (!flattenForFastPath(P, Bounds, Binders, Out))
        return false;
    return true;
  case LocSet::Kind::Inter:
  case LocSet::Kind::Diff:
    // Members(Inter/Diff) ⊆ Members(left operand).
    return flattenForFastPath(S->parts()[0], std::move(Bounds),
                              std::move(Binders), Out);
  case LocSet::Kind::BigUnion:
    Binders.insert(S->boundVar().Id);
    return flattenForFastPath(S->parts()[0], std::move(Bounds),
                              std::move(Binders), Out);
  case LocSet::Kind::Filter:
    // Possible membership requires the condition to *possibly* hold, so
    // bounds must come from the May side (Must would be unsound).
    collectIntervalFacts(S->cond().May, Bounds);
    return flattenForFastPath(S->parts()[0], std::move(Bounds),
                              std::move(Binders), Out);
  }
  return false;
}

/// True when both env intervals jointly rule out any model (a variable
/// constrained to an empty interval).
bool envContradictory(const IntervalEnv &Env) {
  for (const auto &[Var, IV] : Env) {
    (void)Var;
    if (IV.empty())
      return true;
  }
  return false;
}

/// Can accesses PA and PB (same base) provably never alias? True when
/// some dimension's coordinate difference has an interval excluding 0
/// under the merged bounds, or the merged bounds are contradictory.
bool pairSeparated(const FlatAccess &PA, const FlatAccess &PB) {
  // Shared BigUnion binder ids would identify the two sides' binders
  // and prove only the "diagonal" of the cross product — e.g. a(x)=x
  // vs b(x)=x+1 overlap at a(1)=b(0) even though x != x+1 for every
  // single x. Bail; the solver renames binders apart.
  for (unsigned Id : PA.Binders)
    if (PB.Binders.count(Id))
      return false;
  IntervalEnv Env = PA.Bounds;
  for (const auto &[Var, IV] : PB.Bounds) {
    ValueInterval &Slot = Env[Var];
    if (IV.Lo && (!Slot.Lo || *Slot.Lo < *IV.Lo))
      Slot.Lo = IV.Lo;
    if (IV.Hi && (!Slot.Hi || *Slot.Hi > *IV.Hi))
      Slot.Hi = IV.Hi;
  }
  if (envContradictory(Env))
    return true; // the two filters cannot hold at once
  if (PA.Coords->size() != PB.Coords->size())
    return false;
  for (size_t D = 0; D < PA.Coords->size(); ++D) {
    const EffInt &CA = (*PA.Coords)[D], &CB = (*PB.Coords)[D];
    if (!CA.isKnown() || !CB.isKnown())
      continue;
    auto La = linearFromTerm(CA.Val), Lb = linearFromTerm(CB.Val);
    if (!La || !Lb)
      continue;
    ValueInterval IV = intervalOfLinear(*La - *Lb, Env);
    if (IV.empty())
      continue;
    if ((IV.Lo && *IV.Lo >= 1) || (IV.Hi && *IV.Hi <= -1))
      return true; // coordinates can never be equal in dimension D
  }
  return false;
}

} // namespace

bool exo::analysis::disjointFastPath(const LocSetRef &A, const LocSetRef &B) {
  std::vector<FlatAccess> AccA, AccB;
  if (!flattenForFastPath(A, {}, {}, AccA) ||
      !flattenForFastPath(B, {}, {}, AccB))
    return false;
  for (const FlatAccess &PA : AccA)
    for (const FlatAccess &PB : AccB) {
      if (!(PA.Base == PB.Base))
        continue;
      if (!pairSeparated(PA, PB))
        return false;
    }
  return true;
}

TermRef exo::analysis::commutesCond(const EffectSets &A, const EffectSets &B) {
  TriBool C = triAnd(
      triAnd(disjoint(A.wr(), B.all()), disjoint(B.wr(), A.all())),
      triAnd(disjoint(A.rplus(), B.rd()), disjoint(B.rplus(), A.rd())));
  return C.Must;
}

namespace {

/// The bases a block may touch (read, write or reduce) and the subset it
/// may modify (write or reduce).
struct Footprint {
  std::set<ir::Sym> Touched;
  std::set<ir::Sym> Modified;
};

/// Walks a block the way effect extraction would, recording only the base
/// of each location it could build.
class FootprintWalk {
public:
  explicit FootprintWalk(Footprint &F) : F(F) {}

  /// \p Windows maps each window name in scope to its physical base; passed
  /// by value so a branch or loop body's bindings end with it, as in the
  /// dataflow.
  void block(WindowBases Windows, const ir::Block &B) {
    for (const ir::StmtRef &S : B)
      stmt(Windows, S);
  }

private:
  static ir::Sym baseOf(const WindowBases &Windows, ir::Sym Name) {
    auto W = Windows.find(Name);
    return W == Windows.end() ? Name : W->second;
  }

  void modify(const WindowBases &Windows, ir::Sym Name) {
    ir::Sym Base = baseOf(Windows, Name);
    F.Touched.insert(Base);
    F.Modified.insert(Base);
  }

  /// Heap reads, as collectReads (Effects.cpp) records them: data-typed
  /// reads, nothing for a stride, only the coordinates of a window.
  /// Configuration reads are collected separately.
  void reads(const WindowBases &Windows, const ir::ExprRef &E) {
    if (!E)
      return;
    if (E->kind() == ir::ExprKind::Read && E->type().isData())
      F.Touched.insert(baseOf(Windows, E->name()));
    for (const ir::ExprRef &C : ir::childExprs(E))
      reads(Windows, C);
  }

  void stmt(WindowBases &Windows, const ir::StmtRef &S) {
    switch (S->kind()) {
    case ir::StmtKind::Pass:
    case ir::StmtKind::Alloc:
      return;
    case ir::StmtKind::Assign:
    case ir::StmtKind::Reduce:
      for (const ir::ExprRef &I : S->indices())
        reads(Windows, I);
      reads(Windows, S->rhs());
      modify(Windows, S->name());
      return;
    case ir::StmtKind::WriteConfig:
      reads(Windows, S->rhs());
      return;
    case ir::StmtKind::WindowStmt:
      reads(Windows, S->rhs());
      Windows[S->name()] = baseOf(Windows, S->rhs()->name());
      return;
    case ir::StmtKind::If:
      reads(Windows, S->rhs());
      block(Windows, S->body());
      block(Windows, S->orelse());
      return;
    case ir::StmtKind::For:
      reads(Windows, S->lo());
      reads(Windows, S->hi());
      block(Windows, S->body());
      return;
    case ir::StmtKind::Call:
      // The callee body can only reach the caller's heap through its data
      // formals; count each one bound to a buffer as written.
      for (const ir::ExprRef &A : S->args()) {
        reads(Windows, A);
        if (A->type().isData() && (A->kind() == ir::ExprKind::Read ||
                                   A->kind() == ir::ExprKind::WindowExpr))
          modify(Windows, A->name());
      }
      return;
    }
  }

  Footprint &F;
};

Footprint footprintOf(const WindowBases &Windows, const ir::Block &B) {
  Footprint F;
  FootprintWalk(F).block(Windows, B);
  std::set<ir::Sym> CfgWrites;
  collectConfigReads(B, F.Touched);
  collectConfigWrites(B, CfgWrites);
  F.Touched.insert(CfgWrites.begin(), CfgWrites.end());
  F.Modified.insert(CfgWrites.begin(), CfgWrites.end());
  return F;
}

bool meets(const std::set<ir::Sym> &X, const std::set<ir::Sym> &Y) {
  for (const ir::Sym &S : X)
    if (Y.count(S))
      return true;
  return false;
}

/// True when \p B and every callee body it reaches hold only Pass,
/// WriteConfig and Call statements.
bool straightLineConfig(const ir::Block &B) {
  for (const ir::StmtRef &S : B)
    switch (S->kind()) {
    case ir::StmtKind::Pass:
    case ir::StmtKind::WriteConfig:
      break;
    case ir::StmtKind::Call:
      if (!straightLineConfig(S->proc()->body()))
        return false;
      break;
    default:
      return false;
    }
  return true;
}

/// The value of an integer (not boolean) control literal.
std::optional<int64_t> intLiteral(const ir::ExprRef &E) {
  if (E->kind() != ir::ExprKind::Const || !E->type().isControl() ||
      E->type().elem() == ir::ScalarKind::Bool)
    return std::nullopt;
  return E->intValue();
}

} // namespace

bool exo::analysis::footprintsCommute(const WindowBases &Windows,
                                      const ir::Block &A, const ir::Block &B) {
  Footprint FA = footprintOf(Windows, A), FB = footprintOf(Windows, B);
  return !meets(FA.Modified, FB.Touched) && !meets(FB.Modified, FA.Touched);
}

bool exo::analysis::literallyNonEmpty(const ir::ExprRef &Lo,
                                      const ir::ExprRef &Hi) {
  std::optional<int64_t> L = intLiteral(Lo), H = intLiteral(Hi);
  return L && H && *L < *H;
}

bool exo::analysis::literallyEqual(const ir::ExprRef &A, const ir::ExprRef &B) {
  std::optional<int64_t> VA = intLiteral(A);
  return VA && VA == intLiteral(B);
}

bool exo::analysis::obviouslyIdempotent(const ir::Block &B) {
  if (!straightLineConfig(B))
    return false;
  std::set<ir::Sym> Reads, Writes;
  collectConfigReads(B, Reads);
  collectConfigWrites(B, Writes);
  return !meets(Writes, Reads);
}

TermRef exo::analysis::shadowsCond(const EffectSets &A, const EffectSets &B) {
  // For every location possibly modified by A: B does not read it (even
  // maybe, including reductions) and definitely writes it.
  LocSetRef ModA = A.mod();
  LocSetRef RdB = LocSet::unionOf(B.rd(), B.rplus());
  LocSetRef WrB = B.wr();
  std::map<ir::Sym, unsigned> Bases;
  ModA->collectBases(Bases);
  std::vector<TermRef> Parts;
  for (auto &[Name, Rank] : Bases) {
    std::vector<TermVar> PtVars;
    std::vector<TermRef> Pt;
    for (unsigned I = 0; I < Rank; ++I) {
      PtVars.push_back(freshVar("sp" + std::to_string(I), Sort::Int));
      Pt.push_back(mkVar(PtVars.back()));
    }
    TermRef Body = implies(
        ModA->member(Name, Pt).May,
        mkAnd(mkNot(RdB->member(Name, Pt).May), WrB->member(Name, Pt).Must));
    for (auto It = PtVars.rbegin(); It != PtVars.rend(); ++It)
      Body = forall(*It, Body);
    Parts.push_back(Body);
  }
  return mkAnd(std::move(Parts));
}

bool exo::analysis::provedUnderPremise(AnalysisCtx &Ctx,
                                       const TriBool &Premise,
                                       const TermRef &Cond) {
  return Ctx.solver().checkValid(implies(Premise.May, Cond)) ==
         SolverResult::Yes;
}

ScheduleErrorInfo::Verdict
exo::analysis::dischargeUnderPremise(AnalysisCtx &Ctx, const TriBool &Premise,
                                     const TermRef &Cond) {
  Solver &S = Ctx.solver();
  // The solver only says Unknown; its per-instance stats carry the
  // budget/structural/timeout breakdown. Delta them around the query.
  uint64_t BudgetBefore = S.stats().NumUnknownBudget;
  uint64_t TimeoutBefore = S.stats().NumUnknownTimeout;
  switch (S.checkValid(implies(Premise.May, Cond))) {
  case SolverResult::Yes:
    return ScheduleErrorInfo::Verdict::Yes;
  case SolverResult::No:
    return ScheduleErrorInfo::Verdict::No;
  case SolverResult::Unknown:
    break;
  }
  if (S.stats().NumUnknownTimeout > TimeoutBefore)
    return ScheduleErrorInfo::Verdict::UnknownTimeout;
  return S.stats().NumUnknownBudget > BudgetBefore
             ? ScheduleErrorInfo::Verdict::UnknownBudget
             : ScheduleErrorInfo::Verdict::UnknownStructural;
}
