//===- scheduling/Unify.cpp - replace() via unification --------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replace() scheduling primitive (§3.4): unifies a designated block
/// of statements with the body of a target procedure (typically an
/// @instr) and substitutes a call. Implementation follows the paper:
///
///  * the target's arguments are unknowns; free variables of the selected
///    code are known symbols; symbols bound inside both fragments unify
///    one-to-one;
///  * statements and non-control expressions must match exactly;
///    integer-typed control expressions contribute linear equations;
///  * buffer (tensor) arguments may bind to *windows* of the selection's
///    buffers, which introduces a categorical choice of which target
///    dimensions are intervals — we enumerate the order-preserving
///    choices and backtrack;
///  * the linear system is solved by integer back-substitution; residual
///    ground equations and the target's preconditions are discharged to
///    the SMT solver under the selection's path condition (this is where
///    configuration-state assertions like
///    `assert ConfigLoad.src_stride == stride(src, 0)` meet the symbolic
///    dataflow γ of §5.3).
///
//===----------------------------------------------------------------------===//

#include "scheduling/OpsCommon.h"

#include "ir/Builder.h"
#include "ir/Printer.h"
#include "ir/StructuralEq.h"
#include "ir/Subst.h"
#include "smt/Linear.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <functional>

using namespace exo;
using namespace exo::scheduling;
using namespace exo::ir;
using namespace exo::analysis;
using smt::LinearForm;

namespace {

/// How one buffer parameter of the target maps onto a selection buffer.
struct BufBinding {
  Sym TargetBase;
  unsigned TargetRank = 0;
  /// For each target dimension: is it an interval (mapped to a parameter
  /// dimension, in order) and the solver variable holding its offset.
  struct Dim {
    bool IsInterval;
    unsigned OffsetVar;
  };
  std::vector<Dim> Dims;
};

/// The full unification state (copied at backtracking points).
struct UnifyState {
  std::map<Sym, Sym> Bound;              ///< target bound sym -> selection sym
  std::map<Sym, BufBinding> Buffers;      ///< target tensor param -> binding
  std::vector<LinearForm> Equations;      ///< each == 0
  EffEnv FooEnv;                          ///< target-side lift environment
  FlowState TgtState;                     ///< selection-side state
  TriBool Premise = TriBool::yes();
};

class Unifier {
public:
  Unifier(AnalysisCtx &Ctx, const Proc &Target, const ContextInfo &Info)
      : Ctx(Ctx), Target(Target) {
    St.TgtState = Info.Pre;
    St.Premise = Info.PathCond;
    for (const FnArg &A : Target.args()) {
      if (A.Ty.isControl()) {
        smt::TermVar V = smt::freshVar("arg_" + A.Name.name(),
                                       smt::Sort::Int);
        Unknowns.insert(V.Id);
        ArgVars[A.Name] = V.Id;
        St.FooEnv[A.Name] = EffInt::known(smt::mkVar(V));
      }
    }
  }

  /// Attempts unification; fills Solution / BufferSolutions on success.
  bool unify(const std::vector<StmtRef> &Selection) {
    if (Target.body().size() != Selection.size())
      return fail("statement counts differ");
    for (size_t I = 0; I < Selection.size(); ++I)
      if (!matchStmt(Target.body()[I], Selection[I]))
        return false;
    return solveSystem() && checkResiduals();
  }

  const std::string &why() const { return Why; }

private:
  bool fail(const std::string &Msg) {
    if (Why.empty())
      Why = Msg;
    return false;
  }

  //--------------------------------------------------------------------
  // Lifting into linear forms over knowns + unknowns.
  //--------------------------------------------------------------------

  /// Known selection-side variable for a target symbol; records how to
  /// rebuild it as an expression.
  unsigned knownVar(Sym S, const Type &Ty) {
    smt::TermVar V = Ctx.varFor(S);
    KnownExpr.try_emplace(V.Id, Expr::read(S, {}, Ty));
    return V.Id;
  }

  std::optional<LinearForm> liftSide(const ExprRef &E, bool FooSide) {
    EffInt V = Ctx.liftControl(E, FooSide ? St.FooEnv : St.TgtState.Env);
    if (!V.isKnown())
      return std::nullopt;
    auto L = smt::linearFromTerm(V.Val);
    if (!L)
      return std::nullopt;
    return L;
  }

  /// Records lhs(foo) == rhs(target) as a linear equation; falls back to
  /// structural matching when either side is not quasi-affine.
  bool equateControl(const ExprRef &FooE, const ExprRef &TgtE) {
    auto LF = liftSide(FooE, /*FooSide=*/true);
    auto LT = liftSide(TgtE, /*FooSide=*/false);
    if (LF && LT) {
      St.Equations.push_back(*LF - *LT);
      return true;
    }
    return matchDataExpr(FooE, TgtE);
  }

  //--------------------------------------------------------------------
  // Expression matching
  //--------------------------------------------------------------------

  bool isControlExpr(const ExprRef &E) { return E->type().isControl(); }

  bool matchExpr(const ExprRef &FooE, const ExprRef &TgtE) {
    if (isControlExpr(FooE) && isControlExpr(TgtE))
      return equateControl(FooE, TgtE);
    return matchDataExpr(FooE, TgtE);
  }

  bool matchDataExpr(const ExprRef &FooE, const ExprRef &TgtE) {
    if (FooE->kind() != TgtE->kind())
      return fail("expression kinds differ: " + printExpr(FooE) + " vs " +
                  printExpr(TgtE));
    switch (FooE->kind()) {
    case ExprKind::Const:
      if (FooE->type().isControl() != TgtE->type().isControl())
        return fail("literal sorts differ");
      if (FooE->type().isControl())
        return FooE->intValue() == TgtE->intValue() ||
               fail("control literals differ");
      return FooE->dataValue() == TgtE->dataValue() ||
             fail("data literals differ");
    case ExprKind::Read:
      return matchAccess(FooE->name(), FooE->args(), TgtE->name(),
                         TgtE->args(), FooE->type());
    case ExprKind::USub:
      return matchExpr(FooE->args()[0], TgtE->args()[0]);
    case ExprKind::BinOp:
      if (FooE->binOp() != TgtE->binOp())
        return fail("operators differ");
      return matchExpr(FooE->args()[0], TgtE->args()[0]) &&
             matchExpr(FooE->args()[1], TgtE->args()[1]);
    case ExprKind::BuiltIn: {
      if (FooE->builtin() != TgtE->builtin() ||
          FooE->args().size() != TgtE->args().size())
        return fail("builtins differ");
      for (size_t I = 0; I < FooE->args().size(); ++I)
        if (!matchExpr(FooE->args()[I], TgtE->args()[I]))
          return false;
      return true;
    }
    case ExprKind::ReadConfig:
      return (FooE->name() == TgtE->name() &&
              FooE->field() == TgtE->field()) ||
             fail("config reads differ");
    case ExprKind::StrideExpr:
    case ExprKind::WindowExpr:
      return fail("window/stride expressions are not unified");
    }
    return fail("unhandled expression kind");
  }

  /// Matches an access foo:Base[Idx] against target:Base'[Idx'].
  bool matchAccess(Sym FooBase, const std::vector<ExprRef> &FooIdx,
                   Sym TgtBase, const std::vector<ExprRef> &TgtIdx,
                   const Type &Ty) {
    // Bound-local buffer (allocated inside the target body).
    auto BIt = St.Bound.find(FooBase);
    if (BIt != St.Bound.end()) {
      if (BIt->second != TgtBase)
        return fail("bound buffer mismatch");
      if (FooIdx.size() != TgtIdx.size())
        return fail("rank mismatch on bound buffer");
      for (size_t I = 0; I < FooIdx.size(); ++I)
        if (!equateControl(FooIdx[I], TgtIdx[I]))
          return false;
      return true;
    }
    // Scalar control read reaching here would be a bug; control exprs go
    // through equateControl.
    const FnArg *Arg = Target.findArg(FooBase);
    if (!Arg)
      return fail("free variable '" + FooBase.name() +
                  "' in target body is not an argument");
    assert(Arg->Ty.isData() && "control arg in access position");

    // Resolve the selection-side access through window aliases.
    Sym Base = TgtBase;
    std::vector<ExprRef> Indices = TgtIdx;
    // (Alias resolution happens symbolically below via the flow state's
    // alias map when lifting; structural composition:)
    auto AliasIt = St.TgtState.Aliases.find(TgtBase);
    // For structural matching we require direct buffer access (the apps
    // do not window inside matched fragments).

    BufBinding *Binding;
    auto It = St.Buffers.find(FooBase);
    if (It == St.Buffers.end()) {
      // Create the binding with the pre-chosen dimension choice.
      unsigned TgtRank = TgtIdx.size();
      unsigned FooRank = FooIdx.size();
      auto ChIt = DimChoices.find(FooBase);
      if (ChIt == DimChoices.end())
        return fail("no dimension choice for parameter '" +
                    FooBase.name() + "'");
      const std::vector<bool> &Choice = ChIt->second;
      if (Choice.size() != TgtRank ||
          static_cast<unsigned>(
              std::count(Choice.begin(), Choice.end(), true)) != FooRank)
        return fail("dimension choice arity mismatch");
      BufBinding NewB;
      NewB.TargetBase = Base;
      NewB.TargetRank = TgtRank;
      for (unsigned D = 0; D < TgtRank; ++D) {
        smt::TermVar O =
            smt::freshVar("off_" + FooBase.name() + std::to_string(D),
                          smt::Sort::Int);
        Unknowns.insert(O.Id);
        NewB.Dims.push_back({Choice[D], O.Id});
      }
      Binding = &St.Buffers.emplace(FooBase, std::move(NewB)).first->second;
      (void)AliasIt;
    } else {
      Binding = &It->second;
      if (Binding->TargetBase != Base)
        return fail("parameter '" + FooBase.name() +
                    "' maps to two different buffers");
      if (Binding->TargetRank != TgtIdx.size())
        return fail("inconsistent target rank");
    }

    // Equations: tgt_d == off_d (+ foo index for interval dims).
    size_t FooK = 0;
    for (unsigned D = 0; D < Binding->TargetRank; ++D) {
      auto LT = liftSide(Indices[D], /*FooSide=*/false);
      if (!LT)
        return fail("non-affine target index " + printExpr(Indices[D]));
      LinearForm Eq = *LT;
      Eq -= LinearForm::variable(Binding->Dims[D].OffsetVar);
      if (Binding->Dims[D].IsInterval) {
        if (FooK >= FooIdx.size())
          return fail("target access rank mismatch");
        auto LF = liftSide(FooIdx[FooK++], /*FooSide=*/true);
        if (!LF)
          return fail("non-affine parameter index");
        Eq -= *LF;
      }
      St.Equations.push_back(std::move(Eq));
    }
    if (FooK != FooIdx.size())
      return fail("parameter access rank mismatch");
    return true;
  }

  //--------------------------------------------------------------------
  // Statement matching
  //--------------------------------------------------------------------

  bool matchStmt(const StmtRef &FooS, const StmtRef &TgtS) {
    if (FooS->kind() != TgtS->kind())
      return fail("statement kinds differ (" + printStmt(FooS) + " vs " +
                  printStmt(TgtS) + ")");
    switch (FooS->kind()) {
    case StmtKind::Pass:
      return true;
    case StmtKind::Assign:
    case StmtKind::Reduce:
      if (!matchAccess(FooS->name(), FooS->indices(), TgtS->name(),
                       TgtS->indices(), Type(ScalarKind::R)))
        return false;
      return matchExpr(FooS->rhs(), TgtS->rhs());
    case StmtKind::WriteConfig:
      if (FooS->name() != TgtS->name() || FooS->field() != TgtS->field())
        return fail("config writes differ");
      return equateControl(FooS->rhs(), TgtS->rhs());
    case StmtKind::If: {
      if (!matchExpr(FooS->rhs(), TgtS->rhs()))
        return false;
      return matchBlocks(FooS->body(), TgtS->body()) &&
             matchBlocks(FooS->orelse(), TgtS->orelse());
    }
    case StmtKind::For: {
      if (!equateControl(FooS->lo(), TgtS->lo()) ||
          !equateControl(FooS->hi(), TgtS->hi()))
        return false;
      // Bind both iterators to one fresh solver variable.
      smt::TermVar V = smt::freshVar(TgtS->name().name(), smt::Sort::Int);
      St.Bound[FooS->name()] = TgtS->name();
      EffInt XV = EffInt::known(smt::mkVar(V));
      St.FooEnv[FooS->name()] = XV;
      St.TgtState.Env[TgtS->name()] = XV;
      InnerBound.insert(TgtS->name());
      // Premise: iterator in bounds (selection side).
      EffInt Lo = Ctx.liftControl(TgtS->lo(), St.TgtState.Env);
      EffInt Hi = Ctx.liftControl(TgtS->hi(), St.TgtState.Env);
      St.Premise = triAnd(St.Premise,
                          triAnd(triCmp(BinOpKind::Le, Lo, XV),
                                 triCmp(BinOpKind::Lt, XV, Hi)));
      return matchBlocks(FooS->body(), TgtS->body());
    }
    case StmtKind::Alloc: {
      const Type &FT = FooS->allocType();
      const Type &TT = TgtS->allocType();
      if (FT.elem() != TT.elem() || FT.rank() != TT.rank() ||
          FooS->memName() != TgtS->memName())
        return fail("allocations differ");
      for (unsigned D = 0; D < FT.rank(); ++D)
        if (!equateControl(FT.dims()[D], TT.dims()[D]))
          return false;
      St.Bound[FooS->name()] = TgtS->name();
      InnerBound.insert(TgtS->name());
      return true;
    }
    case StmtKind::Call: {
      if (FooS->proc() != TgtS->proc() ||
          FooS->args().size() != TgtS->args().size())
        return fail("calls differ");
      for (size_t I = 0; I < FooS->args().size(); ++I)
        if (!matchExpr(FooS->args()[I], TgtS->args()[I]))
          return false;
      return true;
    }
    case StmtKind::WindowStmt:
      return fail("window statements are not unified");
    }
    return fail("unhandled statement kind");
  }

  bool matchBlocks(const Block &FooB, const Block &TgtB) {
    if (FooB.size() != TgtB.size())
      return fail("block sizes differ");
    for (size_t I = 0; I < FooB.size(); ++I)
      if (!matchStmt(FooB[I], TgtB[I]))
        return false;
    return true;
  }

  //--------------------------------------------------------------------
  // Solving
  //--------------------------------------------------------------------

  bool solveSystem() {
    bool Progress = true;
    while (Progress) {
      Progress = false;
      for (size_t I = 0; I < St.Equations.size(); ++I) {
        LinearForm &Eq = St.Equations[I];
        // Count unknowns in this equation.
        unsigned TheUnknown = 0;
        int64_t Coeff = 0;
        unsigned Count = 0;
        for (auto &[Var, C] : Eq.coeffs()) {
          if (Unknowns.count(Var) && !Solution.count(Var)) {
            ++Count;
            TheUnknown = Var;
            Coeff = C;
          }
        }
        if (Count != 1)
          continue;
        // u = -(rest)/coeff; require exact division.
        LinearForm Rest = Eq;
        Rest.setCoeff(TheUnknown, 0);
        LinearForm Value;
        bool Divisible = floorMod(Rest.constant(), Coeff) == 0;
        for (auto &[Var, C] : Rest.coeffs())
          Divisible &= floorMod(C, Coeff) == 0;
        if (!Divisible)
          continue;
        for (auto &[Var, C] : Rest.coeffs())
          Value.setCoeff(Var, -C / Coeff);
        Value.setConstant(-Rest.constant() / Coeff);
        Solution[TheUnknown] = Value;
        // Substitute into every equation.
        for (auto &E : St.Equations)
          E = E.substituted(TheUnknown, Value);
        Progress = true;
      }
    }
    // Every unknown that appears anywhere must be solved.
    for (auto &Eq : St.Equations)
      for (auto &[Var, C] : Eq.coeffs())
        if (Unknowns.count(Var) && !Solution.count(Var))
          return fail("under-determined unification (unsolved unknown)");
    // Unreferenced control args (e.g. an argument only used in asserts)
    // are unsolved too — fail loudly.
    for (auto &[ArgSym, VarId] : ArgVars)
      if (!Solution.count(VarId))
        return fail("argument '" + ArgSym.name() +
                    "' is not determined by the selected code");
    for (auto &[BufSym, B] : St.Buffers)
      for (auto &D : B.Dims)
        if (!Solution.count(D.OffsetVar))
          return fail("window offset of '" + BufSym.name() +
                      "' is not determined");
    return true;
  }

  bool checkResiduals() {
    for (auto &Eq : St.Equations) {
      if (Eq.isConstant() && Eq.constant() == 0)
        continue;
      smt::TermRef Zero = smt::eq(smt::linearToTerm(Eq), smt::intConst(0));
      if (!provedUnderPremise(Ctx, St.Premise, Zero))
        return fail("residual equation not valid: " + Eq.str() + " == 0");
    }
    return true;
  }

  /// Renders a solved linear form back into an expression; fails if it
  /// references symbols bound inside the selection.
  Expected<ExprRef> formToExpr(const LinearForm &F, ScalarKind K) {
    ExprRef Out = litInt(F.constant(), K == ScalarKind::Bool ? ScalarKind::Int
                                                             : K);
    for (auto &[Var, C] : F.coeffs()) {
      ExprRef Known;
      auto It = KnownExpr.find(Var);
      if (It != KnownExpr.end()) {
        Known = It->second;
      } else if (auto S = Ctx.symFor(Var)) {
        Known = Expr::read(*S, {}, Type(ScalarKind::Int));
      } else if (auto Str = Ctx.strideFor(Var)) {
        Known = Expr::stride(Str->first, Str->second);
      } else {
        return makeError(Error::Kind::Unification,
                         "solution references an internal variable");
      }
      if (Known->kind() == ExprKind::Read &&
          InnerBound.count(Known->name()))
        return makeError(Error::Kind::Unification,
                         "solution references '" + Known->name().name() +
                             "' bound inside the selection");
      ExprRef TermE = C == 1 ? Known : eMul(litInt(C), Known);
      Out = eAdd(Out, TermE);
    }
    return simplifyExpr(Out);
  }

public:
  /// Pre-chosen interval/point choice per buffer parameter (set by the
  /// backtracking driver before unify()).
  std::map<Sym, std::vector<bool>> DimChoices;

  /// After success: unknown var -> linear form over knowns.
  std::map<unsigned, LinearForm> Solution;

private:
  AnalysisCtx &Ctx;
  const Proc &Target;
  UnifyState St;
  std::set<unsigned> Unknowns;
  std::map<Sym, unsigned> ArgVars;            ///< control arg -> var id
  std::map<unsigned, ExprRef> KnownExpr;      ///< known var -> rebuild expr
  std::set<Sym> InnerBound;                   ///< selection-bound symbols
  std::string Why;

public:
  Expected<std::vector<ExprRef>> buildArguments() {
    // Map target arg syms to their solved expressions (needed to
    // instantiate window extents that mention size arguments).
    SymSubst ArgValueMap;
    std::map<Sym, ExprRef> ControlValues;
    for (auto &[ArgSym, VarId] : ArgVars) {
      const FnArg *A = Target.findArg(ArgSym);
      auto E = formToExpr(Solution[VarId], A->Ty.elem());
      if (!E)
        return E.error();
      ControlValues[ArgSym] = *E;
      ArgValueMap[ArgSym] = *E;
    }

    std::vector<ExprRef> Args;
    for (const FnArg &A : Target.args()) {
      if (A.Ty.isControl()) {
        Args.push_back(ControlValues.at(A.Name));
        continue;
      }
      auto It = St.Buffers.find(A.Name);
      if (It == St.Buffers.end())
        return makeError(Error::Kind::Unification,
                         "buffer argument '" + A.Name.name() +
                             "' never accessed in the target body");
      const BufBinding &B = It->second;
      // Scalar data parameter: pass the matched element directly.
      if (!A.Ty.isTensor()) {
        std::vector<ExprRef> Idx;
        for (unsigned D = 0; D < B.TargetRank; ++D) {
          auto Off = formToExpr(Solution[B.Dims[D].OffsetVar],
                                ScalarKind::Int);
          if (!Off)
            return Off.error();
          Idx.push_back(*Off);
        }
        Args.push_back(
            Expr::read(B.TargetBase, std::move(Idx), Type(A.Ty.elem())));
        continue;
      }
      // Window coordinates: interval dims [off, off + extent), points off.
      std::vector<WinCoord> Coords;
      size_t FooDim = 0;
      for (unsigned D = 0; D < B.TargetRank; ++D) {
        auto Off = formToExpr(Solution[B.Dims[D].OffsetVar],
                              ScalarKind::Int);
        if (!Off)
          return Off.error();
        if (B.Dims[D].IsInterval) {
          ExprRef Extent =
              substExpr(A.Ty.dims()[FooDim++], ArgValueMap);
          ExprRef Hi = simplifyExpr(eAdd(*Off, Extent));
          Coords.push_back({true, *Off, Hi});
        } else {
          Coords.push_back({false, *Off, nullptr});
        }
      }
      std::vector<ExprRef> Dims;
      for (auto &Cd : Coords)
        if (Cd.IsInterval)
          Dims.push_back(simplifyExpr(eSub(Cd.Hi, Cd.Lo)));
      Args.push_back(Expr::window(
          B.TargetBase, std::move(Coords),
          Type::tensor(A.Ty.elem(), std::move(Dims), /*IsWindow=*/true)));
    }

    // Discharge the target's preconditions at this call site.
    for (const ExprRef &Pred : Target.preds()) {
      ExprRef Inst = substExpr(Pred, buildFullSubst(ControlValues, Args));
      TriBool PredT = Ctx.liftBool(Inst, St.TgtState.Env);
      ScheduleErrorInfo::Verdict V =
          dischargeUnderPremise(Ctx, St.Premise, PredT.Must);
      if (V != ScheduleErrorInfo::Verdict::Yes) {
        ScheduleErrorInfo EInfo;
        EInfo.Op = currentOpName();
        EInfo.Loc = printExpr(Inst);
        EInfo.SolverVerdict = V;
        return makeScheduleError(Error::Kind::Unification,
                                 "cannot prove the target's precondition '" +
                                     printExpr(Pred) + "' at the call site (" +
                                     printExpr(Inst) + ")",
                                 std::move(EInfo));
      }
    }
    return Args;
  }

private:
  SymSubst buildFullSubst(const std::map<Sym, ExprRef> &ControlValues,
                          const std::vector<ExprRef> &Args) {
    SymSubst Map;
    size_t I = 0;
    for (const FnArg &A : Target.args()) {
      Map[A.Name] = Args[I];
      ++I;
    }
    for (auto &[S, E] : ControlValues)
      Map[S] = E;
    return Map;
  }
};

/// Enumerates order-preserving interval choices: which \p TgtRank
/// dimensions carry the \p FooRank parameter dimensions.
void enumerateChoices(unsigned TgtRank, unsigned FooRank,
                      std::vector<std::vector<bool>> &Out) {
  std::vector<bool> Cur(TgtRank, false);
  std::function<void(unsigned, unsigned)> Rec = [&](unsigned Pos,
                                                    unsigned Left) {
    if (Left == 0) {
      Out.push_back(Cur);
      return;
    }
    if (Pos >= TgtRank || TgtRank - Pos < Left)
      return;
    Cur[Pos] = true;
    Rec(Pos + 1, Left - 1);
    Cur[Pos] = false;
    Rec(Pos + 1, Left);
  };
  Rec(0, FooRank);
}

/// Finds, for each tensor parameter of the target, the selection buffer
/// it must bind to and that buffer's rank (pure structural pre-pass).
bool discoverBufferBases(const Proc &Target, const Block &FooB,
                         const std::vector<StmtRef> &Selection,
                         std::map<Sym, std::pair<Sym, unsigned>> &Out);

bool discoverInStmt(const Proc &Target, const StmtRef &FooS,
                    const StmtRef &TgtS,
                    std::map<Sym, std::pair<Sym, unsigned>> &Out) {
  if (FooS->kind() != TgtS->kind())
    return false;
  // Access in the destination position.
  auto Note = [&](Sym FooBase, Sym TgtBase, unsigned Rank) {
    if (!Target.findArg(FooBase))
      return true; // bound local; handled by the matcher
    auto It = Out.find(FooBase);
    if (It == Out.end()) {
      Out.emplace(FooBase, std::make_pair(TgtBase, Rank));
      return true;
    }
    return It->second.first == TgtBase && It->second.second == Rank;
  };
  std::function<bool(const ExprRef &, const ExprRef &)> WalkE =
      [&](const ExprRef &F, const ExprRef &T) -> bool {
    if (F->kind() != T->kind())
      return true; // the matcher reports the real error
    if (F->kind() == ExprKind::Read && F->type().isData())
      if (!Note(F->name(), T->name(), T->args().size()))
        return false;
    auto FK = childExprs(F), TK = childExprs(T);
    if (FK.size() != TK.size())
      return true;
    for (size_t I = 0; I < FK.size(); ++I)
      if (FK[I] && TK[I] && !WalkE(FK[I], TK[I]))
        return false;
    return true;
  };
  if ((FooS->kind() == StmtKind::Assign || FooS->kind() == StmtKind::Reduce))
    if (!Note(FooS->name(), TgtS->name(), TgtS->indices().size()))
      return false;
  if (FooS->Rhs && TgtS->Rhs && !WalkE(FooS->Rhs, TgtS->Rhs))
    return false;
  for (size_t I = 0;
       I < std::min(FooS->indices().size(), TgtS->indices().size()); ++I)
    if (!WalkE(FooS->indices()[I], TgtS->indices()[I]))
      return false;
  if (FooS->body().size() == TgtS->body().size())
    for (size_t I = 0; I < FooS->body().size(); ++I)
      if (!discoverInStmt(Target, FooS->body()[I], TgtS->body()[I], Out))
        return false;
  if (FooS->orelse().size() == TgtS->orelse().size())
    for (size_t I = 0; I < FooS->orelse().size(); ++I)
      if (!discoverInStmt(Target, FooS->orelse()[I], TgtS->orelse()[I], Out))
        return false;
  return true;
}

bool discoverBufferBases(const Proc &Target, const Block &FooB,
                         const std::vector<StmtRef> &Selection,
                         std::map<Sym, std::pair<Sym, unsigned>> &Out) {
  if (FooB.size() != Selection.size())
    return false;
  for (size_t I = 0; I < FooB.size(); ++I)
    if (!discoverInStmt(Target, FooB[I], Selection[I], Out))
      return false;
  return true;
}

} // namespace

Expected<ProcRef> exo::scheduling::replaceWith(const Cursor &Stmts,
                                               const ProcRef &Target) {
  ScopedOpName OpName(ops::Replace);
  auto C = selection(Stmts, /*Multi=*/true);
  if (!C)
    return C.error();
  const ProcRef &P = Stmts.proc();
  std::vector<StmtRef> Sel = selectedStmts(*P, *C);

  // Pre-pass: bind each tensor parameter to a selection buffer.
  std::map<Sym, std::pair<Sym, unsigned>> Bases;
  if (!discoverBufferBases(*Target, Target->body(), Sel, Bases))
    return makeError(Error::Kind::Unification,
                     "replace: selection shape does not match '" +
                         Target->name() + "'");

  // Enumerate the categorical window choices per buffer parameter (§3.4).
  std::vector<Sym> BufParams;
  std::vector<std::vector<std::vector<bool>>> Options;
  size_t Total = 1;
  for (auto &[ParamSym, BaseRank] : Bases) {
    const FnArg *A = Target->findArg(ParamSym);
    assert(A && "non-arg in Bases");
    unsigned FooRank = A->Ty.isTensor() ? A->Ty.rank() : 0;
    std::vector<std::vector<bool>> Choice;
    enumerateChoices(BaseRank.second, FooRank, Choice);
    if (Choice.empty())
      return makeError(Error::Kind::Unification,
                       "replace: parameter '" + ParamSym.name() +
                           "' has higher rank than the matched buffer");
    BufParams.push_back(ParamSym);
    Options.push_back(std::move(Choice));
    Total *= Options.back().size();
    if (Total > 256)
      return makeError(Error::Kind::Unification,
                       "replace: too many window orientation choices");
  }

  AnalysisCtx Ctx;
  ContextInfo Info = computeContext(Ctx, *P, *C);

  std::string LastWhy = "no candidate matched";
  std::vector<size_t> Pick(BufParams.size(), 0);
  for (size_t Combo = 0; Combo < Total; ++Combo) {
    // Decode the combination index.
    size_t Rem = Combo;
    for (size_t I = 0; I < BufParams.size(); ++I) {
      Pick[I] = Rem % Options[I].size();
      Rem /= Options[I].size();
    }
    Unifier U(Ctx, *Target, Info);
    for (size_t I = 0; I < BufParams.size(); ++I)
      U.DimChoices[BufParams[I]] = Options[I][Pick[I]];
    if (!U.unify(Sel)) {
      LastWhy = U.why();
      continue;
    }
    auto Args = U.buildArguments();
    if (!Args) {
      LastWhy = Args.error().message();
      continue;
    }
    StmtRef Call = Stmt::call(Target, std::move(*Args));
    return deriveProc(P, replaceRange(P->body(), *C, {Call}), *C, 1);
  }
  return makeError(Error::Kind::Unification,
                   "replace with '" + Target->name() + "' failed: " +
                       LastWhy);
}
