//===- scheduling/MemOps.cpp - Memory staging & annotations ----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "scheduling/OpsCommon.h"

#include "ir/Builder.h"
#include "ir/Printer.h"

#include <functional>
#include <set>

using namespace exo;
using namespace exo::scheduling;
using namespace exo::ir;
using namespace exo::analysis;

namespace {

/// Access kinds observed for the staged buffer inside the selection.
struct AccessSummary {
  bool Reads = false;
  bool Assigns = false;
  bool Reduces = false;
};

/// Rewrites accesses to Buf inside the selection to go through the stage
/// buffer, collecting containment proof obligations along the way.
class StageRewriter {
public:
  StageRewriter(AnalysisCtx &Ctx, const ContextInfo &Info, Sym Buf,
                const std::vector<WinCoord> &Coords, Sym Stage)
      : Ctx(Ctx), Buf(Buf), Coords(Coords), Stage(Stage) {
    State = Info.Pre;
    Premise = Info.PathCond;
  }

  AccessSummary Summary;
  std::optional<Error> Err;

  Block rewriteBlock(const Block &B) {
    Block Out;
    for (auto &S : B)
      Out.push_back(rewriteStmt(S));
    return Out;
  }

private:
  void fail(const std::string &Msg) {
    if (!Err)
      Err = makeError(Error::Kind::Safety, "stage_mem: " + Msg);
  }

  /// A failed containment proof: record the solver's verdict so callers
  /// can tell a refuted obligation from an exhausted budget.
  void failProof(const std::string &Msg, const std::string &Loc,
                 ScheduleErrorInfo::Verdict V) {
    if (Err)
      return;
    ScheduleErrorInfo Info;
    Info.Op = currentOpName();
    Info.Loc = Loc;
    Info.SolverVerdict = V;
    Err = makeScheduleError(Error::Kind::Safety, "stage_mem: " + Msg,
                            std::move(Info));
  }

  /// Maps original buffer indices to stage indices, checking containment.
  std::vector<ExprRef> mapIndices(const std::vector<ExprRef> &Idx) {
    if (Idx.size() != Coords.size()) {
      fail("rank mismatch accessing staged buffer");
      return {};
    }
    std::vector<ExprRef> Out;
    for (size_t D = 0; D < Coords.size(); ++D) {
      EffInt Coord = Ctx.liftControl(Idx[D], State.Env);
      EffInt LoV = Ctx.liftControl(Coords[D].Lo, State.Env);
      if (Coords[D].IsInterval) {
        EffInt HiV = Ctx.liftControl(Coords[D].Hi, State.Env);
        TriBool In = triAnd(triCmp(BinOpKind::Le, LoV, Coord),
                            triCmp(BinOpKind::Lt, Coord, HiV));
        ScheduleErrorInfo::Verdict V =
            dischargeUnderPremise(Ctx, Premise, In.Must);
        if (V != ScheduleErrorInfo::Verdict::Yes)
          failProof("access " + printExpr(Idx[D]) +
                        " is not provably inside the staged window "
                        "dimension " +
                        std::to_string(D),
                    printExpr(Idx[D]), V);
        Out.push_back(simplifyExpr(eSub(Idx[D], Coords[D].Lo)));
      } else {
        TriBool EqPt = triEq(Coord, LoV);
        ScheduleErrorInfo::Verdict V =
            dischargeUnderPremise(Ctx, Premise, EqPt.Must);
        if (V != ScheduleErrorInfo::Verdict::Yes)
          failProof("access " + printExpr(Idx[D]) +
                        " does not provably equal the staged point "
                        "coordinate " +
                        printExpr(Coords[D].Lo),
                    printExpr(Idx[D]), V);
        // Point dimensions vanish from the stage.
      }
    }
    return Out;
  }

  ExprRef rewriteExpr(const ExprRef &E) {
    switch (E->kind()) {
    case ExprKind::Read: {
      std::vector<ExprRef> Idx;
      for (auto &I : E->args())
        Idx.push_back(rewriteExpr(I));
      if (E->name() != Buf)
        return Expr::read(E->name(), std::move(Idx), E->type());
      if (Idx.empty()) {
        fail("whole-buffer use of the staged buffer in the selection");
        return E;
      }
      Summary.Reads = true;
      return Expr::read(Stage, mapIndices(Idx), E->type());
    }
    case ExprKind::WindowExpr:
      if (E->name() == Buf) {
        fail("window of the staged buffer inside the selection is not "
             "supported");
        return E;
      }
      return E;
    default: {
      std::vector<ExprRef> Kids = childExprs(E);
      bool Changed = false;
      for (auto &K : Kids) {
        if (!K)
          continue;
        ExprRef R = rewriteExpr(K);
        Changed |= R != K;
        K = R;
      }
      return Changed ? withNewArgs(E, std::move(Kids)) : E;
    }
    }
  }

  StmtRef rewriteStmt(const StmtRef &S) {
    switch (S->kind()) {
    case StmtKind::Assign:
    case StmtKind::Reduce: {
      std::vector<ExprRef> Idx;
      for (auto &I : S->indices())
        Idx.push_back(rewriteExpr(I));
      ExprRef Rhs = rewriteExpr(S->rhs());
      Sym Dst = S->name();
      if (Dst == Buf) {
        (S->kind() == StmtKind::Assign ? Summary.Assigns : Summary.Reduces) =
            true;
        Idx = mapIndices(Idx);
        Dst = Stage;
      }
      return S->kind() == StmtKind::Assign
                 ? Stmt::assign(Dst, std::move(Idx), std::move(Rhs))
                 : Stmt::reduce(Dst, std::move(Idx), std::move(Rhs));
    }
    case StmtKind::WriteConfig:
      return Stmt::writeConfig(S->name(), S->field(), rewriteExpr(S->rhs()));
    case StmtKind::Pass:
    case StmtKind::Alloc:
      return S;
    case StmtKind::If: {
      ExprRef Cond = rewriteExpr(S->rhs());
      TriBool CondT = Ctx.liftBool(S->rhs(), State.Env);
      TriBool Saved = Premise;
      Premise = triAnd(Premise, CondT);
      Block Body = rewriteBlock(S->body());
      Premise = triAnd(Saved, triNot(CondT));
      Block Orelse = rewriteBlock(S->orelse());
      Premise = Saved;
      return Stmt::ifStmt(std::move(Cond), std::move(Body),
                          std::move(Orelse));
    }
    case StmtKind::For: {
      ExprRef Lo = rewriteExpr(S->lo());
      ExprRef Hi = rewriteExpr(S->hi());
      EffInt LoV = Ctx.liftControl(S->lo(), State.Env);
      EffInt HiV = Ctx.liftControl(S->hi(), State.Env);
      smt::TermVar X = smt::freshVar(S->name().name(), smt::Sort::Int);
      EffInt XV = EffInt::known(smt::mkVar(X));
      TriBool Saved = Premise;
      auto SavedBinding = State.Env.find(S->name()) != State.Env.end()
                              ? std::optional<EffInt>(State.Env[S->name()])
                              : std::nullopt;
      State.Env[S->name()] = XV;
      Premise = triAnd(Premise, triAnd(triCmp(BinOpKind::Le, LoV, XV),
                                       triCmp(BinOpKind::Lt, XV, HiV)));
      Block Body = rewriteBlock(S->body());
      Premise = Saved;
      if (SavedBinding)
        State.Env[S->name()] = *SavedBinding;
      else
        State.Env.erase(S->name());
      return Stmt::forStmt(S->name(), std::move(Lo), std::move(Hi),
                           std::move(Body));
    }
    case StmtKind::Call: {
      std::vector<ExprRef> Args;
      for (auto &A : S->args()) {
        if ((A->kind() == ExprKind::Read || A->kind() == ExprKind::WindowExpr)
            && A->name() == Buf) {
          fail("staged buffer passed to a call inside the selection; "
               "inline the call first");
          return S;
        }
        Args.push_back(rewriteExpr(A));
      }
      return Stmt::call(S->proc(), std::move(Args));
    }
    case StmtKind::WindowStmt:
      if (S->rhs()->name() == Buf) {
        fail("window of the staged buffer inside the selection is not "
             "supported");
      }
      return S;
    }
    return S;
  }

  AnalysisCtx &Ctx;
  Sym Buf;
  const std::vector<WinCoord> &Coords;
  Sym Stage;
  FlowState State;
  TriBool Premise;
};

} // namespace

Expected<ProcRef> exo::scheduling::stageMem(const Cursor &Stmts,
                                            const std::string &WindowSrc,
                                            const std::string &NewName,
                                            const std::string &Mem) {
  ScopedOpName OpName(ops::Stage);
  auto C = selection(Stmts, /*Multi=*/true);
  if (!C)
    return C.error();
  const ProcRef &P = Stmts.proc();
  OpContext Op(P, *C);
  std::vector<StmtRef> Sel = Op.stmts();

  frontend::ParseEnv Env;
  auto W = frontend::parseExprInScope(WindowSrc, scopeAt(*P, *C), Env);
  if (!W)
    return W.error();
  Sym Buf;
  std::vector<WinCoord> Coords;
  ScalarKind Elem;
  if ((*W)->kind() == ExprKind::WindowExpr) {
    Buf = (*W)->name();
    Coords = (*W)->winCoords();
    Elem = (*W)->type().elem();
  } else if ((*W)->kind() == ExprKind::Read && (*W)->type().isTensor()) {
    // Whole-buffer staging: every dimension is a full interval.
    Buf = (*W)->name();
    Elem = (*W)->type().elem();
    for (auto &D : (*W)->type().dims())
      Coords.push_back({true, litInt(0), D});
  } else {
    return makeError(Error::Kind::Scheduling,
                     "stage_mem: '" + WindowSrc + "' is not a window");
  }

  // Stage dimensions: extents of the interval coordinates.
  std::vector<ExprRef> Dims;
  for (auto &Cd : Coords)
    if (Cd.IsInterval)
      Dims.push_back(simplifyExpr(eSub(Cd.Hi, Cd.Lo)));
  if (Dims.empty())
    return makeError(Error::Kind::Scheduling,
                     "stage_mem: window must keep at least one interval");

  Sym Stage = Sym::fresh(NewName);
  StageRewriter RW(Op.Ctx, Op.info(), Buf, Coords, Stage);
  Block NewSel;
  for (auto &S : Sel) {
    Block One = RW.rewriteBlock({S});
    NewSel.push_back(One[0]);
  }
  if (RW.Err)
    return *RW.Err;
  if (!RW.Summary.Reads && !RW.Summary.Assigns && !RW.Summary.Reduces)
    return makeError(Error::Kind::Scheduling,
                     "stage_mem: selection never accesses '" +
                         Buf.name() + "'");
  if (RW.Summary.Reduces && (RW.Summary.Reads || RW.Summary.Assigns))
    return makeError(Error::Kind::Scheduling,
                     "stage_mem: mixing reductions with reads/writes of the "
                     "staged buffer is not supported");

  bool ReduceOnly = RW.Summary.Reduces;
  // Reduce-only staging zero-initializes the stage; otherwise the window
  // contents are copied in.
  bool NeedCopyIn = true;
  bool NeedCopyOut = ReduceOnly || RW.Summary.Assigns;

  // Build the copy loops.
  auto makeCopy = [&](bool In) -> StmtRef {
    std::vector<Sym> Iters;
    std::vector<ExprRef> StageIdx, BufIdx;
    size_t DimIdx = 0;
    for (auto &Cd : Coords) {
      if (Cd.IsInterval) {
        Sym It = Sym::fresh("i" + std::to_string(DimIdx));
        Iters.push_back(It);
        ExprRef V = Expr::read(It, {}, Type(ScalarKind::Index));
        StageIdx.push_back(V);
        BufIdx.push_back(simplifyExpr(eAdd(Cd.Lo, V)));
        ++DimIdx;
      } else {
        BufIdx.push_back(Cd.Lo);
      }
    }
    StmtRef Inner;
    if (In) {
      if (ReduceOnly)
        Inner = Stmt::assign(Stage, StageIdx, litData(0.0, Elem));
      else
        Inner = Stmt::assign(Stage, StageIdx,
                             Expr::read(Buf, BufIdx, Type(Elem)));
    } else {
      ExprRef StageRead = Expr::read(Stage, StageIdx, Type(Elem));
      Inner = ReduceOnly ? Stmt::reduce(Buf, BufIdx, StageRead)
                         : Stmt::assign(Buf, BufIdx, StageRead);
    }
    // Wrap innermost-out.
    for (size_t I = Iters.size(); I-- > 0;)
      Inner = Stmt::forStmt(Iters[I], litInt(0), Dims[I], {Inner});
    return Inner;
  };

  std::vector<StmtRef> Replacement;
  Replacement.push_back(
      Stmt::alloc(Stage, Type::tensor(Elem, Dims), Mem));
  if (NeedCopyIn)
    Replacement.push_back(makeCopy(/*In=*/true));
  for (auto &S : NewSel)
    Replacement.push_back(S);
  if (NeedCopyOut)
    Replacement.push_back(makeCopy(/*In=*/false));
  return Op.derive(Replacement);
}

namespace {

/// Retypes every use of a symbol in \p Targets (reads, windows) to the new
/// element kind; used by setPrecision.
ExprRef retypeExpr(const ExprRef &E, const std::set<Sym> &Targets,
                   ScalarKind K) {
  std::vector<ExprRef> Kids = childExprs(E);
  bool Changed = false;
  for (auto &Kid : Kids) {
    if (!Kid)
      continue;
    ExprRef R = retypeExpr(Kid, Targets, K);
    Changed |= R != Kid;
    Kid = R;
  }
  ExprRef Base = Changed ? withNewArgs(E, std::move(Kids)) : E;
  if ((Base->kind() == ExprKind::Read || Base->kind() == ExprKind::WindowExpr)
      && Targets.count(Base->name()) && Base->type().isData()) {
    auto Copy = std::make_shared<Expr>(*Base);
    Copy->Ty = Base->type().withElem(K);
    return Copy;
  }
  return Base;
}

StmtRef retypeStmt(const StmtRef &S, std::set<Sym> &Targets, ScalarKind K);

Block retypeBlock(const Block &B, std::set<Sym> &Targets, ScalarKind K) {
  Block Out;
  for (auto &S : B)
    Out.push_back(retypeStmt(S, Targets, K));
  return Out;
}

/// Statements are visited in program order, so a window bound from a
/// target (`w = t[...]`) joins \p Targets before its uses, and windows of
/// that window (`v = w[...]`) follow transitively.
StmtRef retypeStmt(const StmtRef &S, std::set<Sym> &Targets, ScalarKind K) {
  auto Copy = std::make_shared<Stmt>(*S);
  for (auto &I : Copy->Idx)
    I = retypeExpr(I, Targets, K);
  if (Copy->Rhs)
    Copy->Rhs = retypeExpr(Copy->Rhs, Targets, K);
  if (Copy->LoE)
    Copy->LoE = retypeExpr(Copy->LoE, Targets, K);
  if (Copy->HiE)
    Copy->HiE = retypeExpr(Copy->HiE, Targets, K);
  if (S->kind() == StmtKind::Alloc && Targets.count(S->name()))
    Copy->AllocTy = S->allocType().withElem(K);
  if (S->kind() == StmtKind::WindowStmt && Targets.count(S->rhs()->name()))
    Targets.insert(S->name());
  Copy->Body = retypeBlock(S->body(), Targets, K);
  Copy->Orelse = retypeBlock(S->orelse(), Targets, K);
  return Copy;
}

/// The first allocation named \p Name: how the name-addressed
/// set_memory and set_precision find an allocation that is not an
/// argument.
Expected<StmtCursor> allocNamed(const ProcRef &P, const std::string &Name) {
  std::string Pat = Name + " : _";
  auto C = Cursor::find(P, Pat);
  if (!C) {
    ScheduleErrorInfo Info;
    Info.Op = currentOpName();
    Info.Pattern = Pat;
    return C.error().withScheduleInfo(std::move(Info));
  }
  return selectionOfKind(*C, StmtKind::Alloc, "an allocation");
}

} // namespace

Expected<ProcRef> exo::scheduling::setMemory(const ProcRef &P,
                                             const std::string &Name,
                                             const std::string &Mem) {
  ScopedOpName OpName(ops::SetMemory);
  // Argument?
  for (size_t I = 0; I < P->args().size(); ++I) {
    if (P->args()[I].Name.name() == Name) {
      auto Q = P->clone();
      std::vector<FnArg> Args = P->args();
      Args[I].Mem = Mem;
      Q->setArgs(std::move(Args));
      Q->setProvenance(P, {});
      return ProcRef(Q);
    }
  }
  // Allocation.
  auto C = allocNamed(P, Name);
  if (!C)
    return C.error();
  OpContext Op(P, *C);
  StmtRef Alloc = Op.stmt();
  StmtRef NewAlloc = Stmt::alloc(Alloc->name(), Alloc->allocType(), Mem);
  return Op.derive({NewAlloc});
}

Expected<ProcRef> exo::scheduling::setPrecision(const ProcRef &P,
                                                const std::string &Name,
                                                ScalarKind Precision) {
  ScopedOpName OpName(ops::SetPrecision);
  if (!isDataScalar(Precision))
    return makeError(Error::Kind::Scheduling,
                     "set_precision: not a data precision");
  // Argument?
  Sym Target;
  for (auto &A : P->args())
    if (A.Name.name() == Name)
      Target = A.Name;
  if (!Target.valid()) {
    auto C = allocNamed(P, Name);
    if (!C)
      return C.error();
    Target = selectedStmts(*P, *C)[0]->name();
  }

  auto Q = P->clone();
  std::vector<FnArg> Args = P->args();
  for (auto &A : Args)
    if (A.Name == Target)
      A.Ty = A.Ty.withElem(Precision);
  Q->setArgs(std::move(Args));
  std::set<Sym> Targets = {Target};
  Q->setBody(retypeBlock(P->body(), Targets, Precision));
  Q->setProvenance(P, {});
  return ProcRef(Q);
}
