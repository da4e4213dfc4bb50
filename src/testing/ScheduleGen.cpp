//===- testing/ScheduleGen.cpp - Random schedule driver ------------------===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "testing/ScheduleGen.h"

#include "hwlibs/avx512/Avx512Lib.h"
#include "hwlibs/gemmini/GemminiLib.h"
#include "ir/Builder.h"
#include "scheduling/Procedures.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <charconv>
#include <functional>
#include <limits>
#include <optional>

using namespace exo;
using namespace exo::ir;
using namespace exo::testing;
using namespace exo::scheduling;

//===----------------------------------------------------------------------===//
// Trace serialization
//===----------------------------------------------------------------------===//

std::string ScheduleStep::str() const {
  std::string S = Op;
  for (const std::string &A : Args) {
    S += '|';
    S += A;
  }
  return S;
}

Expected<ScheduleStep> ScheduleStep::parse(const std::string &Line) {
  ScheduleStep S;
  size_t Pos = 0;
  bool First = true;
  while (Pos <= Line.size()) {
    size_t Bar = Line.find('|', Pos);
    std::string Tok = Bar == std::string::npos ? Line.substr(Pos)
                                               : Line.substr(Pos, Bar - Pos);
    if (First) {
      S.Op = Tok;
      First = false;
    } else {
      S.Args.push_back(Tok);
    }
    if (Bar == std::string::npos)
      break;
    Pos = Bar + 1;
  }
  if (S.Op.empty())
    return makeError(Error::Kind::Parse, "empty schedule-trace line");
  return S;
}

//===----------------------------------------------------------------------===//
// Step application: typed arguments, the op table, the interpreter
//===----------------------------------------------------------------------===//

namespace {

/// Parses a signed decimal trace integer; malformed or out-of-range text
/// is a Parse error.
Expected<int64_t> parseTraceInt(const std::string &S) {
  int64_t V = 0;
  const char *End = S.data() + S.size();
  auto [Ptr, Ec] = std::from_chars(S.data(), End, V);
  if (Ec != std::errc() || Ptr != End)
    return makeError(Error::Kind::Parse, "bad number in trace: '" + S + "'");
  return V;
}

/// Split-tail spellings, in SplitTail order.
const char *const TailNames[] = {"guard", "cut", "perfect"};

/// Resolves "gemmini:<name>" / "avx512:<name>" instruction references for
/// replace steps; the libraries register their memories as a side effect.
Expected<ProcRef> resolveInstr(const std::string &Ref) {
  const auto &G = hw::gemmini::gemminiLib();
  const auto &V = hw::avx512::avx512Lib();
  struct Entry {
    const char *Name;
    const ProcRef &P;
  };
  const Entry Table[] = {
      {"gemmini:ld_data", G.LdData},       {"gemmini:ld_data2", G.LdData2},
      {"gemmini:zero_acc", G.ZeroAcc},     {"gemmini:matmul16", G.Matmul16},
      {"gemmini:st_acc", G.StAcc},         {"gemmini:st_acc_relu", G.StAccRelu},
      {"gemmini:config_ld1", G.ConfigLd1}, {"gemmini:config_ld2", G.ConfigLd2},
      {"gemmini:config_st", G.ConfigSt},
      {"avx512:loadu_ps", V.LoaduPs},      {"avx512:storeu_ps", V.StoreuPs},
      {"avx512:zero_ps", V.ZeroPs},        {"avx512:fmadd_ps", V.FmaddPs},
      {"avx512:accum_ps", V.AccumPs},      {"avx512:relu_ps", V.ReluPs},
  };
  for (const Entry &E : Table)
    if (Ref == E.Name)
      return E.P;
  return makeError(Error::Kind::Parse, "unknown instruction ref '" + Ref + "'");
}

/// Resolves "gemmini:<name>" configuration-struct references for
/// config_write steps.
Expected<ConfigRef> resolveConfig(const std::string &Ref) {
  const auto &G = hw::gemmini::gemminiLib();
  struct Entry {
    const char *Name;
    const ConfigRef &C;
  };
  const Entry Table[] = {
      {"gemmini:cfg_ld1", G.CfgLd1},
      {"gemmini:cfg_ld2", G.CfgLd2},
      {"gemmini:cfg_st", G.CfgSt},
  };
  for (const Entry &E : Table)
    if (Ref == E.Name)
      return E.C;
  return makeError(Error::Kind::Parse, "unknown config ref '" + Ref + "'");
}

/// Parses one argument into \p Out; nullopt on success. Targets keep
/// their text here and are resolved once every scalar has parsed.
std::optional<Error> parseArg(TraceArgKind K, const std::string &Text,
                              TraceArg &Out) {
  Out.Str = Text;
  switch (K) {
  case TraceArgKind::Count:
  case TraceArgKind::Int:
  case TraceArgKind::Tunable: {
    auto V = parseTraceInt(Text);
    if (!V)
      return V.error();
    if (K == TraceArgKind::Count &&
        (*V < 1 || *V > std::numeric_limits<unsigned>::max()))
      return makeError(Error::Kind::Parse, "bad selection count in trace: '" +
                                               Text + "' (must be >= 1)");
    Out.Int = *V;
    return std::nullopt;
  }
  case TraceArgKind::Memory:
    // Touch the library singletons so their memories are registered
    // before codegen meets the annotation.
    if (Text == "AVX512")
      (void)hw::avx512::avx512Lib();
    if (Text == "GEMM_SCRATCH" || Text == "GEMM_ACC")
      (void)hw::gemmini::gemminiLib();
    return std::nullopt;
  case TraceArgKind::Tail:
    for (SplitTail T : {SplitTail::Guard, SplitTail::Cut, SplitTail::Perfect})
      if (Text == TailNames[int(T)]) {
        Out.Tail = T;
        return std::nullopt;
      }
    return makeError(Error::Kind::Parse,
                     "bad split tail in trace: '" + Text + "'");
  case TraceArgKind::Precision:
    for (ScalarKind P : {ScalarKind::F32, ScalarKind::F64, ScalarKind::I8,
                         ScalarKind::I16, ScalarKind::I32})
      if (Text == scalarKindName(P)) {
        Out.Precision = P;
        return std::nullopt;
      }
    return makeError(Error::Kind::Parse,
                     "bad precision in trace: '" + Text + "'");
  case TraceArgKind::Instr: {
    auto I = resolveInstr(Text);
    if (!I)
      return I.error();
    Out.Instr = *I;
    return std::nullopt;
  }
  case TraceArgKind::Config: {
    auto C = resolveConfig(Text);
    if (!C)
      return C.error();
    Out.Config = *C;
    return std::nullopt;
  }
  case TraceArgKind::Loop:
  case TraceArgKind::Stmt:
  case TraceArgKind::Name:
    return std::nullopt;
  }
  return std::nullopt;
}

/// Resolves a target argument to the pattern the primitive receives. A
/// "@nav" suffix goes through Cursor navigation; \p Width widens the
/// navigated selection the way the selection-width Cursor overloads do.
Expected<std::string> resolveTarget(const ProcRef &P, const std::string &Arg,
                                    bool Loop, unsigned Width) {
  size_t At = Arg.rfind(" @");
  if (At == std::string::npos)
    return Loop ? Schedule::loopPattern(Arg) : Arg;
  std::string Pat = trimString(Arg.substr(0, At));
  auto Found = Cursor::find(P, Loop ? Schedule::loopPattern(Pat) : Pat);
  if (!Found)
    return Found.error();
  Cursor Cur = *Found;
  std::string Nav = Arg.substr(At + 2);
  size_t Pos = 0;
  for (;;) {
    size_t Dot = Nav.find('.', Pos);
    std::string Step = trimString(Dot == std::string::npos
                                      ? Nav.substr(Pos)
                                      : Nav.substr(Pos, Dot - Pos));
    Expected<Cursor> Next = makeError(Error::Kind::Parse, "");
    if (Step == "body")
      Next = Cur.body();
    else if (Step == "orelse")
      Next = Cur.orelse();
    else if (Step == "next")
      Next = Cur.next();
    else if (Step == "prev")
      Next = Cur.prev();
    else if (Step == "parent")
      Next = Cur.parent();
    else
      return makeError(Error::Kind::Parse,
                       "unknown cursor navigation '" + Step + "' in '" +
                           Arg + "'");
    if (!Next)
      return Next.error();
    Cur = *Next;
    if (Dot == std::string::npos)
      break;
    Pos = Dot + 1;
  }
  if (Width > 1) {
    auto Wide = Cur.expand(Width - 1);
    if (!Wide)
      return Wide.error();
    Cur = *Wide;
  }
  return Cur.pattern();
}

/// TEST-ONLY unsound rewrite: shrinks the Nth loop (pre-order, counted
/// among loops whose iterator is named \p Iter) to skip its last
/// iteration — deliberately with no safety check. Exists so the
/// acceptance test can prove the triple oracle catches a semantics break.
Expected<ProcRef> unsoundDropIter(const ProcRef &P, const std::string &Iter,
                                  int64_t Nth) {
  int64_t Remaining = Nth;
  bool Done = false;
  // Mirrors the pre-order of Pattern.cpp's searchBlock.
  std::function<Block(const Block &)> rewrite = [&](const Block &B) -> Block {
    Block Out;
    for (const StmtRef &S : B) {
      if (Done) {
        Out.push_back(S);
        continue;
      }
      if (S->kind() == StmtKind::For && S->name().name() == Iter) {
        if (Remaining == 0) {
          Done = true;
          Out.push_back(withForParts(S, S->lo(),
                                     eSub(S->hi(), litInt(1)), S->body()));
          continue;
        }
        --Remaining;
      }
      StmtRef New = S;
      if (!S->body().empty() || !S->orelse().empty()) {
        Block NewBody = S->body().empty() ? Block{} : rewrite(S->body());
        Block NewOrelse = S->orelse().empty() ? Block{} : rewrite(S->orelse());
        if (S->kind() == StmtKind::For)
          New = withForParts(S, S->lo(), S->hi(), std::move(NewBody));
        else if (S->kind() == StmtKind::If)
          New = withIfParts(S, S->rhs(), std::move(NewBody),
                            std::move(NewOrelse));
      }
      Out.push_back(New);
    }
    return Out;
  };
  Block NewBody = rewrite(P->body());
  if (!Done)
    return makeError(Error::Kind::Pattern,
                     "unsound_drop_iter: no loop '" + Iter + "' #" +
                         std::to_string(Nth));
  auto C = P->clone();
  C->setBody(std::move(NewBody));
  C->setProvenance(P, {});
  return ProcRef(std::move(C));
}

} // namespace

const std::vector<TraceOp> &exo::testing::traceOps() {
  using K = TraceArgKind;
  using Args = std::vector<TraceArg>;
  static const std::vector<TraceOp> Table = {
      {ops::Split, {K::Loop, K::Tunable, K::Name, K::Name, K::Tail},
       [](const ProcRef &P, const Args &A) {
         return splitLoop(P, A[0].Str, A[1].Int, A[2].Str, A[3].Str,
                          A[4].Tail);
       }},
      {ops::Reorder, {K::Loop},
       [](const ProcRef &P, const Args &A) {
         return reorderLoops(P, A[0].Str);
       }},
      {ops::Unroll, {K::Loop},
       [](const ProcRef &P, const Args &A) { return unrollLoop(P, A[0].Str); }},
      {ops::Partition, {K::Loop, K::Tunable},
       [](const ProcRef &P, const Args &A) {
         return partitionLoop(P, A[0].Str, A[1].Int);
       }},
      {ops::Remove, {K::Loop},
       [](const ProcRef &P, const Args &A) { return removeLoop(P, A[0].Str); }},
      {ops::Fuse, {K::Loop},
       [](const ProcRef &P, const Args &A) { return fuseLoops(P, A[0].Str); }},
      {ops::LiftIf, {K::Stmt},
       [](const ProcRef &P, const Args &A) { return liftIf(P, A[0].Str); }},
      {ops::ReorderStmts, {K::Stmt},
       [](const ProcRef &P, const Args &A) {
         return reorderStmts(P, A[0].Str);
       }},
      {ops::MoveUp, {K::Stmt},
       [](const ProcRef &P, const Args &A) { return moveStmtUp(P, A[0].Str); }},
      {ops::Fission, {K::Stmt},
       [](const ProcRef &P, const Args &A) {
         return fissionAfter(P, A[0].Str);
       }},
      {ops::LiftAlloc, {K::Stmt, K::Tunable},
       [](const ProcRef &P, const Args &A) {
         return liftAlloc(P, A[0].Str, unsigned(A[1].Int));
       }},
      {ops::Stage, {K::Stmt, K::Count, K::Name, K::Name, K::Memory},
       [](const ProcRef &P, const Args &A) {
         return stageMem(P, A[0].Str, unsigned(A[1].Int), A[2].Str, A[3].Str,
                         A[4].Str);
       }},
      {ops::SetMemory, {K::Name, K::Memory},
       [](const ProcRef &P, const Args &A) {
         return setMemory(P, A[0].Str, A[1].Str);
       }},
      {ops::SetPrecision, {K::Name, K::Precision},
       [](const ProcRef &P, const Args &A) {
         return setPrecision(P, A[0].Str, A[1].Precision);
       }},
      {ops::Replace, {K::Stmt, K::Count, K::Instr},
       [](const ProcRef &P, const Args &A) {
         return replaceWith(P, A[0].Str, unsigned(A[1].Int), A[2].Instr);
       }},
      {ops::ConfigWrite, {K::Stmt, K::Config, K::Name, K::Name},
       [](const ProcRef &P, const Args &A) {
         return configWriteAt(P, A[0].Str, A[1].Config, A[2].Str, A[3].Str);
       }},
      {ops::Hoist, {K::Stmt},
       [](const ProcRef &P, const Args &A) {
         return hoistStmtToTop(P, A[0].Str);
       }},
      // Composable named procedures (scheduling/Procedures.h) as single
      // steps, so traces and tuner skeletons speak the apps' vocabulary.
      {ops::Tile2D,
       {K::Loop, K::Tunable, K::Int, K::Name, K::Name, K::Name, K::Name,
        K::Tail},
       [](const ProcRef &P, const Args &A) {
         return tile2D(P, A[0].Str, A[1].Int, A[2].Int, A[3].Str, A[4].Str,
                       A[5].Str, A[6].Str, A[7].Tail);
       }},
      {ops::AutoDivide, {K::Loop, K::Tunable, K::Name, K::Name},
       [](const ProcRef &P, const Args &A) {
         return autoDivide(P, A[0].Str, A[1].Int, A[2].Str, A[3].Str);
       }},
      {ops::StageVec,
       {K::Stmt, K::Name, K::Name, K::Memory, K::Int, K::Name, K::Name},
       [](const ProcRef &P, const Args &A) {
         return stageAndVectorize(P, A[0].Str, A[1].Str, A[2].Str, A[3].Str,
                                  A[4].Int, A[5].Str, A[6].Str);
       }},
      {ops::Simplify, {},
       [](const ProcRef &P, const Args &) { return simplify(P); }},
      {ops::DeletePass, {},
       [](const ProcRef &P, const Args &) { return deletePass(P); }},
      {"unsound_drop_iter", {K::Name, K::Int},
       [](const ProcRef &P, const Args &A) {
         return unsoundDropIter(P, A[0].Str, A[1].Int);
       }},
  };
  return Table;
}

const TraceOp *exo::testing::findTraceOp(const std::string &Name) {
  for (const TraceOp &Op : traceOps())
    if (Name == Op.Name)
      return &Op;
  return nullptr;
}

Expected<ProcRef> exo::testing::applyStep(const ProcRef &P,
                                          const ScheduleStep &S) {
  const TraceOp *Op = findTraceOp(S.Op);
  if (!Op)
    return makeError(Error::Kind::Parse, "unknown trace op '" + S.Op + "'");
  if (S.Args.size() != Op->Schema.size())
    return makeError(Error::Kind::Parse,
                     "trace op '" + S.Op + "' expects " +
                         std::to_string(Op->Schema.size()) + " args, got " +
                         std::to_string(S.Args.size()));
  // Scalars first, so a malformed number fails before any target
  // resolves; the Count, if any, is the width of a navigated target.
  std::vector<TraceArg> A(S.Args.size());
  unsigned Width = 1;
  for (size_t I = 0; I < A.size(); ++I) {
    if (auto E = parseArg(Op->Schema[I], S.Args[I], A[I]))
      return *E;
    if (Op->Schema[I] == TraceArgKind::Count)
      Width = unsigned(A[I].Int);
  }
  for (size_t I = 0; I < A.size(); ++I) {
    TraceArgKind Kind = Op->Schema[I];
    if (Kind != TraceArgKind::Loop && Kind != TraceArgKind::Stmt)
      continue;
    auto Pat = resolveTarget(P, S.Args[I], Kind == TraceArgKind::Loop, Width);
    if (!Pat)
      return Pat.error();
    A[I].Str = *Pat;
  }
  return Op->Apply(P, A);
}

Expected<ProcRef> exo::testing::applyTrace(
    const ProcRef &P, const std::vector<ScheduleStep> &Trace) {
  ProcRef Cur = P;
  for (const ScheduleStep &S : Trace) {
    auto Next = applyStep(Cur, S);
    if (!Next)
      return makeError(Next.error().kind(),
                       "trace step '" + S.str() +
                           "' failed: " + Next.error().message());
    Cur = *Next;
  }
  return Cur;
}

LenientApplyResult
exo::testing::applyTraceLenient(const ProcRef &P,
                                const std::vector<ScheduleStep> &Trace) {
  LenientApplyResult Out;
  Out.Final = P;
  for (const ScheduleStep &S : Trace) {
    auto Next = applyStep(Out.Final, S);
    if (!Next) {
      ++Out.Rejected;
      continue;
    }
    Out.Final = *Next;
    Out.Applied.push_back(S);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Random proposal
//===----------------------------------------------------------------------===//

namespace {

struct LoopTgt {
  std::string Iter;
  unsigned Ord = 0; ///< among loops with this iterator name, pre-order
  int64_t ConstLo = -1, ConstHi = -1; ///< -1 when symbolic
  unsigned Depth = 0;
  /// Const trip count of the sole perfectly-nested child loop (-1: no
  /// single-For child or symbolic bounds) and whether that child itself
  /// wraps a single For — the shape tile2d needs (it sinks the intra-tile
  /// pair below the third loop).
  int64_t ChildHi = -1;
  bool HasGrandLoop = false;
};

struct WriteTgt {
  std::string Buf;
  bool Reduce = false;
  bool Scalar = false;
  unsigned Ord = 0; ///< among pattern-equivalent statements, pre-order
};

struct AllocTgt {
  std::string Name;
  unsigned Depth = 0;
  bool IsR = false;
};

struct BufTgt {
  std::string Name;
  std::vector<int64_t> Dims;
};

struct Targets {
  std::vector<LoopTgt> Loops;
  std::vector<WriteTgt> Writes;
  std::vector<AllocTgt> Allocs;
  std::vector<BufTgt> StageableBufs; ///< constant-extent tensors
  unsigned NumIfs = 0;
  std::vector<ScalarKind> ConcreteKinds; ///< distinct, discovery order
};

void noteKind(Targets &T, ScalarKind K) {
  if (K == ScalarKind::R || !isDataScalar(K))
    return;
  if (std::find(T.ConcreteKinds.begin(), T.ConcreteKinds.end(), K) ==
      T.ConcreteKinds.end())
    T.ConcreteKinds.push_back(K);
}

void noteBuf(Targets &T, const std::string &Name, const Type &Ty) {
  if (!Ty.isTensor() || Ty.isWindow())
    return;
  BufTgt B;
  B.Name = Name;
  for (const ExprRef &D : Ty.dims()) {
    if (D->kind() != ExprKind::Const)
      return;
    B.Dims.push_back(D->intValue());
  }
  T.StageableBufs.push_back(std::move(B));
}

void collectBlock(const Block &B, unsigned Depth, Targets &T,
                  std::map<std::string, unsigned> &LoopOrds,
                  std::map<std::string, unsigned> &AssignOrds,
                  std::map<std::string, unsigned> &ReduceOrds) {
  for (const StmtRef &S : B) {
    switch (S->kind()) {
    case StmtKind::For: {
      LoopTgt L;
      L.Iter = S->name().name();
      L.Ord = LoopOrds[L.Iter]++;
      L.Depth = Depth;
      if (S->lo()->kind() == ExprKind::Const)
        L.ConstLo = S->lo()->intValue();
      if (S->hi()->kind() == ExprKind::Const)
        L.ConstHi = S->hi()->intValue();
      if (S->body().size() == 1 && S->body()[0]->kind() == StmtKind::For) {
        const StmtRef &C = S->body()[0];
        if (C->lo()->kind() == ExprKind::Const && C->lo()->intValue() == 0 &&
            C->hi()->kind() == ExprKind::Const)
          L.ChildHi = C->hi()->intValue();
        L.HasGrandLoop =
            C->body().size() == 1 && C->body()[0]->kind() == StmtKind::For;
      }
      T.Loops.push_back(std::move(L));
      break;
    }
    case StmtKind::If:
      ++T.NumIfs;
      break;
    case StmtKind::Assign: {
      WriteTgt W;
      W.Buf = S->name().name();
      W.Scalar = S->indices().empty();
      W.Ord = AssignOrds[W.Buf]++;
      T.Writes.push_back(std::move(W));
      break;
    }
    case StmtKind::Reduce: {
      WriteTgt W;
      W.Buf = S->name().name();
      W.Reduce = true;
      W.Scalar = S->indices().empty();
      W.Ord = ReduceOrds[W.Buf]++;
      T.Writes.push_back(std::move(W));
      break;
    }
    case StmtKind::WindowStmt:
      // The Assign pattern "w = _" also matches window bindings, so they
      // consume an ordinal in the same counter (see Pattern.cpp).
      AssignOrds[S->name().name()]++;
      break;
    case StmtKind::Alloc: {
      AllocTgt A;
      A.Name = S->name().name();
      A.Depth = Depth;
      A.IsR = S->allocType().elem() == ScalarKind::R;
      noteKind(T, S->allocType().elem());
      noteBuf(T, A.Name, S->allocType());
      T.Allocs.push_back(std::move(A));
      break;
    }
    default:
      break;
    }
    if (!S->body().empty())
      collectBlock(S->body(), Depth + 1, T, LoopOrds, AssignOrds, ReduceOrds);
    if (!S->orelse().empty())
      collectBlock(S->orelse(), Depth + 1, T, LoopOrds, AssignOrds,
                   ReduceOrds);
  }
}

Targets collectTargets(const ProcRef &P) {
  Targets T;
  std::map<std::string, unsigned> LoopOrds, AssignOrds, ReduceOrds;
  for (const FnArg &A : P->args()) {
    noteKind(T, A.Ty.elem());
    noteBuf(T, A.Name.name(), A.Ty);
  }
  collectBlock(P->body(), 0, T, LoopOrds, AssignOrds, ReduceOrds);
  return T;
}

std::string loopRef(const LoopTgt &L) {
  if (L.Ord == 0)
    return L.Iter;
  return L.Iter + " #" + std::to_string(L.Ord);
}

std::string writePat(const WriteTgt &W) {
  std::string P = W.Scalar ? W.Buf : W.Buf + "[_]";
  P += W.Reduce ? " += _" : " = _";
  if (W.Ord)
    P += " #" + std::to_string(W.Ord);
  return P;
}

/// Proposes one random step against the current procedure, or nullopt
/// when the roll found no suitable target.
std::optional<ScheduleStep> propose(const Targets &T, Rng &R,
                                    unsigned &NameCounter) {
  auto pickLoop = [&]() -> const LoopTgt * {
    return T.Loops.empty() ? nullptr : &T.Loops[R.next() % T.Loops.size()];
  };
  auto pickWrite = [&]() -> const WriteTgt * {
    return T.Writes.empty() ? nullptr : &T.Writes[R.next() % T.Writes.size()];
  };

  switch (R.range(0, 17)) {
  case 0:
  case 1: { // split
    const LoopTgt *L = pickLoop();
    if (!L)
      return std::nullopt;
    int64_t Factor = R.range(2, 4);
    std::string Base = L->Iter + "x" + std::to_string(NameCounter++);
    return ScheduleStep{ops::Split,
                        {loopRef(*L), std::to_string(Factor), Base + "o",
                         Base + "i", TailNames[R.next() % 3]}};
  }
  case 2:
  case 3: { // reorder
    const LoopTgt *L = pickLoop();
    if (!L)
      return std::nullopt;
    return ScheduleStep{ops::Reorder, {loopRef(*L)}};
  }
  case 4: { // unroll — small constant-extent loops only (bounded blowup)
    std::vector<const LoopTgt *> C;
    for (const LoopTgt &L : T.Loops)
      if (L.ConstLo >= 0 && L.ConstHi >= 0 && L.ConstHi - L.ConstLo <= 6)
        C.push_back(&L);
    if (C.empty())
      return std::nullopt;
    return ScheduleStep{ops::Unroll, {loopRef(*C[R.next() % C.size()])}};
  }
  case 5: { // partition
    const LoopTgt *L = pickLoop();
    if (!L)
      return std::nullopt;
    int64_t Span = (L->ConstLo >= 0 && L->ConstHi > L->ConstLo)
                       ? L->ConstHi - L->ConstLo
                       : 4;
    return ScheduleStep{ops::Partition,
                        {loopRef(*L), std::to_string(R.range(1, Span))}};
  }
  case 6: { // remove / fuse
    const LoopTgt *L = pickLoop();
    if (!L)
      return std::nullopt;
    return ScheduleStep{R.chance(1, 2) ? ops::Remove : ops::Fuse,
                        {loopRef(*L)}};
  }
  case 7: { // lift_if
    if (!T.NumIfs)
      return std::nullopt;
    unsigned K = unsigned(R.next() % T.NumIfs);
    std::string Pat = "if _: _";
    if (K)
      Pat += " #" + std::to_string(K);
    return ScheduleStep{ops::LiftIf, {Pat}};
  }
  case 8: { // reorder_stmts / move_up
    const WriteTgt *W = pickWrite();
    if (!W)
      return std::nullopt;
    return ScheduleStep{R.chance(1, 2) ? ops::ReorderStmts : ops::MoveUp,
                        {writePat(*W)}};
  }
  case 9: { // fission
    const WriteTgt *W = pickWrite();
    if (!W)
      return std::nullopt;
    return ScheduleStep{ops::Fission, {writePat(*W)}};
  }
  case 10: { // lift_alloc
    std::vector<const AllocTgt *> C;
    for (const AllocTgt &A : T.Allocs)
      if (A.Depth > 0)
        C.push_back(&A);
    if (C.empty())
      return std::nullopt;
    const AllocTgt *A = C[R.next() % C.size()];
    unsigned Levels = unsigned(R.range(1, int64_t(A->Depth)));
    return ScheduleStep{ops::LiftAlloc,
                        {A->Name + " : _", std::to_string(Levels)}};
  }
  case 11: { // stage a whole buffer around one write
    const WriteTgt *W = pickWrite();
    if (!W || T.StageableBufs.empty())
      return std::nullopt;
    const BufTgt &Buf = T.StageableBufs[R.next() % T.StageableBufs.size()];
    std::string Win = Buf.Name + "[";
    for (size_t D = 0; D < Buf.Dims.size(); ++D) {
      if (D)
        Win += ", ";
      Win += "0:" + std::to_string(Buf.Dims[D]);
    }
    Win += "]";
    return ScheduleStep{ops::Stage,
                        {writePat(*W), "1", Win,
                         "stg" + std::to_string(NameCounter++), "DRAM"}};
  }
  case 12: { // set_memory (addressable memories only)
    if (T.Allocs.empty())
      return std::nullopt;
    const AllocTgt &A = T.Allocs[R.next() % T.Allocs.size()];
    return ScheduleStep{ops::SetMemory,
                        {A.Name, R.chance(1, 2) ? "AVX512" : "DRAM"}};
  }
  case 13: { // set_precision — only to the kind already concrete in the
             // program (or any kind if pure-R), so the backend precision
             // check stays satisfiable
    std::vector<const AllocTgt *> C;
    for (const AllocTgt &A : T.Allocs)
      if (A.IsR)
        C.push_back(&A);
    if (C.empty() || T.ConcreteKinds.size() > 1)
      return std::nullopt;
    const char *K = T.ConcreteKinds.size() == 1
                        ? scalarKindName(T.ConcreteKinds[0])
                        : (R.chance(1, 2) ? "f32" : "f64");
    return ScheduleStep{ops::SetPrecision, {C[R.next() % C.size()]->Name, K}};
  }
  case 14: { // replace with an @instr (unification nearly always rejects
             // random code; exercising the rejection path is the point)
    const WriteTgt *W = pickWrite();
    if (!W)
      return std::nullopt;
    static const char *const Instrs[] = {
        "avx512:zero_ps",  "avx512:loadu_ps", "avx512:storeu_ps",
        "avx512:fmadd_ps", "avx512:accum_ps", "avx512:relu_ps",
        "gemmini:zero_acc"};
    return ScheduleStep{
        ops::Replace,
        {writePat(*W), "1",
         Instrs[R.next() % (sizeof(Instrs) / sizeof(Instrs[0]))]}};
  }
  case 15: { // auto_divide — a named procedure as one trace step
    std::vector<const LoopTgt *> C;
    for (const LoopTgt &L : T.Loops)
      if (L.ConstLo == 0 && L.ConstHi >= 2)
        C.push_back(&L);
    if (C.empty())
      return std::nullopt;
    const LoopTgt *L = C[R.next() % C.size()];
    std::string Base = L->Iter + "x" + std::to_string(NameCounter++);
    return ScheduleStep{ops::AutoDivide,
                        {loopRef(*L), std::to_string(R.range(2, 8)),
                         Base + "o", Base + "i"}};
  }
  case 16: { // tile2d — the composite tiling procedure as one trace step.
    // The procedure needs a matmul-shaped nest (perfect I -> J -> K chain;
    // the last reorders sink the tile pair below K) and, with the perfect
    // tail, factors dividing both trip counts. Target those loops; the
    // safety checks still reject some (a body statement in the way, an
    // effect conflict) — exercising that path is part of the point.
    auto divisorOf = [](int64_t N) -> int64_t {
      for (int64_t K = 4; K >= 2; --K)
        if (N % K == 0)
          return K;
      return 0;
    };
    std::vector<const LoopTgt *> C;
    for (const LoopTgt &L : T.Loops)
      if (L.ConstLo == 0 && L.ConstHi >= 2 && L.HasGrandLoop &&
          divisorOf(L.ConstHi) && L.ChildHi >= 2 && divisorOf(L.ChildHi))
        C.push_back(&L);
    if (C.empty())
      return std::nullopt;
    const LoopTgt *L = C[R.next() % C.size()];
    std::string Base = L->Iter + "x" + std::to_string(NameCounter++);
    return ScheduleStep{ops::Tile2D,
                        {loopRef(*L), std::to_string(divisorOf(L->ConstHi)),
                         std::to_string(divisorOf(L->ChildHi)), Base + "io",
                         Base + "ii", Base + "jo", Base + "ji", "perfect"}};
  }
  default:
    return ScheduleStep{ops::Simplify, {}};
  }
}

//===----------------------------------------------------------------------===//
// Cursor-forwarding property check (--cursors)
//===----------------------------------------------------------------------===//

/// Every plantable cursor site in a block: each gap (including both block
/// ends) and each single-statement selection, recursing into bodies and
/// orelse blocks.
void enumerateSitesIn(const Block &B, std::vector<PathStep> &Path,
                      std::vector<StmtCursor> &Out) {
  for (unsigned I = 0; I <= B.size(); ++I) {
    StmtCursor Gap;
    Gap.Path = Path;
    Gap.Begin = Gap.End = I;
    Out.push_back(std::move(Gap));
  }
  for (unsigned I = 0; I < unsigned(B.size()); ++I) {
    StmtCursor Sel;
    Sel.Path = Path;
    Sel.Begin = I;
    Sel.End = I + 1;
    Out.push_back(std::move(Sel));
    if (!B[I]->body().empty()) {
      Path.push_back({I, PathStep::Branch::Body});
      enumerateSitesIn(B[I]->body(), Path, Out);
      Path.pop_back();
    }
    if (!B[I]->orelse().empty()) {
      Path.push_back({I, PathStep::Branch::Orelse});
      enumerateSitesIn(B[I]->orelse(), Path, Out);
      Path.pop_back();
    }
  }
}

std::vector<StmtCursor> enumerateCursorSites(const ProcRef &P) {
  std::vector<StmtCursor> Out;
  std::vector<PathStep> Path;
  enumerateSitesIn(P->body(), Path, Out);
  return Out;
}

/// Bounds-checked path walk (blockAt aborts on malformed cursors; the
/// property check must *report* them instead).
bool cursorInBounds(const ProcRef &P, const StmtCursor &C) {
  const Block *B = &P->body();
  for (const PathStep &St : C.Path) {
    if (St.Index >= B->size())
      return false;
    const StmtRef &S = (*B)[St.Index];
    B = St.Into == PathStep::Branch::Body ? &S->body() : &S->orelse();
  }
  return C.Begin <= C.End && C.End <= B->size();
}

/// The forwarding contract, checked per accepted step: plant up to
/// \p PerStep random cursors (gaps and selections, sampled without
/// replacement) on the pre-rewrite procedure and forward each across the
/// rewrite. Unchanged/shifted cursors must resolve to node-identical
/// statements, rebuilt cursors must land in-bounds, and invalidations
/// must carry a non-empty reason.
void checkCursorForwarding(ScheduleResult &Res, const ProcRef &Before,
                           const ProcRef &After, const ScheduleStep &S,
                           Rng &R, unsigned PerStep) {
  std::vector<StmtCursor> Sites = enumerateCursorSites(Before);
  for (unsigned I = 0; I < PerStep && !Sites.empty(); ++I) {
    size_t Pick = R.next() % Sites.size();
    StmtCursor Site = Sites[Pick];
    Sites[Pick] = Sites.back();
    Sites.pop_back();
    ++Res.CursorChecks;
    ForwardResult F = forwardCursor(Before, After, Site);
    auto Mismatch = [&](const std::string &What) {
      ++Res.CursorMismatches;
      Res.CursorNotes.push_back(
          "step '" + S.str() + "', cursor " +
          Cursor::fromStmtCursor(Before, Site).str() + ", fate " +
          forwardFateName(F.Fate) + ": " + What);
    };
    if (F.Fate == ForwardFate::Invalidated) {
      ++Res.CursorInvalidated;
      if (F.Reason.empty())
        Mismatch("invalidated without a reason");
      continue;
    }
    if (!cursorInBounds(After, F.Cur)) {
      Mismatch("forwarded out of bounds");
      continue;
    }
    if (F.Fate == ForwardFate::Rebuilt)
      continue; // landing in-bounds is the whole contract for rebuilt
    // Unchanged/shifted promise node identity for selections (gaps carry
    // no statements to compare).
    if (Site.Begin != Site.End) {
      std::vector<StmtRef> Old = analysis::selectedStmts(*Before, Site);
      std::vector<StmtRef> New = analysis::selectedStmts(*After, F.Cur);
      bool Same = Old.size() == New.size();
      for (size_t K = 0; Same && K < Old.size(); ++K)
        Same = Old[K].get() == New[K].get();
      if (!Same)
        Mismatch("live cursor is no longer node-identical");
    }
  }
}

} // namespace

std::optional<ScheduleStep> exo::testing::proposeStep(const ProcRef &P, Rng &R,
                                                      unsigned &NameCounter) {
  Targets T = collectTargets(P);
  // A single roll can land on an empty target class; a few retries keep
  // the proposal rate useful without biasing the distribution much.
  for (unsigned Attempt = 0; Attempt < 4; ++Attempt)
    if (std::optional<ScheduleStep> S = propose(T, R, NameCounter))
      return S;
  return std::nullopt;
}

namespace {

/// A fresh-name floor no suffix in \p Trace reaches: split/stage names are
/// "<iter>x<N>o"-shaped, so anything above the trace's step count times
/// the per-step name budget is safe.
unsigned nameCounterFloor(const std::vector<ScheduleStep> &Trace) {
  return 100 + unsigned(Trace.size()) * 2;
}

/// The index of the step's Tunable argument — the knob numeric
/// perturbation may turn — or -1 (no knob, or a malformed step).
int numericArgIndex(const ScheduleStep &S) {
  const TraceOp *Op = findTraceOp(S.Op);
  if (!Op || S.Args.size() != Op->Schema.size())
    return -1;
  auto It = std::find(Op->Schema.begin(), Op->Schema.end(),
                      TraceArgKind::Tunable);
  return It == Op->Schema.end() ? -1 : int(It - Op->Schema.begin());
}

} // namespace

std::vector<ScheduleStep>
exo::testing::mutateTrace(const ProcRef &P,
                          const std::vector<ScheduleStep> &Trace, Rng &R) {
  std::vector<ScheduleStep> Out = Trace;
  // Empty traces can only grow.
  unsigned Kind = Out.empty() ? 4 : unsigned(R.range(0, 4));
  switch (Kind) {
  case 0: { // drop a step
    Out.erase(Out.begin() + R.next() % Out.size());
    return Out;
  }
  case 1: { // duplicate a step in place (idempotence stress)
    size_t I = R.next() % Out.size();
    Out.insert(Out.begin() + I, Out[I]);
    return Out;
  }
  case 2: { // swap two adjacent steps
    if (Out.size() >= 2) {
      size_t I = R.next() % (Out.size() - 1);
      std::swap(Out[I], Out[I + 1]);
      return Out;
    }
    [[fallthrough]];
  }
  case 3: { // perturb a numeric argument
    std::vector<size_t> C;
    for (size_t I = 0; I < Out.size(); ++I)
      if (numericArgIndex(Out[I]) >= 0)
        C.push_back(I);
    if (!C.empty()) {
      ScheduleStep &S = Out[C[R.next() % C.size()]];
      int AI = numericArgIndex(S);
      auto V = parseTraceInt(S.Args[AI]);
      int64_t Old = V ? *V : 2;
      static const int64_t Factors[] = {2, 4, 8, 16, 32};
      int64_t New = Old;
      while (New == Old)
        New = S.Op == ops::Split ? Factors[R.next() % 5]
                              : std::max<int64_t>(1, Old + R.range(-2, 2));
      S.Args[AI] = std::to_string(New);
      return Out;
    }
    [[fallthrough]];
  }
  default: { // append a fresh proposal against the trace's endpoint
    LenientApplyResult L = applyTraceLenient(P, Out);
    unsigned NC = nameCounterFloor(Out);
    if (std::optional<ScheduleStep> S = proposeStep(L.Final, R, NC))
      Out.push_back(std::move(*S));
    return Out;
  }
  }
}

std::vector<ScheduleStep>
exo::testing::crossoverTraces(const std::vector<ScheduleStep> &A,
                              const std::vector<ScheduleStep> &B, Rng &R) {
  // Cut points include both ends, so a crossover can be a pure prefix or
  // a pure suffix.
  size_t CutA = A.empty() ? 0 : R.next() % (A.size() + 1);
  size_t CutB = B.empty() ? 0 : R.next() % (B.size() + 1);
  std::vector<ScheduleStep> Out(A.begin(), A.begin() + CutA);
  Out.insert(Out.end(), B.begin() + CutB, B.end());
  return Out;
}

ScheduleResult exo::testing::generateSchedule(const ProcRef &P, Rng &R,
                                              const ScheduleGenOptions &O) {
  ScheduleResult Res;
  Res.Scheduled = P;
  unsigned NameCounter = 0;
  // Where in the attempt sequence the unsound step (if any) fires.
  unsigned UnsoundAt =
      O.InjectUnsound ? unsigned(R.range(0, int64_t(O.MaxAttempts) / 2)) : ~0u;

  for (unsigned Attempt = 0;
       Attempt < O.MaxAttempts && Res.Accepted < O.MaxSteps; ++Attempt) {
    Targets T = collectTargets(Res.Scheduled);
    std::optional<ScheduleStep> S;
    if (Attempt == UnsoundAt && !T.Loops.empty()) {
      const LoopTgt &L = T.Loops[R.next() % T.Loops.size()];
      S = ScheduleStep{"unsound_drop_iter", {L.Iter, std::to_string(L.Ord)}};
    } else {
      S = propose(T, R, NameCounter);
    }
    if (!S)
      continue;
    ++Res.Proposed;
    auto &Stat = Res.OpStats[S->Op];
    ++Stat.first;
    auto Next = applyStep(Res.Scheduled, *S);
    if (!Next)
      continue; // rejection is a valid outcome
    ++Stat.second;
    ++Res.Accepted;
    if (O.CheckCursors)
      checkCursorForwarding(Res, Res.Scheduled, *Next, *S, R,
                            O.CursorsPerStep);
    Res.Scheduled = *Next;
    Res.Trace.push_back(std::move(*S));
  }
  return Res;
}
