//===- tests/CursorTest.cpp - First-class cursor tests ---------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for first-class cursors and rewrite forwarding (DESIGN.md,
/// "Cursors and forwarding"): structural navigation, the four forwarding
/// fates and their contracts, invalidation diagnostics, agreement of the
/// facade, trace and direct-cursor spellings of a rewrite (results and
/// rejection payloads), the composable named procedures (hoist / tile2D
/// / stageAndVectorize / autoDivide) against hand-written primitive
/// sequences and across moving statements, and the trace layer's '@'
/// cursor-navigation grammar plus the procedure step kinds.
///
//===----------------------------------------------------------------------===//

#include "scheduling/Procedures.h"

#include "CursorAt.h"
#include "apps/GemminiMatmul.h"
#include "apps/Sgemm.h"
#include "hwlibs/avx512/Avx512Lib.h"
#include "hwlibs/gemmini/GemminiLib.h"
#include "ir/Printer.h"
#include "ir/StructuralEq.h"
#include "testing/ScheduleGen.h"

#include <gtest/gtest.h>

using namespace exo;
using namespace exo::ir;
using namespace exo::scheduling;
using frontend::ParseEnv;
using frontend::parseModule;
using frontend::parseProc;
// exo::testing stays fully qualified below: `using namespace exo::testing`
// would collide with gtest's ::testing.

namespace {

ProcRef mustParse(const std::string &Src, ParseEnv *Env = nullptr) {
  ParseEnv Local;
  auto P = parseProc(Src, Env ? *Env : Local);
  if (!P)
    fatalError("test parse failed: " + P.error().str());
  return *P;
}

template <typename T> T must(Expected<T> E, const char *What) {
  if (!E)
    fatalError(std::string(What) + " failed: " + E.error().str());
  return *E;
}

/// The standard probe/loop fixture for forwarding tests: a probe
/// statement disjoint from everything the rewrites touch.
const char *FwdSrc = R"(
@proc
def fwd(probe: R[4], x: R[8], y: R[8]):
    probe[0] = 0.0
    for i in seq(0, 8):
        x[i] = 1.0
    for j in seq(0, 8):
        y[j] = 2.0
)";

/// Asserts the probe cursor (planted on \p P) survives the rewrite that
/// produced \p Q pointer-identically — the unchanged/shifted contract.
void expectProbeLive(const ProcRef &P, const ProcRef &Q, const char *OpName) {
  auto C = must(Cursor::find(P, "probe[_] = _"), "probe find");
  ForwardResult F = C.forwardResult(Q);
  ASSERT_TRUE(F.live()) << OpName << ": " << F.Reason;
  EXPECT_TRUE(F.Fate == ForwardFate::Unchanged ||
              F.Fate == ForwardFate::Shifted)
      << OpName << ": fate " << forwardFateName(F.Fate);
  Cursor Fwd = must(C.forwardTo(Q), OpName);
  StmtRef Old = must(C.stmt(), "old stmt");
  StmtRef New = must(Fwd.stmt(), "new stmt");
  EXPECT_EQ(Old.get(), New.get()) << OpName << ": probe not node-identical";
}

//===----------------------------------------------------------------------===//
// Structural navigation
//===----------------------------------------------------------------------===//

TEST(CursorTest, FindAndNavigate) {
  ProcRef P = mustParse(R"(
@proc
def nav(x: R[8], b: bool):
    x[0] = 1.0
    for i in seq(0, 8):
        x[1] = 2.0
        x[2] = 3.0
    if b:
        x[3] = 4.0
    else:
        x[4] = 5.0
)");
  Cursor Loop = must(Cursor::find(P, "for i in _: _"), "find loop");
  EXPECT_FALSE(Loop.null());
  EXPECT_FALSE(Loop.isGap());
  EXPECT_EQ(Loop.count(), 1u);
  EXPECT_EQ(must(Loop.stmt(), "stmt")->kind(), StmtKind::For);

  // Down into the body, across siblings, and back up.
  Cursor B0 = must(Loop.body(), "body");
  EXPECT_EQ(printStmt(must(B0.stmt(), "b0")), "x[1] = 2.0\n");
  Cursor B1 = must(B0.next(), "next");
  EXPECT_EQ(printStmt(must(B1.stmt(), "b1")), "x[2] = 3.0\n");
  Cursor B0Again = must(B1.prev(), "prev");
  EXPECT_EQ(must(B0Again.stmt(), "b0 again").get(),
            must(B0.stmt(), "b0").get());
  Cursor Up = must(B1.parent(), "parent");
  EXPECT_EQ(must(Up.stmt(), "parent stmt").get(),
            must(Loop.stmt(), "loop stmt").get());

  // Siblings of the loop; if-branches.
  Cursor First = must(Loop.prev(), "loop prev");
  EXPECT_EQ(printStmt(must(First.stmt(), "first")), "x[0] = 1.0\n");
  Cursor If = must(Loop.next(), "loop next");
  EXPECT_EQ(must(If.stmt(), "if")->kind(), StmtKind::If);
  EXPECT_EQ(printStmt(must(must(If.body(), "if body").stmt(), "then")),
            "x[3] = 4.0\n");
  EXPECT_EQ(printStmt(must(must(If.orelse(), "orelse").stmt(), "else")),
            "x[4] = 5.0\n");

  // Gaps: zero-width, no statements.
  Cursor After = Loop.after();
  EXPECT_TRUE(After.isGap());
  EXPECT_EQ(After.count(), 0u);
  EXPECT_TRUE(After.stmts().empty());
  EXPECT_FALSE(bool(After.stmt()));
  EXPECT_FALSE(Loop.before().isGap() == false);

  // whole() and expand().
  EXPECT_EQ(Cursor::whole(P).count(), 3u);
  Cursor Two = must(First.expand(1), "expand");
  EXPECT_EQ(Two.count(), 2u);
  EXPECT_EQ(Two.stmts()[1].get(), must(Loop.stmt(), "loop").get());

  // Structurally impossible moves fail.
  EXPECT_FALSE(bool(First.body()));    // assigns have no body
  EXPECT_FALSE(bool(First.prev()));    // already first
  EXPECT_FALSE(bool(Loop.parent()));   // already top level
  EXPECT_FALSE(bool(Loop.orelse()));   // fors have no orelse
  EXPECT_FALSE(bool(If.expand(5)));    // would run off the block
}

TEST(CursorTest, NavigationAddressesPaperKernelNests) {
  // The Fig. 4 (Gemmini) and Fig. 5 (sgemm) algorithms are the i/j/k
  // triple nests every schedule in this repo starts from; cursor
  // navigation must address them without patterns.
  for (auto &Alg : {apps::buildGemminiMatmulAlgorithm(16, 16, 16),
                    apps::buildSgemmAlgorithm(16, 16, 16)}) {
    ASSERT_TRUE(bool(Alg)) << Alg.error().str();
    ProcRef P = *Alg;
    Cursor I = must(Cursor::find(P, "for i in _: _"), "find i");
    Cursor J = must(I.body(), "i body");
    Cursor K = must(J.body(), "j body");
    EXPECT_EQ(must(K.stmt(), "k")->kind(), StmtKind::For);
    EXPECT_EQ(must(K.stmt(), "k").get(),
              must(Cursor::find(P, "for k in _: _"), "find k")
                  .stmts()[0]
                  .get());
    EXPECT_EQ(must(must(K.parent(), "k up").stmt(), "j again").get(),
              must(J.stmt(), "j").get());
    // Diagnostic rendering names the proc and spells the path.
    EXPECT_NE(K.str().find(P->name() + "@"), std::string::npos) << K.str();
    EXPECT_NE(K.str().find("body"), std::string::npos) << K.str();
  }
}

TEST(CursorTest, SameNamedLoopsAtDifferentDepths) {
  // The motivating addressing case from Cursor.h: two loops named `t`,
  // one inside the other. A navigated cursor addresses the inner one and
  // rewrites it exactly as the "#1"-ordinal pattern spelling would.
  ProcRef P = mustParse(R"(
@proc
def dup(x: R[4, 4]):
    for t in seq(0, 4):
        for t in seq(0, 4):
            x[t, t] = 1.0
)");
  Cursor Inner = must(must(Cursor::find(P, "for t in _: _"), "outer").body(),
                      "inner");
  ProcRef ByCursor = must(
      splitLoop(Inner, 2, "a", "b", SplitTail::Perfect), "split by cursor");
  ProcRef ByOrdinal = must(
      splitLoop(at(P, "for t in _: _ #1"), 2, "a", "b", SplitTail::Perfect),
      "split by ordinal");
  EXPECT_EQ(printProc(ByCursor), printProc(ByOrdinal));
}

//===----------------------------------------------------------------------===//
// Forwarding fates
//===----------------------------------------------------------------------===//

TEST(CursorTest, DisjointCursorSurvivesEveryLoopPrimitive) {
  ProcRef P = mustParse(FwdSrc);
  expectProbeLive(
      P, must(splitLoop(at(P, "for i in _: _"), 4, "io", "ii"), "split"),
      "split");
  expectProbeLive(P, must(unrollLoop(at(P, "for i in _: _")), "unroll"),
                  "unroll");
  expectProbeLive(
      P, must(partitionLoop(at(P, "for i in _: _"), 3), "partition"),
      "partition");
  expectProbeLive(P, must(addGuard(at(P, "x[_] = _"), "i < 8"), "guard"),
                  "add_guard");
  expectProbeLive(P, must(bindExpr(at(P, "y[_] = _"), "2.0", "c"), "bind"),
                  "bind_expr");
  expectProbeLive(
      P,
      must(stageMem(at(P, "for i in _: _"), "x[0:8]", "xs"), "stage"),
      "stage");

  // Primitives with structural preconditions get their own sources; the
  // probe statement is always the first, disjoint statement.
  ProcRef Nest = mustParse(R"(
@proc
def fwd2(probe: R[4], x: R[8, 8]):
    probe[0] = 0.0
    for i in seq(0, 8):
        for j in seq(0, 8):
            x[i, j] = 1.0
)");
  expectProbeLive(
      Nest, must(reorderLoops(at(Nest, "for i in _: _")), "reorder"),
      "reorder");

  ProcRef Idem = mustParse(R"(
@proc
def fwd3(probe: R[4], x: R[8]):
    probe[0] = 0.0
    for i in seq(0, 4):
        x[0] = 3.0
)");
  expectProbeLive(Idem, must(removeLoop(at(Idem, "for i in _: _")), "remove"),
                  "remove");

  ProcRef Adj = mustParse(R"(
@proc
def fwd4(probe: R[4], x: R[8], y: R[8]):
    probe[0] = 0.0
    for i in seq(0, 8):
        x[i] = 1.0
    for j in seq(0, 8):
        y[j] = 2.0
)");
  expectProbeLive(Adj, must(fuseLoops(at(Adj, "for i in _: _")), "fuse"),
                  "fuse");
  expectProbeLive(Adj, must(reorderStmts(at(Adj, "for i in _: _")), "swap"),
                  "reorder_stmts");
  expectProbeLive(Adj, must(moveStmtUp(at(Adj, "for j in _: _")), "move up"),
                  "move_up");

  ProcRef TwoStmt = mustParse(R"(
@proc
def fwd8(probe: R[4], x: R[8], y: R[8]):
    probe[0] = 0.0
    for i in seq(0, 8):
        x[i] = 1.0
        y[i] = 2.0
)");
  expectProbeLive(
      TwoStmt, must(fissionAfter(at(TwoStmt, "x[_] = _")), "fission"),
      "fission");

  ProcRef Guarded = mustParse(R"(
@proc
def fwd5(probe: R[4], x: R[8], b: bool):
    probe[0] = 0.0
    for i in seq(0, 8):
        if b:
            x[i] = 1.0
)");
  expectProbeLive(Guarded, must(liftIf(at(Guarded, "if b: _")), "lift if"),
                  "lift_if");

  ProcRef WithAlloc = mustParse(R"(
@proc
def fwd6(probe: R[4], x: R[8]):
    probe[0] = 0.0
    for i in seq(0, 8):
        t : R
        t = x[i]
        x[i] = t + 1.0
)");
  expectProbeLive(WithAlloc, must(liftAlloc(at(WithAlloc, "t : _")), "lift"),
                  "lift_alloc");
  expectProbeLive(WithAlloc, must(setMemory(WithAlloc, "t", "SCRATCH"),
                                  "set_memory"),
                  "set_memory");
  // set_precision retypes accesses across the whole body, so it records
  // no local region: every cursor is invalidated — with the structured
  // reason the contract requires, not silently.
  {
    ProcRef Q = must(setPrecision(WithAlloc, "t", ScalarKind::F32),
                     "set_precision");
    auto C = must(Cursor::find(WithAlloc, "probe[_] = _"), "probe");
    ForwardResult F = C.forwardResult(Q);
    EXPECT_EQ(F.Fate, ForwardFate::Invalidated);
    EXPECT_FALSE(F.Reason.empty());
    EXPECT_NE(F.Reason.find("no dirty region"), std::string::npos)
        << F.Reason;
  }

  ParseEnv Env;
  auto Lib = parseModule(R"(
@proc
def zero(n: size, v: [R][n]):
    for i in seq(0, n):
        v[i] = 0.0
)",
                         Env);
  ASSERT_TRUE(bool(Lib));
  ProcRef WithCall = mustParse(R"(
@proc
def fwd7(probe: R[4], x: R[16]):
    probe[0] = 0.0
    zero(8, x[4:12])
)",
                               &Env);
  expectProbeLive(WithCall, must(inlineCall(at(WithCall, "zero(_)")), "inline"),
                  "inline");
}

TEST(CursorTest, ShiftedCursorStaysNodeIdentical) {
  // fission_after splits the i-loop in two: the probe planted *after* it
  // shifts down by one index but still addresses the identical node.
  ProcRef P = mustParse(R"(
@proc
def sh(probe: R[4], x: R[8], y: R[8]):
    for i in seq(0, 8):
        x[i] = 1.0
        y[i] = 2.0
    probe[0] = 0.0
)");
  Cursor C = must(Cursor::find(P, "probe[_] = _"), "probe");
  EXPECT_EQ(C.raw().Begin, 1u);
  ProcRef Q = must(fissionAfter(at(P, "x[_] = _")), "fission");
  ForwardResult F = C.forwardResult(Q);
  EXPECT_EQ(F.Fate, ForwardFate::Shifted) << forwardFateName(F.Fate);
  Cursor Fwd = must(C.forwardTo(Q), "forward");
  EXPECT_EQ(Fwd.raw().Begin, 2u);
  EXPECT_EQ(must(Fwd.stmt(), "fwd stmt").get(),
            must(C.stmt(), "old stmt").get());
}

TEST(CursorTest, GapCursorSurvivesRewrites) {
  ProcRef P = mustParse(FwdSrc);
  Cursor Gap = must(Cursor::find(P, "probe[_] = _"), "probe").after();
  ASSERT_TRUE(Gap.isGap());
  ProcRef Q = must(splitLoop(at(P, "for j in _: _"), 4, "jo", "ji"), "split");
  ForwardResult F = Gap.forwardResult(Q);
  ASSERT_TRUE(F.live()) << F.Reason;
  Cursor Fwd = must(Gap.forwardTo(Q), "forward gap");
  EXPECT_TRUE(Fwd.isGap());
  EXPECT_EQ(Fwd.raw().Begin, Gap.raw().Begin);
}

TEST(CursorTest, InvalidatedCursorNamesOperatorAndReason) {
  ProcRef P = mustParse(FwdSrc);
  // A cursor strictly inside the unrolled loop body is consumed.
  Cursor Body = must(
      must(Cursor::find(P, "for i in _: _"), "loop").body(), "body");
  ProcRef Q = must(unrollLoop(at(P, "for i in _: _")), "unroll");
  ForwardResult F = Body.forwardResult(Q);
  EXPECT_EQ(F.Fate, ForwardFate::Invalidated) << forwardFateName(F.Fate);
  EXPECT_EQ(F.Op, "unroll");
  EXPECT_FALSE(F.Reason.empty());
  auto Err = Body.forwardTo(Q);
  ASSERT_FALSE(bool(Err));
  EXPECT_NE(Err.error().str().find("unroll"), std::string::npos)
      << Err.error().str();
}

TEST(CursorTest, RebuiltCursorReanchorsOnReplacement) {
  ProcRef P = mustParse(FwdSrc);
  Cursor Loop = must(Cursor::find(P, "for i in _: _"), "loop");
  ProcRef Q = must(splitLoop(at(P, "for i in _: _"), 4, "io", "ii"), "split");
  ForwardResult F = Loop.forwardResult(Q);
  EXPECT_EQ(F.Fate, ForwardFate::Rebuilt) << forwardFateName(F.Fate);
  Cursor Fwd = must(Loop.forwardTo(Q), "forward");
  StmtRef New = must(Fwd.stmt(), "rebuilt stmt");
  EXPECT_EQ(New->kind(), StmtKind::For);
  EXPECT_NE(New.get(), must(Loop.stmt(), "old").get());
  // The rebuilt cursor addresses the replacement: the new outer loop.
  EXPECT_EQ(New.get(), Q->body()[1].get());
}

TEST(CursorTest, ChainComposesByMaxSeverity) {
  ProcRef P = mustParse(FwdSrc);
  Cursor Probe = must(Cursor::find(P, "probe[_] = _"), "probe");
  Cursor ILoop = must(Cursor::find(P, "for i in _: _"), "i loop");

  ProcRef Q1 = must(splitLoop(at(P, "for i in _: _"), 4, "io", "ii"), "split");
  ProcRef Q2 = must(unrollLoop(at(Q1, "for ii in _: _")), "unroll");
  ProcRef Q3 =
      must(splitLoop(at(Q2, "for j in _: _"), 2, "jo", "jj"), "split j");

  // Disjoint probe survives the whole three-rewrite chain unchanged.
  ForwardResult F = Probe.forwardResult(Q3);
  ASSERT_TRUE(F.live()) << F.Reason;
  EXPECT_EQ(must(must(Probe.forwardTo(Q3), "fwd").stmt(), "stmt").get(),
            must(Probe.stmt(), "old").get());

  // The i-loop cursor is rebuilt by step 1 and the rebuilt spine is hit
  // again by step 2; severity composes to at least Rebuilt, never back
  // down to Unchanged.
  ForwardResult G = ILoop.forwardResult(Q3);
  EXPECT_TRUE(G.Fate == ForwardFate::Rebuilt ||
              G.Fate == ForwardFate::Invalidated)
      << forwardFateName(G.Fate);

  // Forwarding to an unrelated procedure is an explicit invalidation.
  ProcRef Stranger = mustParse("@proc\ndef s(z: R[4]):\n    z[0] = 1.0\n");
  EXPECT_EQ(Probe.forwardResult(Stranger).Fate, ForwardFate::Invalidated);
}

//===----------------------------------------------------------------------===//
// One entry point: every spelling of a rewrite reaches the same operator
//===----------------------------------------------------------------------===//

/// Applies one trace line to \p P through the trace interpreter.
Expected<ProcRef> traceStep(const ProcRef &P, const char *Line) {
  auto S = exo::testing::ScheduleStep::parse(Line);
  if (!S)
    return S.error();
  return exo::testing::applyStep(P, *S);
}

TEST(CursorTest, FacadeTraceAndCursorSpellingsMatch) {
  ProcRef P = mustParse(R"(
@proc
def ov(x: R[8, 8]):
    for i in seq(0, 8):
        for j in seq(0, 8):
            x[i, j] = x[i, j] + 1.0
)");
  Cursor I = must(Cursor::find(P, "for i in _: _"), "i");
  Cursor J = must(I.body(), "j");

  // The facade chainer, the trace step (plain and @nav) and the direct
  // cursor call print the same procedure.
  auto expectSame = [&](const ProcRef &Direct, Expected<ProcRef> Facade,
                        const char *Plain, const char *Nav) {
    std::string Want = printProc(Direct);
    EXPECT_EQ(printProc(must(std::move(Facade), "facade")), Want) << Plain;
    EXPECT_EQ(printProc(must(traceStep(P, Plain), Plain)), Want);
    EXPECT_EQ(printProc(must(traceStep(P, Nav), Nav)), Want);
  };
  expectSame(must(splitLoop(I, 4, "io", "ii"), "c split"),
             Schedule(P).split("i", 4, "io", "ii").proc(),
             "split|i|4|io|ii|guard", "split|j @parent|4|io|ii|guard");
  expectSame(must(reorderLoops(I), "c reorder"),
             Schedule(P).reorder("i").proc(), "reorder|i",
             "reorder|j @parent");
  expectSame(must(unrollLoop(J), "c unroll"), Schedule(P).unroll("j").proc(),
             "unroll|j", "unroll|i @body");

  // stageMem mints fresh `i0` copy iterators, so printed suffixes differ
  // between applications; compare up to alpha.
  auto expectAlpha = [&](const ProcRef &Direct, Expected<ProcRef> Facade,
                         const ProcRef &Src, const char *Plain,
                         const char *Nav) {
    EXPECT_TRUE(alphaEquivalent(
        Direct->body(), must(std::move(Facade), "facade")->body(), {}))
        << Plain;
    EXPECT_TRUE(alphaEquivalent(Direct->body(),
                                must(traceStep(Src, Plain), Plain)->body(),
                                {}));
    EXPECT_TRUE(alphaEquivalent(Direct->body(),
                                must(traceStep(Src, Nav), Nav)->body(), {}));
  };
  expectAlpha(must(stageMem(J, "x[i, 0:8]", "xs"), "c stage"),
              Schedule(P).stage("for j in _: _", 1, "x[i, 0:8]", "xs").proc(),
              P, "stage|for j in _: _|1|x[i, 0:8]|xs|DRAM",
              "stage|for i in _: _ @body|1|x[i, 0:8]|xs|DRAM");

  // A multi-statement cursor carries its own width into stageMem; the
  // facade and the trace pass the width to Cursor::find or expand.
  ProcRef Two = mustParse(R"(
@proc
def tw(x: R[8]):
    for i in seq(0, 8):
        x[i] = 1.0
    for j in seq(0, 8):
        x[j] = x[j] + 1.0
)");
  Cursor Both = must(
      must(Cursor::find(Two, "for i in _: _"), "first").expand(1), "expand");
  expectAlpha(must(stageMem(Both, "x[0:8]", "xs"), "c stage2"),
              Schedule(Two).stage("for i in _: _", 2, "x[0:8]", "xs").proc(),
              Two, "stage|for i in _: _|2|x[0:8]|xs|DRAM",
              "stage|for j in _: _ @prev|2|x[0:8]|xs|DRAM");
}

/// The rejection payload every spelling of one failing rewrite carries:
/// the operator name, a non-empty pattern, and the solver's verdict.
void expectRejection(const char *What, const Expected<ProcRef> &R,
                     const char *Op, ScheduleErrorInfo::Verdict V) {
  ASSERT_FALSE(bool(R)) << What << " was accepted";
  const ScheduleErrorInfo *Info = R.error().scheduleInfo();
  ASSERT_NE(Info, nullptr) << What << ": " << R.error().str();
  EXPECT_EQ(Info->Op, Op) << What << ": " << R.error().str();
  EXPECT_FALSE(Info->Pattern.empty()) << What << ": " << R.error().str();
  EXPECT_EQ(Info->SolverVerdict, V)
      << What << ": " << scheduleVerdictName(Info->SolverVerdict) << ", "
      << R.error().str();
}

TEST(CursorTest, RejectionPayloadIsTheSameInEverySpelling) {
  using V = ScheduleErrorInfo::Verdict;
  ProcRef Loops = mustParse(R"(
@proc
def lp(n: size, x: R[n]):
    for o in seq(0, 2):
        for i in seq(0, n):
            x[i] = 1.0
)");
  ProcRef Writes = mustParse(R"(
@proc
def wr(x: R[16]):
    x[0] = 1.0
    x[0] = 2.0
    for i in seq(0, 16):
        x[i] = 1.0
)");
  const auto &Gemmini = hw::gemmini::gemminiLib();
  const auto &Avx = hw::avx512::avx512Lib();

  struct Case {
    const char *Op;
    V Verdict;
    const ProcRef &P;
    Expected<ProcRef> Facade;
    const char *Plain;
    const char *Nav;
  };
  const Case Cases[] = {
      // LoopOps: n is not provably a multiple of 16.
      {ops::Split, V::No, Loops,
       Schedule(Loops).split("i", 16, "io", "ii", SplitTail::Perfect).proc(),
       "split|i|16|io|ii|perfect", "split|o @body|16|io|ii|perfect"},
      // StmtOps: two writes of one location do not commute.
      {ops::ReorderStmts, V::No, Writes,
       Schedule(Writes).reorderStmts("x[_] = _").proc(),
       "reorder_stmts|x[_] = _", "reorder_stmts|x[_] = _ #1 @prev"},
      // MemOps: x[8..15] falls outside the staged window.
      {ops::Stage, V::No, Writes,
       Schedule(Writes).stage("for i in _: _", 1, "x[0:8]", "xs").proc(),
       "stage|for i in _: _|1|x[0:8]|xs|DRAM",
       "stage|x[_] = _ #2 @parent|1|x[0:8]|xs|DRAM"},
      // ConfigOps: the configuration has no such field.
      {ops::ConfigWrite, V::None, Writes,
       Schedule(Writes)
           .configWriteAt("for i in _: _", Gemmini.CfgLd1, "no_field", "1")
           .proc(),
       "config_write|for i in _: _|gemmini:cfg_ld1|no_field|1",
       "config_write|x[_] = _ #2 @parent|gemmini:cfg_ld1|no_field|1"},
      // Unify: x[i] = 1.0 is not a zeroing.
      {ops::Replace, V::None, Writes,
       Schedule(Writes).replaceWith("for i in _: _", 1, Avx.ZeroPs).proc(),
       "replace|for i in _: _|1|avx512:zero_ps",
       "replace|x[_] = _ #2 @parent|1|avx512:zero_ps"},
  };
  for (const Case &C : Cases) {
    expectRejection("facade", C.Facade, C.Op, C.Verdict);
    expectRejection(C.Plain, traceStep(C.P, C.Plain), C.Op, C.Verdict);
    expectRejection(C.Nav, traceStep(C.P, C.Nav), C.Op, C.Verdict);
  }

  // Resolution failures: a pattern that matches nothing (the facade and
  // the trace report the same expanded pattern) and navigation that
  // leaves the tree.
  auto Facade = Schedule(Loops).reorder("zz").proc();
  auto Plain = traceStep(Loops, "reorder|zz");
  expectRejection("facade no match", Facade, ops::Reorder, V::None);
  expectRejection("reorder|zz", Plain, ops::Reorder, V::None);
  EXPECT_EQ(Facade.error().scheduleInfo()->Pattern, "for zz in _: _");
  EXPECT_EQ(Plain.error().scheduleInfo()->Pattern, "for zz in _: _");
  auto Off = traceStep(Loops, "reorder|o @parent");
  expectRejection("reorder|o @parent", Off, ops::Reorder, V::None);
  EXPECT_EQ(Off.error().scheduleInfo()->Pattern, "for o in _: _ @parent");
}

//===----------------------------------------------------------------------===//
// Composites follow their statement, never a re-matched pattern
//===----------------------------------------------------------------------===//

TEST(CursorTest, HoistWithOrdinalPatternFinishes) {
  ParseEnv Env;
  ASSERT_TRUE(bool(parseModule(R"(
@proc
def hw_ld(n: size, dst: [R][n], src: [R][n]):
    for i in seq(0, n):
        dst[i] = src[i]
)",
                               Env)));
  ProcRef P = mustParse(R"(
@proc
def two_loads(x: R[16], y: R[16]):
    hw_ld(8, y[0:8], x[0:8])
    hw_ld(8, y[8:16], x[8:16])
)",
                        &Env);
  // "#1" names the other call once the selected one has moved up; the
  // hoist must stop after that one move instead of swapping them back.
  std::string Want =
      printProc(must(moveStmtUp(at(P, "hw_ld(_) #1")), "move_up"));
  EXPECT_EQ(printProc(must(hoistStmtToTop(at(P, "hw_ld(_) #1")), "hoist")),
            Want);
  EXPECT_EQ(printProc(must(Schedule(P).hoistToTop("hw_ld(_) #1").proc(),
                           "facade hoist")),
            Want);
  EXPECT_EQ(printProc(must(traceStep(P, "hoist|hw_ld(_) #1"), "trace hoist")),
            Want);
}

TEST(CursorTest, LiftAllocLiftsTheSelectedAllocationOnEveryLevel) {
  ProcRef P = mustParse(R"(
@proc
def two_t(x: R[8]):
    for i in seq(0, 8):
        for j in seq(0, 8):
            t : R
            t = x[j]
            x[j] = t
        t : R
        t = x[i]
        x[i] = t
)");
  // "t : _ #1" is the allocation in the i body. One level takes it to the
  // top; a second level must fail there rather than re-match "#1" (now
  // the inner allocation) and lift that one instead.
  ProcRef One = must(liftAlloc(at(P, "t : _ #1"), 1), "lift 1");
  ASSERT_EQ(One->body().size(), 2u);
  EXPECT_EQ(One->body()[0]->kind(), StmtKind::Alloc);
  EXPECT_EQ(One->body()[1]->body()[0]->body()[0]->kind(), StmtKind::Alloc)
      << "the inner allocation must stay in the j loop";

  auto Two = liftAlloc(at(P, "t : _ #1"), 2);
  ASSERT_FALSE(bool(Two)) << printProc(*Two);
  EXPECT_NE(Two.error().message().find("already at the top level"),
            std::string::npos)
      << Two.error().str();
  EXPECT_FALSE(bool(traceStep(P, "lift_alloc|t : _ #1|2")));
}

//===----------------------------------------------------------------------===//
// Composable named procedures
//===----------------------------------------------------------------------===//

const char *MatmulSrc = R"(
@proc
def mm(A: R[8, 8], B: R[8, 8], C: R[8, 8]):
    for i in seq(0, 8):
        for j in seq(0, 8):
            for k in seq(0, 8):
                C[i, j] += A[i, k] * B[k, j]
)";

TEST(CursorTest, Tile2DMatchesHandWrittenSequence) {
  ProcRef P = mustParse(MatmulSrc);
  ProcRef Proc = must(
      tile2D(at(P, "for i in _: _"), 4, 4, "io", "ii", "jo", "ji"), "tile2d");

  // The documented expansion: split I; split J; reorder InnerI; reorder
  // InnerJ; reorder InnerI; simplify.
  ProcRef H = P;
  H = must(splitLoop(at(H, "for i in _: _"), 4, "io", "ii", SplitTail::Perfect),
           "h split i");
  H = must(splitLoop(at(H, "for j in _: _"), 4, "jo", "ji", SplitTail::Perfect),
           "h split j");
  H = must(reorderLoops(at(H, "for ii in _: _")), "h reorder ii");
  H = must(reorderLoops(at(H, "for ji in _: _")), "h reorder ji");
  H = must(reorderLoops(at(H, "for ii in _: _")), "h reorder ii 2");
  H = must(simplify(H), "h simplify");

  EXPECT_EQ(printProc(Proc), printProc(H));
  // The two derivations mint distinct Syms for the same spelled names, so
  // equality holds up to alpha, not by symbol identity.
  EXPECT_TRUE(alphaEquivalent(Proc->body(), H->body(), {}));

  // The intra-tile loops ended up below the k loop.
  Cursor K = must(Cursor::find(Proc, "for k in _: _"), "k");
  EXPECT_EQ(must(must(K.body(), "k body").stmt(), "below k")->kind(),
            StmtKind::For);

  // The facade's bare-iterator spelling addresses the same rewrite.
  EXPECT_EQ(printProc(must(
                Schedule(P).tile2d("i", 4, 4, "io", "ii", "jo", "ji").proc(),
                "tile2d facade")),
            printProc(Proc));

  // Not a 3-deep nest: the procedure reports the first failing primitive.
  ProcRef Flat = mustParse(R"(
@proc
def fl(x: R[8, 8]):
    for i in seq(0, 8):
        for j in seq(0, 8):
            x[i, j] = 1.0
)");
  EXPECT_FALSE(bool(
      tile2D(at(Flat, "for i in _: _"), 4, 4, "io", "ii", "jo", "ji")));
}

TEST(CursorTest, StageAndVectorizeMatchesStagePlusSplit) {
  ProcRef P = mustParse(R"(
@proc
def cp(x: R[8, 8], y: R[8, 8]):
    for i in seq(0, 8):
        for j in seq(0, 8):
            y[i, j] = x[i, j]
)");
  ProcRef Proc = must(stageAndVectorize(at(P, "for j in _: _"), "x[i, 0:8]",
                                        "xv", "DRAM", 4, "lv", "ll"),
                      "stage_vec");

  ProcRef H = must(stageMem(at(P, "for j in _: _"), "x[i, 0:8]", "xv"),
                   "h stage");
  // The copy-in loop stageMem mints is i0; the procedure re-finds it by
  // navigation, the hand spelling by name.
  H = must(
      splitLoop(at(H, "for i0 in _: _"), 4, "lv", "ll", SplitTail::Perfect),
      "h split copy");
  EXPECT_EQ(printProc(Proc), printProc(H));

  Cursor J = must(must(Cursor::find(P, "for i in _: _"), "i").body(), "j");
  EXPECT_EQ(printProc(must(stageAndVectorize(J, "x[i, 0:8]", "xv", "DRAM", 4,
                                             "lv", "ll"),
                           "stage_vec cursor")),
            printProc(Proc));

  // Lanes that do not divide the copy trip count fail the Perfect split.
  EXPECT_FALSE(bool(stageAndVectorize(at(P, "for j in _: _"), "x[i, 0:8]", "xv",
                                      "DRAM", 3, "lv", "ll")));
}

TEST(CursorTest, AutoDividePicksLargestDivisor) {
  ProcRef P = mustParse(R"(
@proc
def ad(x: R[12]):
    for i in seq(0, 12):
        x[i] = 1.0
)");
  // 12 with MaxFactor 8: 8, 7 do not divide; 6 does.
  EXPECT_EQ(
      printProc(
          must(autoDivide(at(P, "for i in _: _"), 8, "io", "ii"), "auto 8")),
      printProc(must(
          splitLoop(at(P, "for i in _: _"), 6, "io", "ii", SplitTail::Perfect),
          "split 6")));
  // MaxFactor 5: 4 is the largest divisor.
  EXPECT_EQ(
      printProc(
          must(autoDivide(at(P, "for i in _: _"), 5, "io", "ii"), "auto 5")),
      printProc(must(
          splitLoop(at(P, "for i in _: _"), 4, "io", "ii", SplitTail::Perfect),
          "split 4")));
  // The facade spelling agrees.
  Cursor I = must(Cursor::find(P, "for i in _: _"), "i");
  EXPECT_EQ(printProc(must(autoDivide(I, 8, "io", "ii"), "auto cursor")),
            printProc(must(Schedule(P).autoDivide("i", 8, "io", "ii").proc(),
                           "auto facade")));

  // Prime trip count: no factor in range.
  ProcRef Prime = mustParse(R"(
@proc
def pr(x: R[7]):
    for i in seq(0, 7):
        x[i] = 1.0
)");
  auto E1 = autoDivide(at(Prime, "for i in _: _"), 5, "io", "ii");
  ASSERT_FALSE(bool(E1));
  EXPECT_NE(E1.error().str().find("no factor"), std::string::npos)
      << E1.error().str();

  // Symbolic trip count: explicit error, not a misfire.
  ProcRef Sym = mustParse(R"(
@proc
def sy(n: size, x: R[n]):
    for i in seq(0, n):
        x[i] = 1.0
)");
  auto E2 = autoDivide(at(Sym, "for i in _: _"), 8, "io", "ii");
  ASSERT_FALSE(bool(E2));
  EXPECT_NE(E2.error().str().find("compile-time constant"),
            std::string::npos)
      << E2.error().str();
}

//===----------------------------------------------------------------------===//
// Trace layer: procedure step kinds and the '@' cursor-nav grammar
//===----------------------------------------------------------------------===//

TEST(CursorTest, ProcedureTraceOpsRoundTripAndApply) {
  using exo::testing::ScheduleStep;
  using exo::testing::applyStep;

  for (const char *Line :
       {"tile2d|i|4|4|io|ii|jo|ji|perfect",
        "auto_divide|i|8|io|ii",
        "stage_vec|for j in _: _|x[i, 0:8]|xv|DRAM|4|lv|ll"}) {
    ScheduleStep S = must(ScheduleStep::parse(Line), "parse");
    EXPECT_EQ(S.str(), Line);
  }

  ProcRef MM = mustParse(MatmulSrc);
  ScheduleStep Tile =
      must(ScheduleStep::parse("tile2d|i|4|4|io|ii|jo|ji|perfect"), "tile");
  EXPECT_EQ(printProc(must(applyStep(MM, Tile), "apply tile2d")),
            printProc(must(tile2D(at(MM, "for i in _: _"), 4, 4, "io", "ii",
                                  "jo", "ji"),
                           "direct tile2d")));

  ScheduleStep Div =
      must(ScheduleStep::parse("auto_divide|k|8|ko|ki"), "div");
  EXPECT_EQ(printProc(must(applyStep(MM, Div), "apply auto_divide")),
            printProc(must(autoDivide(at(MM, "for k in _: _"), 8, "ko", "ki"),
                           "direct auto_divide")));

  ProcRef CP = mustParse(R"(
@proc
def cp(x: R[8, 8], y: R[8, 8]):
    for i in seq(0, 8):
        for j in seq(0, 8):
            y[i, j] = x[i, j]
)");
  ScheduleStep SV = must(
      ScheduleStep::parse("stage_vec|for j in _: _|x[i, 0:8]|xv|DRAM|4|lv|ll"),
      "sv");
  EXPECT_EQ(printProc(must(applyStep(CP, SV), "apply stage_vec")),
            printProc(must(stageAndVectorize(at(CP, "for j in _: _"),
                                             "x[i, 0:8]", "xv", "DRAM", 4,
                                             "lv", "ll"),
                           "direct stage_vec")));
}

TEST(CursorTest, TraceCursorNavGrammar) {
  using exo::testing::ScheduleStep;
  using exo::testing::applyStep;

  // "t @body": resolve the outer t loop, navigate into its body — the
  // inner same-named loop no plain pattern can address without ordinals.
  ProcRef P = mustParse(R"(
@proc
def dup(x: R[4, 4]):
    for t in seq(0, 4):
        for t in seq(0, 4):
            x[t, t] = 1.0
)");
  ScheduleStep Nav =
      must(ScheduleStep::parse("split|t @body|2|a|b|perfect"), "nav");
  EXPECT_EQ(
      printProc(must(applyStep(P, Nav), "apply @body")),
      printProc(must(
          splitLoop(at(P, "for t in _: _ #1"), 2, "a", "b", SplitTail::Perfect),
          "ordinal split")));

  // Longer walks compose: @body.parent is the outer loop again.
  ScheduleStep Round =
      must(ScheduleStep::parse("split|t @body.parent|2|a|b|perfect"),
           "round");
  EXPECT_EQ(
      printProc(must(applyStep(P, Round), "apply @body.parent")),
      printProc(must(
          splitLoop(at(P, "for t in _: _"), 2, "a", "b", SplitTail::Perfect),
          "outer split")));

  // Unknown navigation steps are structured parse errors.
  ScheduleStep Bogus =
      must(ScheduleStep::parse("split|t @sideways|2|a|b|perfect"), "bogus");
  EXPECT_FALSE(bool(applyStep(P, Bogus)));
  // Navigating off the structure is an error too, not a crash.
  ScheduleStep Deep =
      must(ScheduleStep::parse("split|t @body.body.body|2|a|b|perfect"),
           "deep");
  EXPECT_FALSE(bool(applyStep(P, Deep)));

  // Malformed numbers are Parse errors in both the plain and the @nav
  // form: selection counts below 1, and integers that overflow int64.
  for (const char *Line :
       {"stage|for t in _: _|0|x[0:4, 0:4]|xs|DRAM",
        "stage|for t in _: _|-1|x[0:4, 0:4]|xs|DRAM",
        "stage|for t in _: _ @body|0|x[0:4, 0:4]|xs|DRAM",
        "stage|for t in _: _ @body|-1|x[0:4, 0:4]|xs|DRAM",
        "replace|x[_] = _|0|avx512:zero_ps",
        "replace|x[_] = _|-1|avx512:zero_ps",
        "replace|for t in _: _ @body.body|0|avx512:zero_ps",
        "replace|for t in _: _ @body.body|-1|avx512:zero_ps",
        "split|t|99999999999999999999|a|b|perfect",
        "split|t @body|99999999999999999999|a|b|perfect",
        "split|t|2|a|b|sideways"}) {
    auto R = applyStep(P, must(ScheduleStep::parse(Line), "parse"));
    if (R) {
      ADD_FAILURE() << Line << " was accepted";
      continue;
    }
    EXPECT_EQ(R.error().kind(), Error::Kind::Parse)
        << Line << ": " << R.error().str();
  }
}

TEST(CursorTest, TraceOpTableRoundTripsAndDerivesArity) {
  using exo::testing::ScheduleStep;
  using exo::testing::TraceOp;
  using exo::testing::applyStep;
  using exo::testing::findTraceOp;
  using exo::testing::traceOps;

  ProcRef P = mustParse(FwdSrc);
  for (const TraceOp &Op : traceOps()) {
    EXPECT_EQ(findTraceOp(Op.Name), &Op) << Op.Name << " is not unique";
    ScheduleStep S{Op.Name, {}};
    for (size_t I = 0; I < Op.Schema.size(); ++I)
      S.Args.push_back("arg" + std::to_string(I));
    ScheduleStep Back = must(ScheduleStep::parse(S.str()), "parse");
    EXPECT_EQ(Back.Op, S.Op);
    EXPECT_EQ(Back.Args, S.Args) << S.str();

    S.Args.push_back("extra");
    auto R = applyStep(P, S);
    ASSERT_FALSE(bool(R)) << S.str();
    EXPECT_EQ(R.error().kind(), Error::Kind::Parse);
    EXPECT_EQ(R.error().message(),
              std::string("trace op '") + Op.Name + "' expects " +
                  std::to_string(Op.Schema.size()) + " args, got " +
                  std::to_string(Op.Schema.size() + 1));
  }
}

TEST(CursorTest, TraceOpNameIsRejectionAndDirtyRegionName) {
  using exo::testing::ScheduleStep;
  using exo::testing::applyStep;
  using exo::testing::findTraceOp;

  // Per primitive: a step the op accepts and a step it rejects with a
  // structured payload, each on a small proc. The accepted rewrite's
  // DirtyRegion::Op, the rejection's ScheduleErrorInfo::Op and the trace
  // token must agree. Not covered here: set_precision records no region;
  // the composites (hoist, tile2d, auto_divide, stage_vec) carry their
  // last primitive's name; replace and config_write need hardware-library
  // procs.
  struct Case {
    const char *AcceptSrc;
    const char *Accept;
    const char *RejectSrc;
    const char *Reject;
  };
  const char *Loops = R"(
@proc
def loops(x: R[8], y: R[8]):
    for i in seq(0, 8):
        x[i] = 1.0
    for j in seq(0, 8):
        y[j] = 2.0
)";
  const char *Clash = R"(
@proc
def clash(x: R[9]):
    for i in seq(0, 8):
        x[i] = 1.0
    for j in seq(0, 8):
        x[j + 1] = 2.0
)";
  const char *Repeat = R"(
@proc
def repeat(x: R[8], y: R[8]):
    for k in seq(0, 4):
        x[0] = 3.0
    for m in seq(0, 4):
        y[0] += 1.0
)";
  const char *Nest = R"(
@proc
def nest(x: R[8, 8]):
    for i in seq(0, 8):
        for j in seq(0, 8):
            x[i, j] = 1.0
)";
  const char *Skew = R"(
@proc
def skew(x: R[9, 9]):
    for i in seq(0, 8):
        for j in seq(0, 8):
            x[i + 1, j] = x[i, j + 1]
)";
  const char *Stmts = R"(
@proc
def stmts(x: R[8], y: R[8], z: R[8]):
    for i in seq(0, 8):
        x[i] = 1.0
        z[i] = x[i]
        y[i] = 2.0
)";
  const char *Carried = R"(
@proc
def carried(x: R[9], y: R[9]):
    for i in seq(0, 8):
        x[i] = 1.0
        y[i] = x[i + 1]
)";
  const char *Local = R"(
@proc
def local(x: R[8], b: bool):
    for i in seq(0, 8):
        t : R
        t = 1.0
        if b:
            x[i] = t
)";
  const char *Guarded = R"(
@proc
def guarded(x: R[8], b: bool):
    for i in seq(0, 8):
        if b:
            x[i] = 1.0
)";
  const Case Cases[] = {
      {Loops, "split|i|4|io|ii|perfect", Loops, "split|i|3|io|ii|perfect"},
      {Loops, "unroll|i", Loops, "unroll|k"},
      {Guarded, "lift_if|if _: _", Local, "lift_if|t = _"},
      {Local, "lift_alloc|t : _|1", Local, "lift_alloc|t = _|1"},
      {Local, "set_memory|t|DRAM", Local, "set_memory|u|DRAM"},
      {Loops, "partition|i|3", Loops, "partition|i|9"},
      {Repeat, "remove|k", Repeat, "remove|m"},
      {Loops, "fuse|i", Clash, "fuse|i"},
      {Nest, "reorder|i", Skew, "reorder|i"},
      {Stmts, "reorder_stmts|z[_] = _", Stmts, "reorder_stmts|x[_] = _"},
      {Stmts, "move_up|y[_] = _", Stmts, "move_up|z[_] = _"},
      {Stmts, "fission|x[_] = _", Carried, "fission|x[_] = _"},
      {Loops, "stage|for i in _: _|1|x[0:8]|xs|DRAM", Loops,
       "stage|for i in _: _|1|x[0:4]|xs|DRAM"},
  };
  for (const Case &C : Cases) {
    ScheduleStep Acc = must(ScheduleStep::parse(C.Accept), "accept");
    ScheduleStep Rej = must(ScheduleStep::parse(C.Reject), "reject");
    ASSERT_NE(findTraceOp(Acc.Op), nullptr) << Acc.Op;
    ProcRef Q = must(applyStep(mustParse(C.AcceptSrc), Acc), C.Accept);
    ASSERT_TRUE(Q->dirtyRegion().has_value()) << C.Accept;
    EXPECT_EQ(Q->dirtyRegion()->Op, Acc.Op) << C.Accept;

    auto R = applyStep(mustParse(C.RejectSrc), Rej);
    ASSERT_FALSE(bool(R)) << C.Reject << " was accepted";
    ASSERT_NE(R.error().scheduleInfo(), nullptr) << R.error().str();
    EXPECT_EQ(R.error().scheduleInfo()->Op, Rej.Op) << R.error().str();
  }
}

} // namespace
