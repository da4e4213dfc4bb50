//===- tests/SchedulingTest.cpp - Scheduling operator tests ----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "scheduling/Schedule.h"

#include "CursorAt.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

using namespace exo;
using namespace exo::ir;
using namespace exo::scheduling;
using frontend::ParseEnv;
using frontend::parseModule;
using frontend::parseProc;

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

const char *Gemm128 = R"(
@proc
def gemm(A: R[128, 128], B: R[128, 128], C: R[128, 128]):
    for i in seq(0, 128):
        for j in seq(0, 128):
            for k in seq(0, 128):
                C[i, j] += A[i, k] * B[k, j]
)";

TEST(SchedulingTest, SplitPerfectProducesTiledLoop) {
  ProcRef P = mustParse(Gemm128);
  ProcRef Q = must(splitLoop(at(P, "for i in _: _"), 16, "io", "ii",
                             SplitTail::Perfect),
                   "split");
  std::string S = printProc(Q);
  EXPECT_NE(S.find("for io in seq(0, 8):"), std::string::npos) << S;
  EXPECT_NE(S.find("for ii in seq(0, 16):"), std::string::npos) << S;
  EXPECT_NE(S.find("C[16 * io + ii, j]"), std::string::npos) << S;
}

TEST(SchedulingTest, SplitPerfectFailsOnIndivisible) {
  ProcRef P = mustParse(R"(
@proc
def f(n: size, x: R[n]):
    for i in seq(0, n):
        x[i] = 0.0
)");
  auto Q =
      splitLoop(at(P, "for i in _: _"), 16, "io", "ii", SplitTail::Perfect);
  EXPECT_FALSE(bool(Q)) << "n is not provably divisible by 16";
}

TEST(SchedulingTest, SplitGuardIsAlwaysApplicable) {
  ProcRef P = mustParse(R"(
@proc
def f(n: size, x: R[n]):
    for i in seq(0, n):
        x[i] = 0.0
)");
  ProcRef Q = must(splitLoop(at(P, "for i in _: _"), 16, "io", "ii",
                             SplitTail::Guard),
                   "split guard");
  std::string S = printProc(Q);
  EXPECT_NE(S.find("if 16 * io + ii < n:"), std::string::npos) << S;
}

TEST(SchedulingTest, SplitCutEmitsTailLoop) {
  ProcRef P = mustParse(R"(
@proc
def f(n: size, x: R[n]):
    for i in seq(0, n):
        x[i] = 0.0
)");
  ProcRef Q = must(splitLoop(at(P, "for i in _: _"), 16, "io", "ii",
                             SplitTail::Cut),
                   "split cut");
  std::string S = printProc(Q);
  EXPECT_NE(S.find("for io in seq(0, n / 16):"), std::string::npos) << S;
  EXPECT_NE(S.find("seq(0, n % 16):"), std::string::npos) << S;
}

TEST(SchedulingTest, ReorderIndependentLoops) {
  ProcRef P = mustParse(Gemm128);
  ProcRef Q = must(reorderLoops(at(P, "for j in _: _")), "reorder j,k");
  std::string S = printProc(Q);
  // After reordering j and k, the k loop is outside the j loop.
  size_t KPos = S.find("for k in");
  size_t JPos = S.find("for j in");
  ASSERT_NE(KPos, std::string::npos);
  ASSERT_NE(JPos, std::string::npos);
  EXPECT_LT(KPos, JPos) << S;
}

TEST(SchedulingTest, ReorderRejectsLoopCarriedDependence) {
  // x[i] depends on x[i-1] computed in a different j — reordering the
  // loops flips writes and reads of the same location.
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8, 8]):
    for i in seq(0, 8):
        for j in seq(0, 8):
            x[i, 0] = x[j, 0] + 1.0
)");
  auto Q = reorderLoops(at(P, "for i in _: _"));
  EXPECT_FALSE(bool(Q));
}

TEST(SchedulingTest, UnrollReplicatesBody) {
  ProcRef P = mustParse(R"(
@proc
def f(x: R[4]):
    for i in seq(0, 4):
        x[i] = 1.0
)");
  ProcRef Q = must(unrollLoop(at(P, "for i in _: _")), "unroll");
  std::string S = printProc(Q);
  EXPECT_EQ(S.find("for"), std::string::npos) << S;
  EXPECT_NE(S.find("x[0] = 1.0"), std::string::npos) << S;
  EXPECT_NE(S.find("x[3] = 1.0"), std::string::npos) << S;
  EXPECT_EQ(Q->body().size(), 4u);
}

TEST(SchedulingTest, PartitionLoopSplitsRange) {
  ProcRef P = mustParse(R"(
@proc
def f(x: R[10]):
    for i in seq(0, 10):
        x[i] = 1.0
)");
  ProcRef Q = must(partitionLoop(at(P, "for i in _: _"), 6), "partition");
  ASSERT_EQ(Q->body().size(), 2u);
  std::string S = printProc(Q);
  EXPECT_NE(S.find("seq(0, 6)"), std::string::npos) << S;
  EXPECT_NE(S.find("seq(6, 10)"), std::string::npos) << S;
  // Cut beyond the extent must fail.
  EXPECT_FALSE(bool(partitionLoop(at(P, "for i in _: _"), 11)));
}

TEST(SchedulingTest, FuseLoopsWithEqualBounds) {
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8], y: R[8]):
    for i in seq(0, 8):
        x[i] = 1.0
    for j in seq(0, 8):
        y[j] = 2.0
)");
  ProcRef Q = must(fuseLoops(at(P, "for i in _: _")), "fuse");
  ASSERT_EQ(Q->body().size(), 1u);
  EXPECT_EQ(Q->body()[0]->body().size(), 2u);
}

TEST(SchedulingTest, FuseRejectsFlowDependence) {
  // y[i] = x[i+1] reads values the first loop writes later.
  ProcRef P = mustParse(R"(
@proc
def f(x: R[10], y: R[8]):
    for i in seq(0, 8):
        x[i + 1] = 1.0
    for j in seq(0, 8):
        y[j] = x[j + 2] + 0.0
)");
  auto Q = fuseLoops(at(P, "for i in _: _"));
  EXPECT_FALSE(bool(Q)) << "after fusion iteration j would read x[j+2] "
                           "before iteration j+1 writes it";
}

TEST(SchedulingTest, LiftIfOutOfLoop) {
  ProcRef P = mustParse(R"(
@proc
def f(n: size, b: bool, x: R[n]):
    for i in seq(0, n):
        if b:
            x[i] = 1.0
)");
  ProcRef Q = must(liftIf(at(P, "if _: _")), "lift_if");
  ASSERT_EQ(Q->body()[0]->kind(), StmtKind::If);
  EXPECT_EQ(Q->body()[0]->body()[0]->kind(), StmtKind::For);
}

TEST(SchedulingTest, ReorderStmtsChecksCommutativity) {
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8], y: R[8]):
    x[0] = 1.0
    y[0] = 2.0
)");
  ProcRef Q = must(reorderStmts(at(P, "x[_] = _")), "reorder_stmts");
  EXPECT_EQ(Q->body()[0]->name().name(), "y");

  ProcRef Bad = mustParse(R"(
@proc
def g(x: R[8], y: R[8]):
    x[0] = 1.0
    y[0] = x[0]
)");
  EXPECT_FALSE(bool(reorderStmts(at(Bad, "x[_] = _"))));
}

TEST(SchedulingTest, FissionSplitsLoop) {
  ProcRef P = mustParse(R"(
@proc
def f(n: size, x: R[n], y: R[n]):
    for i in seq(0, n):
        x[i] = 1.0
        y[i] = 2.0
)");
  ProcRef Q = must(fissionAfter(at(P, "x[_] = _")), "fission");
  ASSERT_EQ(Q->body().size(), 2u);
  EXPECT_EQ(Q->body()[0]->kind(), StmtKind::For);
  EXPECT_EQ(Q->body()[1]->kind(), StmtKind::For);
}

TEST(SchedulingTest, FissionRejectsBackwardDependence) {
  // The second half writes x[i+1], which the first half reads at the
  // *next* iteration — after fission the first loop would read stale
  // values.
  ProcRef P = mustParse(R"(
@proc
def f(x: R[10], y: R[8]):
    for i in seq(0, 8):
        y[i] = x[i] + 1.0
        x[i + 1] = 2.0
)");
  EXPECT_FALSE(bool(fissionAfter(at(P, "y[_] = _"))));
}

TEST(SchedulingTest, RemoveLoopOfIdempotentBody) {
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8]):
    for i in seq(0, 4):
        x[0] = 3.0
)");
  ProcRef Q = must(removeLoop(at(P, "for i in _: _")), "remove_loop");
  ASSERT_EQ(Q->body().size(), 1u);
  EXPECT_EQ(Q->body()[0]->kind(), StmtKind::Assign);
}

TEST(SchedulingTest, RemoveLoopRejectsNonIdempotent) {
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8]):
    for i in seq(0, 4):
        x[0] += 3.0
)");
  EXPECT_FALSE(bool(removeLoop(at(P, "for i in _: _"))));
  // Possibly-empty loops must also be rejected.
  ProcRef Maybe = mustParse(R"(
@proc
def g(n: size, x: R[8]):
    for i in seq(0, n):
        x[0] = 3.0
)");
  EXPECT_FALSE(bool(removeLoop(at(Maybe, "for i in _: _"))));
}

TEST(SchedulingTest, LiftAllocOutOfLoop) {
  ProcRef P = mustParse(R"(
@proc
def f(n: size, x: R[n]):
    for i in seq(0, n):
        tmp : R
        tmp = x[i]
        x[i] = tmp + 1.0
)");
  ProcRef Q = must(liftAlloc(at(P, "tmp : _")), "lift_alloc");
  ASSERT_EQ(Q->body().size(), 2u);
  EXPECT_EQ(Q->body()[0]->kind(), StmtKind::Alloc);
  EXPECT_EQ(Q->body()[1]->kind(), StmtKind::For);
}

TEST(SchedulingTest, BindExprStagesScalar) {
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8], y: R[8]):
    for i in seq(0, 8):
        y[i] = x[i] * 2.0 + x[i] * 2.0
)");
  ProcRef Q = must(bindExpr(at(P, "y[_] = _"), "x[i] * 2.0", "t"), "bind_expr");
  const Block &LoopBody = Q->body()[0]->body();
  ASSERT_EQ(LoopBody.size(), 3u);
  EXPECT_EQ(LoopBody[0]->kind(), StmtKind::Alloc);
  EXPECT_EQ(LoopBody[1]->kind(), StmtKind::Assign);
  std::string S = printStmt(LoopBody[2]);
  EXPECT_NE(S.find("t + t"), std::string::npos) << S;
}

TEST(SchedulingTest, AddGuardRequiresProof) {
  ProcRef P = mustParse(R"(
@proc
def f(n: size, x: R[n]):
    assert n >= 4
    for i in seq(0, 4):
        x[i] = 1.0
)");
  ProcRef Q = must(addGuard(at(P, "x[_] = _"), "i < n"), "add_guard");
  EXPECT_EQ(Q->body()[0]->body()[0]->kind(), StmtKind::If);
  EXPECT_FALSE(bool(addGuard(at(P, "x[_] = _"), "i < 2")));
}

TEST(SchedulingTest, StageMemReadOnly) {
  ProcRef P = mustParse(Gemm128);
  // Tile i and k, then stage the A tile.
  ProcRef Q = must(splitLoop(at(P, "for i in _: _"), 16, "io", "ii",
                             SplitTail::Perfect),
                   "split i");
  Q = must(splitLoop(at(Q, "for k in _: _"), 16, "ko", "ki",
                     SplitTail::Perfect),
           "split k");
  // Move loops: io, ii, j, ko, ki — reorder to io, j, ko, ii, ki is not
  // needed; stage A[16*io:16*io+16, 16*ko:16*ko+16] around the ki loop's
  // enclosing ko body. Select the "for ki" loop statement.
  ProcRef R = must(stageMem(at(Q, "for ki in _: _"),
                            "A[16 * io : 16 * io + 16, 16 * ko : 16 * ko + "
                            "16]",
                            "a_tile", "DRAM"),
                   "stage_mem");
  std::string S = printProc(R);
  EXPECT_NE(S.find("a_tile : R[16, 16]"), std::string::npos) << S;
  // Copy-in present, no copy-out (A is only read).
  EXPECT_NE(S.find("a_tile[i0, i1] = A["), std::string::npos) << S;
  EXPECT_EQ(S.find("] = a_tile["), std::string::npos) << S;
}

TEST(SchedulingTest, StageMemReduceOnly) {
  ProcRef P = mustParse(R"(
@proc
def f(n: size, c: R[8]):
    for i in seq(0, 8):
        for k in seq(0, n):
            c[i] += 1.0
)");
  ProcRef Q = must(stageMem(at(P, "for k in _: _"), "c[i:i+1]", "acc"),
                   "stage reduce");
  std::string S = printProc(Q);
  // Zero-initialized stage, reduction into it, and += on the way out.
  EXPECT_NE(S.find("] = 0.0"), std::string::npos) << S;
  EXPECT_NE(S.find("acc[0] += 1.0"), std::string::npos) << S;
  EXPECT_NE(S.find("] += acc["), std::string::npos) << S;
}

TEST(SchedulingTest, StageMemRejectsOutOfWindowAccess) {
  ProcRef P = mustParse(R"(
@proc
def f(x: R[16], y: R[16]):
    for i in seq(0, 16):
        y[i] = x[i] + 0.0
)");
  auto Q = stageMem(at(P, "for i in _: _"), "x[0:8]", "xs");
  EXPECT_FALSE(bool(Q)) << "accesses x[8..15] fall outside the window";
}

TEST(SchedulingTest, SetMemoryAndPrecision) {
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8]):
    tmp : R[8]
    for i in seq(0, 8):
        tmp[i] = x[i]
)");
  ProcRef Q = must(setMemory(P, "tmp", "SCRATCH"), "set_memory");
  EXPECT_NE(printProc(Q).find("@ SCRATCH"), std::string::npos);
  ProcRef R = must(setPrecision(Q, "tmp", ScalarKind::F32), "set_precision");
  EXPECT_NE(printProc(R).find("tmp : f32[8]"), std::string::npos)
      << printProc(R);
  ProcRef S = must(setPrecision(R, "x", ScalarKind::F32), "set_precision x");
  EXPECT_NE(printProc(S).find("x: f32[8]"), std::string::npos)
      << printProc(S);
}

TEST(SchedulingTest, InlineCallSubstitutesBody) {
  ParseEnv Env;
  auto Lib = parseModule(R"(
@proc
def zero(n: size, v: [R][n]):
    for i in seq(0, n):
        v[i] = 0.0
)",
                         Env);
  ASSERT_TRUE(bool(Lib));
  ProcRef P = mustParse(R"(
@proc
def f(x: R[16]):
    zero(8, x[4:12])
)",
                        &Env);
  ProcRef Q = must(inlineCall(at(P, "zero(_)")), "inline");
  std::string S = printProc(Q);
  EXPECT_EQ(S.find("zero("), std::string::npos) << S;
  EXPECT_NE(S.find("x[4 + i] = 0.0"), std::string::npos) << S;
}

TEST(SchedulingTest, ProvenanceAndCallEqv) {
  ParseEnv Env;
  auto Lib = parseModule(R"(
@proc
def work(x: [R][8]):
    for i in seq(0, 8):
        x[i] = 1.0
)",
                         Env);
  ASSERT_TRUE(bool(Lib));
  ProcRef Work = Env.findProc("work");
  // Derive an equivalent scheduled version.
  ProcRef Fast = must(unrollLoop(at(Work, "for i in _: _")), "unroll");
  auto Delta = equivalenceDelta(Work, Fast);
  ASSERT_TRUE(Delta.has_value());
  EXPECT_TRUE(Delta->empty());

  ProcRef P = mustParse(R"(
@proc
def f(y: R[8]):
    work(y[0:8])
)",
                        &Env);
  ProcRef Q = must(callEqv(at(P, "work(_)"), Fast), "call_eqv");
  EXPECT_EQ(Q->body()[0]->proc().get(), Fast.get());

  // An unrelated proc must be rejected.
  ProcRef Stranger = mustParse(R"(
@proc
def other(x: [R][8]):
    for i in seq(0, 8):
        x[i] = 1.0
)");
  EXPECT_FALSE(bool(callEqv(at(P, "work(_)"), Stranger)));
}

TEST(SchedulingTest, ConfigWriteAtPollutesProvenance) {
  ParseEnv Env;
  auto M = parseModule(R"(
@config
class CfgA:
    st : stride
)",
                       Env);
  ASSERT_TRUE(bool(M));
  ConfigRef Cfg = Env.findConfig("CfgA");
  ProcRef P = mustParse(R"(
@proc
def f(src: R[16, 16], dst: R[16, 16]):
    for i in seq(0, 16):
        for j in seq(0, 16):
            dst[i, j] = src[i, j]
)",
                        &Env);
  ProcRef Q = must(configWriteAt(at(P, "for i in _: _"), Cfg, "st",
                                 "stride(src, 0)"),
                   "configwrite_at");
  EXPECT_EQ(Q->body()[0]->kind(), StmtKind::WriteConfig);
  ASSERT_EQ(Q->configDelta().size(), 1u);
  auto Delta = equivalenceDelta(P, Q);
  ASSERT_TRUE(Delta.has_value());
  EXPECT_EQ(Delta->size(), 1u);
}

TEST(SchedulingTest, ConfigWriteAtRejectedWhenFieldIsReadLater) {
  ParseEnv Env;
  auto M = parseModule(R"(
@config
class CfgB:
    st : stride
)",
                       Env);
  ASSERT_TRUE(bool(M));
  ConfigRef Cfg = Env.findConfig("CfgB");
  ProcRef P = mustParse(R"(
@proc
def f(x: R[16], y: R[16]):
    for i in seq(0, 16):
        x[i] = 1.0
    y[CfgB.st] = 2.0
)",
                        &Env);
  auto Q = configWriteAt(at(P, "for i in _: _"), Cfg, "st", "3");
  EXPECT_FALSE(bool(Q)) << "the field is read afterwards";
}

TEST(SchedulingTest, SimplifyFoldsIndexArithmetic) {
  ProcRef P = mustParse(R"(
@proc
def f(x: R[64]):
    for io in seq(0, 4):
        for ii in seq(0, 16):
            x[16 * io + ii * 1 + 0] = 1.0
)");
  ProcRef Q = must(simplify(P), "simplify");
  std::string S = printProc(Q);
  EXPECT_NE(S.find("x[16 * io + ii]"), std::string::npos) << S;
}

TEST(SchedulingTest, ReplaceWithInstrSelectsInstruction) {
  ParseEnv Env;
  auto Lib = parseModule(R"x(
@instr("hw_ld({m}, {dst}.data, {src}.data)")
def ld16(m: size, dst: [R][16, 16] @ SCRATCH, src: [R][16, m]):
    assert m <= 16
    for i in seq(0, 16):
        for j in seq(0, m):
            dst[i, j] = src[i, j]
)x",
                         Env);
  ASSERT_TRUE(bool(Lib)) << Lib.error().str();
  ProcRef Ld = Env.findProc("ld16");

  ProcRef P = mustParse(R"(
@proc
def stage(A: R[128, 128], buf: R[16, 16] @ SCRATCH):
    for io in seq(0, 8):
        for ko in seq(0, 8):
            for ii in seq(0, 16):
                for ki in seq(0, 16):
                    buf[ii, ki] = A[16 * io + ii, 16 * ko + ki]
)",
                        &Env);
  ProcRef Q = must(replaceWith(at(P, "for ii in _: _"), Ld), "replace");
  std::string S = printProc(Q);
  EXPECT_NE(S.find("ld16("), std::string::npos) << S;
  // The inferred window of A must be the io/ko tile.
  EXPECT_NE(S.find("A[16 * io:16 * io + 16, 16 * ko:16 * ko + 16]"),
            std::string::npos)
      << S;
}

TEST(SchedulingTest, ReplaceInfersColumnWindows) {
  ParseEnv Env;
  auto Lib = parseModule(R"(
@proc
def copy8(dst: [R][8], src: [R][8]):
    for i in seq(0, 8):
        dst[i] = src[i]
)",
                         Env);
  ASSERT_TRUE(bool(Lib));
  ProcRef Copy = Env.findProc("copy8");
  // The source is a *column* of a 2-d buffer: the unifier must pick the
  // right dimension to window.
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8, 8], y: R[8]):
    for i in seq(0, 8):
        y[i] = x[i, 3]
)",
                        &Env);
  ProcRef Q = must(replaceWith(at(P, "for i in _: _"), Copy), "replace col");
  std::string S = printProc(Q);
  EXPECT_NE(S.find("copy8(y[0:8], x[0:8, 3])"), std::string::npos) << S;
}

TEST(SchedulingTest, ReplaceChecksPreconditions) {
  ParseEnv Env;
  auto Lib = parseModule(R"(
@proc
def copyn(n: size, dst: [R][n], src: [R][n]):
    assert n <= 4
    for i in seq(0, n):
        dst[i] = src[i]
)",
                         Env);
  ASSERT_TRUE(bool(Lib));
  ProcRef Copy = Env.findProc("copyn");
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8], y: R[8]):
    for i in seq(0, 8):
        y[i] = x[i]
)",
                        &Env);
  auto Q = replaceWith(at(P, "for i in _: _"), Copy);
  EXPECT_FALSE(bool(Q)) << "n = 8 violates the assert n <= 4";
}

TEST(SchedulingTest, ReplaceRejectsShapeMismatch) {
  ParseEnv Env;
  auto Lib = parseModule(R"(
@proc
def axpy(n: size, x: [R][n], y: [R][n]):
    for i in seq(0, n):
        y[i] += x[i] * 2.0
)",
                         Env);
  ASSERT_TRUE(bool(Lib));
  ProcRef Axpy = Env.findProc("axpy");
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8], y: R[8]):
    for i in seq(0, 8):
        y[i] = x[i]
)",
                        &Env);
  EXPECT_FALSE(bool(replaceWith(at(P, "for i in _: _"), Axpy)))
      << "assignment vs reduction must not unify";
}

// ---------------------------------------------------------------------
// The paper's §2 configuration-hoisting pipeline, end to end.
// ---------------------------------------------------------------------
TEST(SchedulingTest, Section2ConfigHoistingPipeline) {
  ParseEnv Env;
  auto M = parseModule(R"(
@config
class ConfigLoad:
    src_stride : stride
)",
                       Env);
  ASSERT_TRUE(bool(M)) << M.error().str();
  ConfigRef Cfg = Env.findConfig("ConfigLoad");

  // The hardware library: a config instruction and a load instruction
  // whose precondition demands the configured stride.
  auto Lib = parseModule(R"x(
@instr("config_ld({s});")
def config_ld_def(s: stride):
    ConfigLoad.src_stride = s

@instr("mvin({src}.data, {dst}.data);")
def real_ld_data(n: size, m: size, src: [R][n, m], dst: [R][n, 16]):
    assert m <= 16
    assert ConfigLoad.src_stride == stride(src, 0)
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = src[i, j]
)x",
                         Env);
  ASSERT_TRUE(bool(Lib)) << Lib.error().str();
  ProcRef ConfigLd = Env.findProc("config_ld_def");
  ProcRef RealLd = Env.findProc("real_ld_data");

  // The application: a loop of strided tile loads.
  ProcRef App = mustParse(R"(
@proc
def loads(A: R[128, 128], buf: R[16, 16]):
    for ko in seq(0, 8):
        ConfigLoad.src_stride = stride(A, 0)
        for i in seq(0, 16):
            for j in seq(0, 16):
                buf[i, j] = A[i, 16 * ko + j]
)",
                          &Env);

  // 1. replace the config write with the config instruction.
  ProcRef S1 = must(replaceWith(at(App, "ConfigLoad.src_stride = _"), ConfigLd),
                    "replace config write");
  EXPECT_NE(printProc(S1).find("config_ld_def(stride(A, 0))"),
            std::string::npos)
      << printProc(S1);

  // 2. replace the load loop nest with the mvin instruction — its
  //    precondition about ConfigLoad.src_stride is provable thanks to the
  //    dataflow through the config call.
  ProcRef S2 = must(replaceWith(at(S1, "for i in _: _"), RealLd),
                    "replace load");
  EXPECT_NE(printProc(S2).find("real_ld_data(16, 16,"), std::string::npos)
      << printProc(S2);

  // 3. fission the config call from the load call.
  ProcRef S3 = must(fissionAfter(at(S2, "config_ld_def(_)")), "fission");

  // 4. remove the now-redundant loop around the config call.
  ProcRef S4 = must(removeLoop(at(S3, "for ko in _: _")), "remove_loop");
  std::string Final = printProc(S4);
  // The config instruction now executes once, before the load loop.
  size_t CfgPos = Final.find("config_ld_def");
  size_t LoopPos = Final.find("for ko");
  ASSERT_NE(CfgPos, std::string::npos) << Final;
  ASSERT_NE(LoopPos, std::string::npos) << Final;
  EXPECT_LT(CfgPos, LoopPos) << Final;
  // Exactly one config call remains.
  EXPECT_EQ(Final.find("config_ld_def", CfgPos + 1), std::string::npos)
      << Final;
}

} // namespace
