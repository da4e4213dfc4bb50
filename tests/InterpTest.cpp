//===- tests/InterpTest.cpp - Interpreter & equivalence tests --*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the reference interpreter, plus the central *program
/// equivalence property tests*: every scheduling operator must preserve
/// observable behaviour (Def 4.1), or behaviour modulo its declared
/// configuration delta (Def 4.2).
///
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "CursorAt.h"
#include "ir/Printer.h"
#include "scheduling/Schedule.h"

#include <gtest/gtest.h>

#include <random>

using namespace exo;
using namespace exo::interp;
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

std::vector<double> randomData(size_t N, unsigned Seed) {
  std::mt19937 Rng(Seed);
  std::uniform_real_distribution<double> Dist(-2.0, 2.0);
  std::vector<double> Out(N);
  for (double &V : Out)
    V = Dist(Rng);
  return Out;
}

TEST(InterpTest, RunsGemmCorrectly) {
  ProcRef P = mustParse(R"(
@proc
def gemm(n: size, A: R[n, n], B: R[n, n], C: R[n, n]):
    for i in seq(0, n):
        for j in seq(0, n):
            for k in seq(0, n):
                C[i, j] += A[i, k] * B[k, j]
)");
  const int64_t N = 5;
  std::vector<double> A = randomData(N * N, 1), B = randomData(N * N, 2),
                      C(N * N, 0.0);
  Interp I;
  auto R = I.run(P, {ArgValue::control(N),
                     ArgValue::buffer(BufferView::dense(A.data(), {N, N})),
                     ArgValue::buffer(BufferView::dense(B.data(), {N, N})),
                     ArgValue::buffer(BufferView::dense(C.data(), {N, N}))});
  ASSERT_TRUE(bool(R)) << R.error().str();
  for (int64_t Row = 0; Row < N; ++Row)
    for (int64_t Col = 0; Col < N; ++Col) {
      double Want = 0;
      for (int64_t K = 0; K < N; ++K)
        Want += A[Row * N + K] * B[K * N + Col];
      EXPECT_NEAR(C[Row * N + Col], Want, 1e-9);
    }
}

TEST(InterpTest, WindowsAliasTheBase) {
  ProcRef P = mustParse(R"(
@proc
def f(x: R[4, 4]):
    col = x[0:4, 1]
    for i in seq(0, 4):
        col[i] = 7.0
)");
  std::vector<double> X(16, 0.0);
  Interp I;
  auto R = I.run(P, {ArgValue::buffer(BufferView::dense(X.data(), {4, 4}))});
  ASSERT_TRUE(bool(R)) << R.error().str();
  for (int Row = 0; Row < 4; ++Row)
    for (int Col = 0; Col < 4; ++Col)
      EXPECT_EQ(X[Row * 4 + Col], Col == 1 ? 7.0 : 0.0);
}

TEST(InterpTest, BoundsViolationsReported) {
  ProcRef P = mustParse(R"(
@proc
def f(n: size, x: R[4]):
    x[n] = 1.0
)");
  std::vector<double> X(4, 0.0);
  Interp I;
  auto R = I.run(P, {ArgValue::control(9),
                     ArgValue::buffer(BufferView::dense(X.data(), {4}))});
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().kind(), Error::Kind::Bounds);
}

TEST(InterpTest, PreconditionViolationsReported) {
  ProcRef P = mustParse(R"(
@proc
def f(n: size, x: R[8]):
    assert n <= 8
    for i in seq(0, n):
        x[i] = 1.0
)");
  std::vector<double> X(8, 0.0);
  Interp I;
  auto R = I.run(P, {ArgValue::control(9),
                     ArgValue::buffer(BufferView::dense(X.data(), {8}))});
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().kind(), Error::Kind::Precondition);
}

TEST(InterpTest, ConfigStatePersists) {
  ParseEnv Env;
  auto M = parseModule(R"(
@config
class CfgI:
    v : int
)",
                       Env);
  ASSERT_TRUE(bool(M));
  ProcRef P = mustParse(R"(
@proc
def f(x: R[4]):
    CfgI.v = 3
    x[CfgI.v] = 9.0
)",
                        &Env);
  std::vector<double> X(4, 0.0);
  Interp I;
  auto R = I.run(P, {ArgValue::buffer(BufferView::dense(X.data(), {4}))});
  ASSERT_TRUE(bool(R)) << R.error().str();
  EXPECT_EQ(X[3], 9.0);
  EXPECT_EQ(I.configState().size(), 1u);
}

TEST(InterpTest, CallsAndBuiltins) {
  ParseEnv Env;
  auto Lib = parseModule(R"(
@proc
def relu_vec(n: size, x: [R][n]):
    for i in seq(0, n):
        x[i] = max(x[i], 0.0)
)",
                         Env);
  ASSERT_TRUE(bool(Lib));
  ProcRef P = mustParse(R"(
@proc
def f(x: R[2, 3]):
    for i in seq(0, 2):
        relu_vec(3, x[i, 0:3])
)",
                        &Env);
  std::vector<double> X = {-1, 2, -3, 4, -5, 6};
  Interp I;
  auto R = I.run(P, {ArgValue::buffer(BufferView::dense(X.data(), {2, 3}))});
  ASSERT_TRUE(bool(R)) << R.error().str();
  std::vector<double> Want = {0, 2, 0, 4, 0, 6};
  EXPECT_EQ(X, Want);
}

//===----------------------------------------------------------------------===//
// Schedule-equivalence property tests: run the original and the scheduled
// procedure on identical random inputs and compare every output buffer.
//===----------------------------------------------------------------------===//

/// Runs gemm-shaped procs (A, B inputs; C in-out) and returns C.
std::vector<double> runGemmLike(const ProcRef &P, int64_t N, unsigned Seed) {
  std::vector<double> A = randomData(N * N, Seed),
                      B = randomData(N * N, Seed + 1), C(N * N, 0.0);
  Interp I;
  std::vector<ArgValue> Args;
  if (P->args().size() == 4)
    Args.push_back(ArgValue::control(N));
  Args.push_back(ArgValue::buffer(BufferView::dense(A.data(), {N, N})));
  Args.push_back(ArgValue::buffer(BufferView::dense(B.data(), {N, N})));
  Args.push_back(ArgValue::buffer(BufferView::dense(C.data(), {N, N})));
  auto R = I.run(P, std::move(Args));
  if (!R)
    fatalError("interp failed: " + R.error().str());
  return C;
}

const char *Gemm32 = R"(
@proc
def gemm(A: R[32, 32], B: R[32, 32], C: R[32, 32]):
    for i in seq(0, 32):
        for j in seq(0, 32):
            for k in seq(0, 32):
                C[i, j] += A[i, k] * B[k, j]
)";

void expectSameResults(const ProcRef &P, const ProcRef &Q, int64_t N = 32) {
  std::vector<double> R0 = runGemmLike(P, N, 42);
  std::vector<double> R1 = runGemmLike(Q, N, 42);
  ASSERT_EQ(R0.size(), R1.size());
  for (size_t I = 0; I < R0.size(); ++I)
    ASSERT_NEAR(R0[I], R1[I], 1e-9) << "at " << I;
}

TEST(ScheduleEquivalence, SplitPreservesSemantics) {
  ProcRef P = mustParse(Gemm32);
  for (SplitTail Tail :
       {SplitTail::Guard, SplitTail::Cut, SplitTail::Perfect}) {
    ProcRef Q =
        must(splitLoop(at(P, "for i in _: _"), 8, "io", "ii", Tail), "split");
    expectSameResults(P, Q);
  }
  // A factor that does not divide 32 (Guard/Cut only).
  for (SplitTail Tail : {SplitTail::Guard, SplitTail::Cut}) {
    ProcRef Q =
        must(splitLoop(at(P, "for j in _: _"), 5, "jo", "ji", Tail), "split 5");
    expectSameResults(P, Q);
  }
}

TEST(ScheduleEquivalence, ReorderPreservesSemantics) {
  ProcRef P = mustParse(Gemm32);
  ProcRef Q = must(reorderLoops(at(P, "for j in _: _")), "reorder");
  expectSameResults(P, Q);
  ProcRef R = must(reorderLoops(at(Q, "for i in _: _")), "reorder 2");
  expectSameResults(P, R);
}

TEST(ScheduleEquivalence, StageMemPreservesSemantics) {
  ProcRef P = mustParse(Gemm32);
  ProcRef Q = must(splitLoop(at(P, "for i in _: _"), 8, "io", "ii",
                             SplitTail::Perfect),
                   "split i");
  Q = must(splitLoop(at(Q, "for k in _: _"), 8, "ko", "ki", SplitTail::Perfect),
           "split k");
  ProcRef R = must(stageMem(at(Q, "for ki in _: _"),
                            "A[8 * io : 8 * io + 8, 8 * ko : 8 * ko + 8]",
                            "a_tile"),
                   "stage A");
  expectSameResults(P, R);
}

TEST(ScheduleEquivalence, StageMemReducePreservesSemantics) {
  ProcRef P = mustParse(Gemm32);
  // Stage the C element accumulation across the k loop.
  ProcRef Q = must(stageMem(at(P, "for k in _: _"), "C[i:i+1, j:j+1]", "acc"),
                   "stage C");
  expectSameResults(P, Q);
}

TEST(ScheduleEquivalence, ComposedPipelinePreservesSemantics) {
  // A deep pipeline: tile both loops, reorder, stage, unroll.
  ProcRef P = mustParse(Gemm32);
  ProcRef Q = must(splitLoop(at(P, "for i in _: _"), 8, "io", "ii",
                             SplitTail::Perfect),
                   "split i");
  Q = must(splitLoop(at(Q, "for j in _: _"), 8, "jo", "ji", SplitTail::Perfect),
           "split j");
  Q = must(reorderLoops(at(Q, "for ii in _: _")), "reorder ii/jo");
  Q = must(simplify(Q), "simplify");
  expectSameResults(P, Q);
}

TEST(ScheduleEquivalence, FissionFusePreserveSemantics) {
  ProcRef P = mustParse(R"(
@proc
def f(A: R[32, 32], B: R[32, 32], C: R[32, 32]):
    for i in seq(0, 32):
        for j in seq(0, 32):
            C[i, j] = A[i, j] + 0.0
        for k in seq(0, 32):
            C[i, k] += B[i, k]
)");
  ProcRef Fissioned = must(fissionAfter(at(P, "for j in _: _")), "fission");
  expectSameResults(P, Fissioned);
  ProcRef Fused = must(fuseLoops(at(Fissioned, "for i in _: _")), "fuse");
  expectSameResults(P, Fused);
}

TEST(ScheduleEquivalence, UnrollPreservesSemantics) {
  ProcRef P = mustParse(R"(
@proc
def f(A: R[4, 4], B: R[4, 4], C: R[4, 4]):
    for i in seq(0, 4):
        for j in seq(0, 4):
            C[i, j] += A[i, j] * B[j, i]
)");
  ProcRef Q = must(unrollLoop(at(P, "for i in _: _")), "unroll");
  expectSameResults(P, Q, 4);
}

TEST(ScheduleEquivalence, EquivalenceModuloConfig) {
  // configWriteAt yields a proc equivalent modulo the field: data results
  // agree; the configuration state may differ (Def 4.2).
  ParseEnv Env;
  auto M = parseModule(R"(
@config
class CfgE:
    st : stride
)",
                       Env);
  ASSERT_TRUE(bool(M));
  ConfigRef Cfg = Env.findConfig("CfgE");
  ProcRef P = mustParse(R"(
@proc
def f(A: R[32, 32], B: R[32, 32], C: R[32, 32]):
    for i in seq(0, 32):
        for j in seq(0, 32):
            C[i, j] = A[i, j] * 2.0
)",
                        &Env);
  ProcRef Q = must(configWriteAt(at(P, "for i in _: _"), Cfg, "st",
                                 "stride(A, 0)"),
                   "configwrite");
  expectSameResults(P, Q); // data identical
  // But the configuration state differs — exactly the declared delta.
  Interp I1, I2;
  int64_t N = 32;
  std::vector<double> A = randomData(N * N, 7), B = randomData(N * N, 8),
                      C(N * N, 0.0);
  auto mk = [&](std::vector<double> &V, int64_t R, int64_t Cc) {
    return ArgValue::buffer(BufferView::dense(V.data(), {R, Cc}));
  };
  ASSERT_TRUE(bool(I1.run(P, {mk(A, N, N), mk(B, N, N), mk(C, N, N)})));
  ASSERT_TRUE(bool(I2.run(Q, {mk(A, N, N), mk(B, N, N), mk(C, N, N)})));
  EXPECT_TRUE(I1.configState().empty());
  EXPECT_EQ(I2.configState().size(), 1u);
  EXPECT_EQ(I2.configState().begin()->first, *Q->configDelta().begin());
}

// Parameterized sweep: random schedules of gemm across tile sizes.
class TilingEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TilingEquivalence, TiledGemmMatchesReference) {
  auto [TileI, TileJ] = GetParam();
  ProcRef P = mustParse(Gemm32);
  ProcRef Q = must(splitLoop(at(P, "for i in _: _"), TileI, "io", "ii",
                             SplitTail::Guard),
                   "split i");
  Q = must(splitLoop(at(Q, "for j in _: _"), TileJ, "jo", "ji",
                     SplitTail::Guard),
           "split j");
  expectSameResults(P, Q);
}

INSTANTIATE_TEST_SUITE_P(
    Tiles, TilingEquivalence,
    ::testing::Combine(::testing::Values(2, 3, 8, 16),
                       ::testing::Values(4, 7, 32)));

} // namespace
