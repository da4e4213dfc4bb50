//===- tests/SchedulingOpsTest.cpp - Remaining operator tests --*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the operators not exercised by SchedulingTest.cpp:
/// bind_config, multi-level lift_alloc, move_stmt_up, delete_pass, the
/// hoist composite, and the paper's edge-case dispatch pattern
/// (partition_loop + specialized kernels + call_eqv + masked tails).
///
//===----------------------------------------------------------------------===//

#include "scheduling/Schedule.h"

#include "backend/CodeGen.h"

#include "hwlibs/avx512/Avx512Lib.h"
#include "interp/Interp.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

#include <random>

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

TEST(SchedulingOpsTest, BindConfigReplacesExpression) {
  ParseEnv Env;
  auto M = parseModule(R"(
@config
class CfgBC:
    st : stride
)",
                       Env);
  ASSERT_TRUE(bool(M));
  ConfigRef Cfg = Env.findConfig("CfgBC");
  ProcRef P = mustParse(R"(
@proc
def f(x: R[16, 8], y: R[16]):
    for i in seq(0, 16):
        y[i] = x[i, 0] + 0.0
)",
                        &Env);
  // Bind stride(x, 0)... the statement must contain the control expr;
  // use a loop bound instead: bind the literal upper bound through the
  // config (a contrived but legal §2-style rewrite).
  ProcRef Q = must(bindConfig(P, "for i in _: _", "16", Cfg, "st"),
                   "bind_config");
  ASSERT_EQ(Q->body()[0]->kind(), StmtKind::WriteConfig);
  std::string S = printProc(Q);
  EXPECT_NE(S.find("CfgBC.st = 16"), std::string::npos) << S;
  EXPECT_NE(S.find("seq(0, CfgBC.st)"), std::string::npos) << S;
  // The pollution is recorded.
  EXPECT_EQ(Q->configDelta().size(), 1u);
}

TEST(SchedulingOpsTest, BindConfigRejectedWhenFieldReadLater) {
  ParseEnv Env;
  auto M = parseModule(R"(
@config
class CfgBC2:
    st : stride
)",
                       Env);
  ASSERT_TRUE(bool(M));
  ConfigRef Cfg = Env.findConfig("CfgBC2");
  ProcRef P = mustParse(R"(
@proc
def f(x: R[16], y: R[16]):
    for i in seq(0, 16):
        x[i] = 1.0
    y[CfgBC2.st] = 2.0
)",
                        &Env);
  EXPECT_FALSE(bool(bindConfig(P, "for i in _: _", "16", Cfg, "st")));
}

TEST(SchedulingOpsTest, LiftAllocThroughTwoLoops) {
  ProcRef P = mustParse(R"(
@proc
def f(x: R[4, 4]):
    for i in seq(0, 4):
        for j in seq(0, 4):
            t : R
            t = x[i, j]
            x[i, j] = t * 2.0
)");
  ProcRef Q = must(liftAlloc(P, "t : _", 2), "lift_alloc x2");
  ASSERT_EQ(Q->body().size(), 2u);
  EXPECT_EQ(Q->body()[0]->kind(), StmtKind::Alloc);
  EXPECT_EQ(Q->body()[1]->kind(), StmtKind::For);
  // Size depending on the iterator cannot lift past it.
  ProcRef Bad = mustParse(R"(
@proc
def g(n: size, x: R[n]):
    for i in seq(0, n):
        t : R[i + 1]
        t[0] = x[i]
)");
  EXPECT_FALSE(bool(liftAlloc(Bad, "t : _", 1)));
}

TEST(SchedulingOpsTest, MoveStmtUpChecksCommutes) {
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8], y: R[8]):
    x[0] = 1.0
    y[0] = 2.0
)");
  ProcRef Q = must(moveStmtUp(P, "y[_] = _"), "move_stmt_up");
  EXPECT_EQ(Q->body()[0]->name().name(), "y");
  ProcRef Bad = mustParse(R"(
@proc
def g(x: R[8], y: R[8]):
    x[0] = 1.0
    y[0] = x[0]
)");
  EXPECT_FALSE(bool(moveStmtUp(Bad, "y[_] = _")));
}

TEST(SchedulingOpsTest, DeletePassPrunesMarkers) {
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8]):
    pass
    for i in seq(0, 8):
        pass
        x[i] = 1.0
)");
  ProcRef Q = must(deletePass(P), "delete_pass");
  std::string S = printProc(Q);
  EXPECT_EQ(S.find("pass"), std::string::npos) << S;
  EXPECT_EQ(Q->body().size(), 1u);
}

TEST(SchedulingOpsTest, HoistCompositeClimbsNestedLoops) {
  ParseEnv Env;
  auto M = parseModule(R"(
@config
class CfgHC:
    st : stride
)",
                       Env);
  ASSERT_TRUE(bool(M));
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8, 8], y: R[8, 8]):
    for i in seq(0, 8):
        for j in seq(0, 8):
            CfgHC.st = stride(x, 0)
            y[i, j] = x[i, j] * 2.0
)",
                        &Env);
  ProcRef Q = must(hoistStmtToTop(P, "CfgHC.st = _"), "hoist");
  EXPECT_EQ(Q->body()[0]->kind(), StmtKind::WriteConfig);
  // Exactly one write remains, before all loops.
  std::string S = printProc(Q);
  EXPECT_EQ(S.find("CfgHC.st", S.find("CfgHC.st") + 1), std::string::npos)
      << S;
}

/// The paper's §7.2 edge-case architecture in miniature: partition the
/// column loop into a full-width body and a masked tail, schedule the
/// body with full vectors, the tail with masked instructions, and verify
/// against the reference. (The paper instantiates nine such kernels; the
/// mechanism is identical.)
TEST(SchedulingOpsTest, EdgeDispatchWithMaskedTail) {
  const auto &HW = hw::avx512::avx512Lib();
  ParseEnv Env = HW.Env;
  // N = 24: one full 16-wide vector plus an 8-wide masked tail.
  ProcRef P = mustParse(R"(
@proc
def scale(x: f32[24], y: f32[24]):
    buf : f32[16] @ AVX512
    for j in seq(0, 16):
        buf[j] = x[j]
    for j2 in seq(0, 16):
        y[j2] = buf[j2]
    tail : f32[16] @ AVX512
    for t in seq(0, 8):
        tail[t] = x[16 + t]
    for t2 in seq(0, 8):
        y[16 + t2] = tail[t2]
)",
                        &Env);
  ProcRef Q = must(replaceWith(P, "for j in _: _", 1, HW.LoaduPs), "loadu");
  Q = must(replaceWith(Q, "for j2 in _: _", 1, HW.StoreuPs), "storeu");
  Q = must(replaceWith(Q, "for t in _: _", 1, HW.MaskzLoaduPs), "maskz");
  Q = must(replaceWith(Q, "for t2 in _: _", 1, HW.MaskStoreuPs), "masks");
  std::string S = printProc(Q);
  EXPECT_NE(S.find("mm512_loadu_ps("), std::string::npos) << S;
  EXPECT_NE(S.find("mm512_maskz_loadu_ps(8,"), std::string::npos) << S;
  EXPECT_NE(S.find("mm512_mask_storeu_ps(8,"), std::string::npos) << S;

  // Semantics preserved.
  std::vector<double> X(24), Y0(24, 0.0), Y1(24, 0.0);
  for (int I = 0; I < 24; ++I)
    X[I] = I * 0.5 - 3.0;
  interp::Interp In;
  auto mk = [](std::vector<double> &V) {
    return interp::ArgValue::buffer(
        interp::BufferView::dense(V.data(), {24}));
  };
  std::vector<double> XA = X;
  ASSERT_TRUE(bool(In.run(P, {mk(XA), mk(Y0)})));
  std::vector<double> XB = X;
  ASSERT_TRUE(bool(In.run(Q, {mk(XB), mk(Y1)})));
  EXPECT_EQ(Y0, Y1);
}

TEST(SchedulingOpsTest, PartitionThenSpecializeThenCallEqv) {
  // partition_loop creates the main/tail split; each part can then be
  // retargeted to a provenance-equivalent specialized kernel.
  ParseEnv Env;
  auto Lib = parseModule(R"(
@proc
def body(n: size, x: [R][n]):
    for i in seq(0, n):
        x[i] = 1.0
)",
                         Env);
  ASSERT_TRUE(bool(Lib));
  ProcRef Body = Env.findProc("body");
  ProcRef P = mustParse(R"(
@proc
def f(x: R[20]):
    body(20, x[0:20])
)",
                        &Env);
  ProcRef Inlined = must(inlineCall(P, "body(_)"), "inline");
  ProcRef Split = must(partitionLoop(Inlined, "for i in _: _", 16),
                       "partition");
  ASSERT_EQ(Split->body().size(), 2u);
  // Specialize: unroll the 4-iteration tail, keep it as an equivalent
  // subprocedure via the provenance lattice.
  ProcRef Tail = must(unrollLoop(Split, "for i in _: _ #1"), "unroll tail");
  std::string S = printProc(Tail);
  EXPECT_NE(S.find("x[16] = 1.0"), std::string::npos) << S;
  EXPECT_NE(S.find("x[19] = 1.0"), std::string::npos) << S;
  auto Delta = equivalenceDelta(P, Tail);
  ASSERT_TRUE(Delta.has_value());
  EXPECT_TRUE(Delta->empty()) << "pure rewrites pollute nothing";
}

TEST(SchedulingOpsTest, SetPrecisionFlowsThroughSchedules) {
  // Quantized kernels (§7.1's i8 Gemmini data): set_precision refines R
  // and the scheduled code keeps the precision.
  ProcRef P = mustParse(R"(
@proc
def f(x: R[32], y: R[32]):
    for i in seq(0, 32):
        y[i] = x[i] * 2.0
)");
  ProcRef Q = must(setPrecision(P, "x", ScalarKind::I8), "set x");
  Q = must(setPrecision(Q, "y", ScalarKind::I8), "set y");
  Q = must(splitLoop(Q, "for i in _: _", 8, "io", "ii",
                     SplitTail::Perfect),
           "split");
  std::string S = printProc(Q);
  EXPECT_NE(S.find("x: i8[32]"), std::string::npos) << S;
  auto C = backend::generateC(Q);
  // i8 * f32-literal is fine (literals adapt); the buffer type is int8_t.
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_NE(C->find("int8_t *x"), std::string::npos) << *C;
}

TEST(SchedulingOpsTest, SetPrecisionRetypesWindowsOfWindows) {
  // Fuzz seed 106: a window of a window of a retyped buffer must carry the
  // new element type, or the generated C reads int bits as float.
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8], y: R[8]):
    t : R[8]
    for i in seq(0, 8):
        t[i] = x[i]
    w = t[1:5]
    v = w[3:4]
    y[0] = v[0]
)");
  ProcRef Q = must(setPrecision(P, "t", ScalarKind::I32), "set t");
  const Block &B = Q->body();
  ASSERT_EQ(B.size(), 5u);
  ASSERT_EQ(B[2]->kind(), StmtKind::WindowStmt);
  ASSERT_EQ(B[3]->kind(), StmtKind::WindowStmt);
  EXPECT_EQ(B[2]->rhs()->type().elem(), ScalarKind::I32);
  EXPECT_EQ(B[3]->rhs()->type().elem(), ScalarKind::I32)
      << "nested window kept the old element type";
  EXPECT_EQ(B[4]->rhs()->type().elem(), ScalarKind::I32); // the read v[0]
  auto C = backend::generateC(Q);
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_EQ(C->find("exo_win_1f32"), std::string::npos) << *C;
}

} // namespace
