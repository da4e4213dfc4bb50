//===- tests/CodeGenTest.cpp - C code generator tests ----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "backend/CodeGen.h"

#include "backend/Backend.h"
#include "backend/Checks.h"
#include "backend/Memory.h"
#include "interp/Interp.h"
#include "scheduling/Schedule.h"

#include <gtest/gtest.h>

#include <vector>

using namespace exo;
using namespace exo::backend;
using namespace exo::ir;
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

TEST(CodeGenTest, EmitsReadableGemm) {
  ProcRef P = mustParse(R"(
@proc
def gemm(n: size, A: R[n, n], B: R[n, n], C: R[n, n]):
    assert n > 0
    for i in seq(0, n):
        for j in seq(0, n):
            for k in seq(0, n):
                C[i, j] += A[i, k] * B[k, j]
)");
  auto C = generateC(P);
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_NE(C->find("void gemm(int_fast32_t n, float *A, float *B, "
                    "float *C)"),
            std::string::npos)
      << *C;
  EXPECT_NE(C->find("for (int_fast32_t i = 0; i < n; i++)"),
            std::string::npos)
      << *C;
  EXPECT_NE(C->find("EXO_ASSUME((n > 0));"), std::string::npos) << *C;
  EXPECT_NE(C->find("C[(i) * (n) + j] += (float)"), std::string::npos)
      << *C;
}

TEST(CodeGenTest, WindowsBecomeStructs) {
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
def f(x: R[8, 8]):
    for j in seq(0, 8):
        zero(8, x[0:8, j])
)",
                        &Env);
  auto C = generateC(P);
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_NE(C->find("typedef struct exo_win_1f32"), std::string::npos) << *C;
  EXPECT_NE(C->find("exo_win_1f32 v"), std::string::npos) << *C;
  EXPECT_NE(C->find("v.data["), std::string::npos) << *C;
  EXPECT_NE(C->find(".strides["), std::string::npos) << *C;
}

TEST(CodeGenTest, InstrCallsExpandTemplates) {
  ParseEnv Env;
  auto Lib = parseModule(R"x(
@instr("hw_mvin({n}, {dst}.data, {src}.data);", "// gemmini intrinsics")
def mvin(n: size, dst: [R][n] @ SCRATCH, src: [R][n]):
    for i in seq(0, n):
        dst[i] = src[i]
)x",
                         Env);
  ASSERT_TRUE(bool(Lib)) << Lib.error().str();
  ProcRef P = mustParse(R"(
@proc
def f(x: R[16], buf: R[16] @ SCRATCH):
    mvin(16, buf[0:16], x[0:16])
)",
                        &Env);
  // SCRATCH must exist for backend checks; register a non-addressable one.
  MemoryRegistry::instance().add(
      std::make_shared<Memory>("SCRATCH", /*Addressable=*/false));
  auto C = generateC(P);
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_NE(C->find("// gemmini intrinsics"), std::string::npos) << *C;
  EXPECT_NE(C->find("hw_mvin(16,"), std::string::npos) << *C;
  EXPECT_EQ(C->find("void mvin"), std::string::npos)
      << "instructions must not be emitted as functions\n"
      << *C;
}

TEST(CodeGenTest, NonAddressableMemoryRejected) {
  MemoryRegistry::instance().add(
      std::make_shared<Memory>("LOCKED", /*Addressable=*/false));
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8]):
    buf : R[8] @ LOCKED
    for i in seq(0, 8):
        buf[i] = x[i]
)");
  auto C = generateC(P);
  ASSERT_FALSE(bool(C));
  EXPECT_EQ(C.error().kind(), Error::Kind::Backend);
}

TEST(CodeGenTest, MixedPrecisionRejected) {
  using scheduling::setPrecision;
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8], y: R[8], z: R[8]):
    for i in seq(0, 8):
        z[i] = x[i] * y[i]
)");
  ProcRef Q = *setPrecision(P, "x", ScalarKind::I8);
  Q = *setPrecision(Q, "y", ScalarKind::F32);
  auto C = generateC(Q);
  ASSERT_FALSE(bool(C)) << "i8 * f32 must be rejected";
  EXPECT_EQ(C.error().kind(), Error::Kind::Backend);
}

TEST(CodeGenTest, ConfigStructsEmitted) {
  ParseEnv Env;
  auto M = parseModule(R"(
@config
class CfgG:
    st : stride
)",
                       Env);
  ASSERT_TRUE(bool(M));
  ProcRef P = mustParse(R"(
@proc
def f(x: R[8, 8], y: R[8]):
    CfgG.st = stride(x, 0)
    y[0] = 1.0
)",
                        &Env);
  auto C = generateC(P);
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_NE(C->find("static struct exo_CfgG"), std::string::npos) << *C;
  EXPECT_NE(C->find("CfgG.st = "), std::string::npos) << *C;
}

//===----------------------------------------------------------------------===//
// Compile-and-run: generated C must agree with the interpreter.
//===----------------------------------------------------------------------===//

/// Runs \p P through the csource backend (one fresh scratch directory per
/// module, so parallel test processes never share artifacts); \p Args
/// hold the C-side inputs and receive the outputs.
ExecStatus runCompiled(const ProcRef &P, BufferSet Args) {
  auto M = csourceBackend().lower(P);
  if (!M)
    return {ExecKind::CompileError, 0, M.error().str()};
  return csourceBackend().execute(**M, P->name(), Args);
}

TEST(CodeGenExecTest, GeneratedGemmMatchesInterpreter) {
  const char *Src = R"(
@proc
def gemm(n: size, A: R[n, n], B: R[n, n], C: R[n, n]):
    for i in seq(0, n):
        for j in seq(0, n):
            for k in seq(0, n):
                C[i, j] += A[i, k] * B[k, j]
)";
  ProcRef P = mustParse(Src);

  const int64_t N = 6;
  // Deterministic pseudo-random inputs, shared by C and the interpreter.
  std::vector<double> A(N * N), B(N * N), CC(N * N, 0.0);
  unsigned S = 12345;
  auto NextVal = [&S]() {
    S = S * 1103515245u + 12345u;
    return static_cast<double>(
               static_cast<float>((S >> 16) % 1000) / 250.0f) -
           2.0;
  };
  for (auto &V : A)
    V = NextVal();
  for (auto &V : B)
    V = NextVal();

  std::vector<float> Af(A.begin(), A.end()), Bf(B.begin(), B.end()),
      Cf(N * N, 0.0f);
  ExecStatus St = runCompiled(
      P, {RunArg::control(N),
          RunArg::buffer(Af.data(), Af.size() * sizeof(float)),
          RunArg::buffer(Bf.data(), Bf.size() * sizeof(float)),
          RunArg::buffer(Cf.data(), Cf.size() * sizeof(float))});
  ASSERT_TRUE(St.ok()) << execKindName(St.Kind) << ": " << St.Detail;

  interp::Interp I;
  auto R = I.run(P, {interp::ArgValue::control(N),
                     interp::ArgValue::buffer(
                         interp::BufferView::dense(A.data(), {N, N})),
                     interp::ArgValue::buffer(
                         interp::BufferView::dense(B.data(), {N, N})),
                     interp::ArgValue::buffer(
                         interp::BufferView::dense(CC.data(), {N, N}))});
  ASSERT_TRUE(bool(R)) << R.error().str();
  for (int64_t K = 0; K < N * N; ++K)
    EXPECT_NEAR(Cf[K], CC[K], 1e-3) << "element " << K;
}

TEST(CodeGenExecTest, ScheduledGemmMatchesToo) {
  using namespace exo::scheduling;
  const char *Src = R"(
@proc
def gemm16(A: R[16, 16], B: R[16, 16], C: R[16, 16]):
    for i in seq(0, 16):
        for j in seq(0, 16):
            for k in seq(0, 16):
                C[i, j] += A[i, k] * B[k, j]
)";
  ProcRef P = mustParse(Src);
  ProcRef Q = *splitLoop(P, "for i in _: _", 4, "io", "ii",
                         SplitTail::Perfect);
  Q = *reorderLoops(Q, "for ii in _: _");
  Q = *stageMem(Q, "for ii in _: _", 1, "B[0:16, j:j+1]", "b_col");
  Q = *simplify(Q);
  std::vector<float> A(256), B(256), C(256, 0.0f);
  for (int I = 0; I < 256; ++I) {
    A[I] = static_cast<float>(I % 7) - 3.0f;
    B[I] = static_cast<float>(I % 5) - 2.0f;
  }
  ExecStatus St = runCompiled(
      Q, {RunArg::buffer(A.data(), A.size() * sizeof(float)),
          RunArg::buffer(B.data(), B.size() * sizeof(float)),
          RunArg::buffer(C.data(), C.size() * sizeof(float))});
  ASSERT_TRUE(St.ok()) << execKindName(St.Kind) << ": " << St.Detail;
  for (int I = 0; I < 256; ++I) {
    int Row = I / 16, Col = I % 16;
    double Want = 0;
    for (int K = 0; K < 16; ++K)
      Want += (double)((Row * 16 + K) % 7 - 3.0) *
              (double)((K * 16 + Col) % 5 - 2.0);
    EXPECT_NEAR(C[I], Want, 1e-3) << "element " << I;
  }
}

} // namespace
