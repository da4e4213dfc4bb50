//===- tests/IntegrationTest.cpp - Cross-module integration ----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests tying the whole stack together: every scheduled
/// case-study kernel must pass the front-end checks (type, static
/// bounds, preconditions), round-trip through the printer/parser, and
/// survive the backend checks — after dozens of rewrites.
///
//===----------------------------------------------------------------------===//

#include "CursorAt.h"
#include "apps/Conv.h"
#include "apps/GemminiMatmul.h"
#include "apps/Sgemm.h"
#include "backend/Checks.h"
#include "frontend/StaticChecks.h"
#include "frontend/TypeCheck.h"
#include "hwlibs/avx512/Avx512Lib.h"
#include "hwlibs/gemmini/GemminiLib.h"
#include "ir/Printer.h"
#include "scheduling/Procedures.h"

#include <gtest/gtest.h>

using namespace exo;
using namespace exo::ir;

namespace {

void expectAllChecksPass(const ProcRef &P, const char *What) {
  auto T = frontend::typeCheck(P);
  EXPECT_TRUE(bool(T)) << What << ": " << T.error().str();
  auto B = frontend::boundsCheck(P);
  EXPECT_TRUE(bool(B)) << What << ": " << B.error().str();
  auto A = frontend::assertCheck(P);
  EXPECT_TRUE(bool(A)) << What << ": " << A.error().str();
  auto M = backend::checkMemories(P);
  EXPECT_TRUE(bool(M)) << What << ": " << M.error().str();
  auto Pr = backend::checkPrecisions(P);
  EXPECT_TRUE(bool(Pr)) << What << ": " << Pr.error().str();
}

TEST(IntegrationTest, GemminiMatmulKernelsPassAllChecks) {
  auto K = apps::buildGemminiMatmul(32, 32, 32);
  ASSERT_TRUE(bool(K)) << K.error().str();
  expectAllChecksPass(K->Algorithm, "algorithm");
  expectAllChecksPass(K->OldLib, "old-lib");
  expectAllChecksPass(K->ExoLib, "exo-lib");
}

TEST(IntegrationTest, SgemmKernelPassesAllChecks) {
  auto K = apps::buildSgemm(12, 64, 16);
  ASSERT_TRUE(bool(K)) << K.error().str();
  expectAllChecksPass(K->Algorithm, "algorithm");
  expectAllChecksPass(K->ExoSgemm, "exo sgemm");
}

TEST(IntegrationTest, ConvKernelsPassAllChecks) {
  auto X = apps::buildConvX86({1, 6, 6, 16, 16});
  ASSERT_TRUE(bool(X)) << X.error().str();
  expectAllChecksPass(X->Scheduled, "conv x86");
  auto G = apps::buildConvGemmini({1, 10, 10, 16, 16}, 8);
  ASSERT_TRUE(bool(G)) << G.error().str();
  expectAllChecksPass(G->Scheduled, "conv gemmini");
}

TEST(IntegrationTest, HardwareLibrariesPassTheirOwnChecks) {
  const auto &GL = hw::gemmini::gemminiLib();
  for (const ProcRef &P :
       {GL.LdData, GL.LdData2, GL.Matmul16, GL.StAcc, GL.StAccRelu,
        GL.ZeroAcc, GL.ConfigLd1, GL.ConfigLd2, GL.ConfigSt}) {
    auto T = frontend::typeCheck(P);
    EXPECT_TRUE(bool(T)) << P->name() << ": " << T.error().str();
    auto B = frontend::boundsCheck(P);
    EXPECT_TRUE(bool(B)) << P->name() << ": " << B.error().str();
  }
  const auto &AL = hw::avx512::avx512Lib();
  for (const ProcRef &P :
       {AL.LoaduPs, AL.StoreuPs, AL.ZeroPs, AL.FmaddPs, AL.FmaddBcastPs,
        AL.AccumPs, AL.ReluPs, AL.MaskzLoaduPs, AL.MaskStoreuPs}) {
    auto T = frontend::typeCheck(P);
    EXPECT_TRUE(bool(T)) << P->name() << ": " << T.error().str();
    auto B = frontend::boundsCheck(P);
    EXPECT_TRUE(bool(B)) << P->name() << ": " << B.error().str();
  }
}

TEST(IntegrationTest, ScheduledKernelsRoundTripThroughPrinter) {
  // print -> parse -> print must reach a fixpoint (modulo the hardware
  // library names, provided through the environment).
  auto K = apps::buildGemminiMatmul(32, 32, 32);
  ASSERT_TRUE(bool(K)) << K.error().str();
  frontend::ParseEnv Env = hw::gemmini::gemminiLib().Env;
  std::string Once = printProc(K->ExoLib);
  auto Reparsed = frontend::parseProc(Once, Env);
  ASSERT_TRUE(bool(Reparsed)) << Reparsed.error().str() << "\n" << Once;
  EXPECT_EQ(printProc(*Reparsed), Once);
}

TEST(IntegrationTest, MaskedTailInstructionsSelectable) {
  // The §7.2 masked-load mechanism: a partial (m < 16) lane loop unifies
  // with the masked instruction, with its m <= 16 precondition proven.
  const auto &AL = hw::avx512::avx512Lib();
  frontend::ParseEnv Env = AL.Env;
  auto P = frontend::parseProc(R"(
@proc
def tail_copy(m: size, dst: f32[16], src: f32[16]):
    assert m <= 16
    buf : f32[16] @ AVX512
    for l in seq(0, m):
        buf[l] = src[l]
    for l2 in seq(0, m):
        dst[l2] = buf[l2]
)",
                               Env);
  ASSERT_TRUE(bool(P)) << P.error().str();
  using namespace exo::scheduling;
  auto Q = replaceWith(at(*P, "for l in _: _"), AL.MaskzLoaduPs);
  ASSERT_TRUE(bool(Q)) << Q.error().str();
  auto R = replaceWith(at(*Q, "for l2 in _: _"), AL.MaskStoreuPs);
  ASSERT_TRUE(bool(R)) << R.error().str();
  std::string S = printProc(*R);
  EXPECT_NE(S.find("mm512_maskz_loadu_ps(m,"), std::string::npos) << S;
  EXPECT_NE(S.find("mm512_mask_storeu_ps(m,"), std::string::npos) << S;
}

TEST(IntegrationTest, HoistCompositeRefusesUnsafeHoist) {
  using namespace exo::scheduling;
  frontend::ParseEnv Env;
  auto M = frontend::parseModule(R"(
@config
class CfgH:
    v : int
)",
                                 Env);
  ASSERT_TRUE(bool(M));
  // The write's value depends on the loop iterator: hoisting it would
  // change the final configuration state AND the reads inside.
  auto P = frontend::parseProc(R"(
@proc
def f(x: R[8]):
    for i in seq(0, 8):
        CfgH.v = i
        x[CfgH.v] = 1.0
)",
                               Env);
  ASSERT_TRUE(bool(P)) << P.error().str();
  auto Q = hoistStmtToTop(at(*P, "CfgH.v = _"));
  EXPECT_FALSE(bool(Q)) << "iteration-dependent config must not hoist";
}

TEST(IntegrationTest, ProvenanceChainsAcrossWholePipelines) {
  using exo::scheduling::equivalenceDelta;
  auto K = apps::buildGemminiMatmul(32, 32, 32);
  ASSERT_TRUE(bool(K)) << K.error().str();
  // Algorithm and ExoLib are connected in the lattice; the delta is the
  // set of configuration fields the pipeline polluted (three channels).
  auto D = equivalenceDelta(K->Algorithm, K->ExoLib);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->size(), 3u);
  // OldLib and ExoLib differ only by pure rewrites after the pollution.
  auto D2 = equivalenceDelta(K->OldLib, K->ExoLib);
  ASSERT_TRUE(D2.has_value());
}

} // namespace
