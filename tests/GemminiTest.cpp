//===- tests/GemminiTest.cpp - Gemmini library & app tests -----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "apps/AmxMatmul.h"
#include "apps/Conv.h"
#include "apps/GemminiMatmul.h"
#include "hwlibs/gemmini/GemminiLib.h"

#include "backend/CodeGen.h"
#include "gemmini_sim.h"
#include "interp/Interp.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

#include <random>

using namespace exo;
using namespace exo::ir;
using exo::hw::gemmini::gemminiLib;

namespace {

TEST(GemminiLibTest, LibraryParsesAndRegisters) {
  const auto &HW = gemminiLib();
  ASSERT_TRUE(HW.LdData);
  ASSERT_TRUE(HW.Matmul16);
  EXPECT_TRUE(HW.LdData->isInstr());
  EXPECT_EQ(HW.Matmul16->args().size(), 6u);
  EXPECT_EQ(HW.CfgLd1->fields().size(), 1u);
}

TEST(GemminiAppTest, SchedulePipelineSucceeds) {
  auto K = apps::buildGemminiMatmul(32, 32, 32);
  ASSERT_TRUE(bool(K)) << K.error().str();
  std::string Old = printProc(K->OldLib);
  std::string Exo = printProc(K->ExoLib);
  // Old-lib: configuration instructions inside the tile loops.
  size_t OldCfg = Old.find("gemmini_config_ld1");
  ASSERT_NE(OldCfg, std::string::npos) << Old;
  EXPECT_GT(Old.rfind("for", OldCfg), 0u);
  // Exo-lib: all three configs before the first loop.
  size_t FirstLoop = Exo.find("for ");
  EXPECT_LT(Exo.find("gemmini_config_ld1"), FirstLoop) << Exo;
  EXPECT_LT(Exo.find("gemmini_config_ld2"), FirstLoop) << Exo;
  EXPECT_LT(Exo.find("gemmini_config_st"), FirstLoop) << Exo;
  // Exactly one of each.
  EXPECT_EQ(Exo.find("gemmini_config_ld1", Exo.find("gemmini_config_ld1") + 1),
            std::string::npos);
  EXPECT_GT(K->ExoLibSteps, K->OldLibSteps);
}

TEST(GemminiAppTest, Fig7StepCountsArePinned) {
  // The directive counts Fig. 7 prints for the three accelerator
  // schedules (renames included).
  auto G = apps::buildGemminiMatmul(128, 128, 128);
  ASSERT_TRUE(bool(G)) << G.error().str();
  EXPECT_EQ(G->OldLibSteps, 18u);
  EXPECT_EQ(G->ExoLibSteps, 21u);
  auto A = apps::buildAmxMatmul(64, 64, 64);
  ASSERT_TRUE(bool(A)) << A.error().str();
  EXPECT_EQ(A->PerTileSteps, 18u);
  EXPECT_EQ(A->HoistedSteps, 21u);
  auto C = apps::buildConvGemmini({1, 16, 16, 16, 16}, 14);
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_EQ(C->ScheduleSteps, 32u);
}

TEST(GemminiAppTest, ScheduledKernelsMatchReference) {
  auto K = apps::buildGemminiMatmul(32, 48, 32);
  ASSERT_TRUE(bool(K)) << K.error().str();
  const int64_t N = 32, M = 48, KK = 32;
  std::mt19937 Rng(3);
  std::uniform_real_distribution<double> D(-1, 1);
  std::vector<double> A(N * KK), B(KK * M);
  for (auto &V : A)
    V = D(Rng);
  for (auto &V : B)
    V = D(Rng);

  auto runProc = [&](const ProcRef &P) {
    std::vector<double> C(N * M, 0.0);
    std::vector<double> ACopy = A, BCopy = B;
    interp::Interp I;
    auto R = I.run(
        P, {interp::ArgValue::buffer(
                interp::BufferView::dense(ACopy.data(), {N, KK})),
            interp::ArgValue::buffer(
                interp::BufferView::dense(BCopy.data(), {KK, M})),
            interp::ArgValue::buffer(
                interp::BufferView::dense(C.data(), {N, M}))});
    if (!R)
      fatalError("interp failed: " + R.error().str());
    return C;
  };

  std::vector<double> Ref = runProc(K->Algorithm);
  std::vector<double> Old = runProc(K->OldLib);
  std::vector<double> Exo = runProc(K->ExoLib);
  for (size_t I = 0; I < Ref.size(); ++I) {
    ASSERT_NEAR(Ref[I], Old[I], 1e-9) << "old-lib diverges at " << I;
    ASSERT_NEAR(Ref[I], Exo[I], 1e-9) << "exo-lib diverges at " << I;
  }
}

TEST(GemminiAppTest, GeneratesC) {
  auto K = apps::buildGemminiMatmul(32, 32, 32);
  ASSERT_TRUE(bool(K)) << K.error().str();
  auto C = backend::generateC({K->OldLib, K->ExoLib});
  ASSERT_TRUE(bool(C)) << C.error().str();
  EXPECT_NE(C->find("#include \"gemmini_sim.h\""), std::string::npos);
  EXPECT_NE(C->find("gemmini_matmul("), std::string::npos) << *C;
  EXPECT_NE(C->find("gemmini_mvin("), std::string::npos) << *C;
  EXPECT_NE(C->find("gemmini_config_ld("), std::string::npos) << *C;
}

TEST(GemminiAppTest, GeneratedCTracksScratchpadRegions) {
  // The SCRATCH/ACC memory definitions register every allocation with
  // the simulator's region registry so mvin/matmul/mvout get bounds
  // checks; make sure the generated C actually carries those calls, and
  // that track/untrack pair up.
  auto K = apps::buildGemminiMatmul(32, 32, 32);
  ASSERT_TRUE(bool(K)) << K.error().str();
  auto C = backend::generateC({K->ExoLib});
  ASSERT_TRUE(bool(C)) << C.error().str();
  auto count = [&](const char *Needle) {
    size_t N = 0;
    for (size_t At = C->find(Needle); At != std::string::npos;
         At = C->find(Needle, At + 1))
      ++N;
    return N;
  };
  EXPECT_GT(count("gemmini_spad_track("), 0u) << *C;
  EXPECT_GT(count("gemmini_acc_track("), 0u) << *C;
  EXPECT_EQ(count("gemmini_spad_track("), count("gemmini_spad_untrack("));
  EXPECT_EQ(count("gemmini_acc_track("), count("gemmini_acc_untrack("));
}

// --- simulator hardening: structured traps instead of silent UB --------

namespace trap_recorder {
int LastCode = GEMMINI_TRAP_NONE;
std::string LastWhat;
void record(int Code, const char *What) {
  LastCode = Code;
  LastWhat = What;
}
} // namespace trap_recorder

class GemminiSimTrapTest : public ::testing::Test {
protected:
  void SetUp() override {
    gemmini_reset(EXO_GEMMINI_MODE_SW);
    gemmini_clear_traps();
    trap_recorder::LastCode = GEMMINI_TRAP_NONE;
    trap_recorder::LastWhat.clear();
    Prev = gemmini_set_trap_handler(trap_recorder::record);
  }
  void TearDown() override {
    gemmini_set_trap_handler(Prev);
    gemmini_set_fault_fn(nullptr);
    gemmini_clear_traps();
  }
  gemmini_trap_fn Prev = nullptr;
};

TEST_F(GemminiSimTrapTest, NullPointerTraps) {
  float Spad[16 * 16];
  gemmini_config_ld(16);
  gemmini_mvin(nullptr, Spad, 16, 4, 4);
  EXPECT_EQ(gemmini_last_trap(), GEMMINI_TRAP_NULL_PTR);
  EXPECT_EQ(gemmini_trap_count(), 1u);
}

TEST_F(GemminiSimTrapTest, OversizeExtentTraps) {
  float Src[32 * 32], Spad[32 * 32];
  gemmini_config_ld(32);
  gemmini_mvin(Src, Spad, 32, 17, 16); // rows > 16: not a legal tile
  EXPECT_EQ(gemmini_last_trap(), GEMMINI_TRAP_BAD_EXTENT);
}

TEST_F(GemminiSimTrapTest, NarrowStrideTraps) {
  float Src[16 * 16], Spad[16 * 16];
  gemmini_config_ld(16);
  gemmini_mvin(Src, Spad, /*dst_stride=*/4, /*rows=*/8, /*cols=*/8);
  EXPECT_EQ(gemmini_last_trap(), GEMMINI_TRAP_BAD_STRIDE);
}

TEST_F(GemminiSimTrapTest, ScratchpadOutOfBoundsTraps) {
  // With a region registered, an mvin that runs past the live buffer
  // must trap (and skip the copy) instead of scribbling host memory.
  float Src[16 * 16] = {0};
  float Spad[4 * 16];
  gemmini_spad_track(Spad, 4 * 16);
  gemmini_config_ld(16);
  gemmini_mvin(Src, Spad, 16, /*rows=*/8, /*cols=*/16); // 8 rows into 4
  EXPECT_EQ(gemmini_last_trap(), GEMMINI_TRAP_SPAD_OOB);
  // In-bounds accesses still work.
  gemmini_mvin(Src, Spad, 16, 4, 16);
  EXPECT_EQ(gemmini_trap_count(), 1u);
  gemmini_spad_untrack(Spad);
  // Untracked again: checking of unknown pointers is best-effort off.
  gemmini_mvin(Src, Spad, 16, 4, 16);
  EXPECT_EQ(gemmini_trap_count(), 1u);
}

TEST_F(GemminiSimTrapTest, AccumulatorOutOfBoundsTraps) {
  float Acc[2 * 16];
  gemmini_acc_track(Acc, 2 * 16);
  gemmini_zero_acc(Acc, 16, /*rows=*/4, /*cols=*/16); // 4 rows into 2
  EXPECT_EQ(gemmini_last_trap(), GEMMINI_TRAP_ACC_OOB);
  gemmini_acc_untrack(Acc);
}

TEST_F(GemminiSimTrapTest, SkippedInstructionChargesNoCycles) {
  float Spad[16];
  gemmini_config_ld(16);
  uint64_t Before = gemmini_cycles();
  gemmini_mvin(nullptr, Spad, 16, 4, 4);
  EXPECT_EQ(gemmini_cycles(), Before);
}

TEST_F(GemminiSimTrapTest, FaultHookRaisesInjectedTrap) {
  static int Budget;
  Budget = 1; // fire exactly once
  gemmini_set_fault_fn(+[]() -> int { return Budget-- > 0; });
  float Src[16], Spad[16];
  gemmini_config_ld(16);
  gemmini_mvin(Src, Spad, 16, 1, 16);
  EXPECT_EQ(gemmini_last_trap(), GEMMINI_TRAP_INJECTED);
  EXPECT_EQ(gemmini_trap_count(), 1u);
  gemmini_mvin(Src, Spad, 16, 1, 16); // budget spent: runs clean
  EXPECT_EQ(gemmini_trap_count(), 1u);
}

TEST_F(GemminiSimTrapTest, TrapStateSurvivesReset) {
  float Spad[16];
  gemmini_mvin(nullptr, Spad, 16, 1, 16);
  ASSERT_EQ(gemmini_trap_count(), 1u);
  gemmini_reset(EXO_GEMMINI_MODE_HW);
  EXPECT_EQ(gemmini_trap_count(), 1u);
  EXPECT_EQ(gemmini_last_trap(), GEMMINI_TRAP_NULL_PTR);
}

} // namespace
