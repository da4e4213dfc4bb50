//===- tests/TuningTest.cpp - Autotuner tests ------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the schedule autotuner (tuning/): the ScheduleGen trace
/// mutation/crossover operators (every mutant applies cleanly or is
/// rejected — never a crash, and never an oracle divergence, since
/// rejected steps are skipped and accepted steps went through the
/// scheduling layer's safety checks), the cost model's verify gate and
/// batch path (the same verdicts however candidates are split into
/// modules, a fallback when a shared module fails to build, a trap that
/// stays in its entry), and the search itself — determinism at any
/// thread count, replayability of the winning trace, and the headline
/// acceptance bar: the search must rediscover a schedule within 1.5x of
/// the hand-written Gemmini matmul.
///
//===----------------------------------------------------------------------===//

#include "tuning/Tuner.h"

#include "backend/Backend.h"
#include "backend/CodeGen.h"
#include "frontend/Parser.h"
#include "testing/Oracle.h"
#include "scheduling/Schedule.h"
#include "testing/ScheduleGen.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace exo;
using namespace exo::ir;
using namespace exo::testing;
using namespace exo::tuning;

namespace {

const char *GemmSrc = R"(
@proc
def small_gemm(A: R[8, 8], B: R[8, 8], C: R[8, 8]):
    for i in seq(0, 8):
        for j in seq(0, 8):
            for k in seq(0, 8):
                C[i, j] += A[i, k] * B[k, j]
)";

ProcRef parse(const char *Src) {
  auto P = frontend::parseProc(Src);
  if (!P)
    fatalError("test parse failed: " + P.error().str());
  return *P;
}

ScheduleStep step(std::string Op, std::vector<std::string> Args) {
  return ScheduleStep{std::move(Op), std::move(Args)};
}

std::vector<ScheduleStep> splitSeed() {
  return {step("split", {"i", "4", "io", "ii", "perfect"}),
          step("split", {"j", "4", "jo", "ji", "perfect"}),
          step("reorder", {"ii"}), step("simplify", {})};
}

std::string keyOf(const std::vector<ScheduleStep> &T) {
  std::string K;
  for (const ScheduleStep &S : T) {
    K += S.str();
    K += '\n';
  }
  return K;
}

/// Seed traces of the gemmini search space plus seed mutants, applied:
/// a mix of candidates that verify and candidates that die at lower,
/// execute or verify.
std::vector<ProcRef> gemminiCandidates(const SearchSpace &Space,
                                       unsigned Mutants) {
  std::vector<ProcRef> Out;
  for (const auto &T : Space.Seeds)
    Out.push_back(applyTraceLenient(Space.Algorithm, T).Final);
  Rng R(11);
  for (unsigned I = 0; I < Mutants; ++I)
    Out.push_back(applyTraceLenient(
                      Space.Algorithm,
                      mutateTrace(Space.Algorithm, R.pick(Space.Seeds), R))
                      .Final);
  return Out;
}

void expectSameVerdict(const EvalResult &A, const EvalResult &B,
                       const std::string &What) {
  EXPECT_EQ(A.Ok, B.Ok) << What << ": " << A.Detail << " vs " << B.Detail;
  EXPECT_EQ(A.FailStage, B.FailStage) << What;
  EXPECT_EQ(A.SimCycles, B.SimCycles) << What;
  EXPECT_EQ(A.SimMatmuls, B.SimMatmuls) << What;
  EXPECT_EQ(A.Score, B.Score) << What;
}

/// A fault hook that fails the first accelerator instruction it sees,
/// then stays quiet.
int FaultsLeft = 0;
extern "C" int exoTestFaultOnce() { return FaultsLeft-- > 0; }

} // namespace

//===----------------------------------------------------------------------===//
// Trace mutation / crossover (satellite: robustness of the search moves)
//===----------------------------------------------------------------------===//

TEST(TraceMutation, MutantsApplyOrRejectNeverCrash) {
  ProcRef P = parse(GemmSrc);
  std::vector<std::vector<ScheduleStep>> Bases = {{}, splitSeed()};
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Rng R(Seed);
    const auto &Base = Bases[Seed % Bases.size()];
    std::vector<ScheduleStep> T = mutateTrace(P, Base, R);
    // Syntactic validity: every step round-trips through the trace
    // parser (this is what the corpus format stores).
    for (const ScheduleStep &S : T) {
      auto Back = ScheduleStep::parse(S.str());
      ASSERT_TRUE(Back) << S.str() << ": " << Back.error().str();
      EXPECT_EQ(Back->str(), S.str());
    }
    // Lenient application partitions the trace: applied + rejected.
    LenientApplyResult A = applyTraceLenient(P, T);
    ASSERT_TRUE(A.Final != nullptr);
    EXPECT_EQ(A.Applied.size() + A.Rejected, T.size());
  }
}

TEST(TraceMutation, MutationIsDeterministicInTheSeed) {
  ProcRef P = parse(GemmSrc);
  for (uint64_t Seed : {1u, 7u, 23u}) {
    Rng R1(Seed), R2(Seed);
    EXPECT_EQ(keyOf(mutateTrace(P, splitSeed(), R1)),
              keyOf(mutateTrace(P, splitSeed(), R2)));
  }
}

TEST(TraceCrossover, ChildStepsComeFromTheParents) {
  std::vector<ScheduleStep> A = splitSeed();
  std::vector<ScheduleStep> B = {step("split", {"k", "2", "ko", "ki", "perfect"}),
                                 step("unroll", {"ko"})};
  auto FromParents = [&](const ScheduleStep &S) {
    for (const ScheduleStep &X : A)
      if (X.str() == S.str())
        return true;
    for (const ScheduleStep &X : B)
      if (X.str() == S.str())
        return true;
    return false;
  };
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Rng R(Seed);
    std::vector<ScheduleStep> C = crossoverTraces(A, B, R);
    EXPECT_LE(C.size(), A.size() + B.size());
    for (const ScheduleStep &S : C)
      EXPECT_TRUE(FromParents(S)) << S.str();
  }
}

TEST(TraceMutation, MutantsSampledThroughTripleOracle) {
  ProcRef P = parse(GemmSrc);
  std::vector<ArgSpec> Args(3);
  Args[0].Name = "A";
  Args[1].Name = "B";
  Args[2].Name = "C";
  for (ArgSpec &A : Args)
    A.Dims = {8, 8};
  Args[2].Written = true;

  std::vector<OracleCase> Cases;
  std::vector<ScheduleStep> Trace = splitSeed();
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    Rng R(Seed * 977);
    Trace = mutateTrace(P, Trace, R); // walk: mutants of mutants
    LenientApplyResult A = applyTraceLenient(P, Trace);
    OracleCase C;
    C.Reference = P;
    C.Scheduled = A.Final;
    C.Args = Args;
    C.InputSeed = Seed;
    Cases.push_back(std::move(C));
  }
  auto Out = runOracle(Cases, OracleOptions{});
  ASSERT_TRUE(Out) << Out.error().str();
  for (size_t I = 0; I < Out->size(); ++I)
    EXPECT_TRUE((*Out)[I].ok())
        << "case " << I << ": " << oracleStatusName((*Out)[I].Status) << ": "
        << (*Out)[I].Detail;
}

//===----------------------------------------------------------------------===//
// Trace round-trip for the procedure step kinds the cursor layer added
// (tile2d / auto_divide / stage_vec, plus '@' cursor navigation) — the
// corpus format, the mutator, and the tuner's seeded skeletons all
// exchange these as text.
//===----------------------------------------------------------------------===//

TEST(TraceRoundTrip, ProcedureStepKinds) {
  for (const char *Line :
       {"tile2d|i|4|4|io|ii|jo|ji|perfect", "auto_divide|i|8|io|ii",
        "stage_vec|for j in _: _|x[i, 0:8]|xv|DRAM|4|lv|ll",
        "split|t @body|2|a|b|perfect"}) {
    auto S = ScheduleStep::parse(Line);
    ASSERT_TRUE(bool(S)) << Line;
    EXPECT_EQ(S->str(), Line);
  }
  // A procedure step drives the same scheduling layer as its primitive
  // expansion: the tiled small_gemm applies cleanly from trace text.
  ProcRef P = parse(GemmSrc);
  std::vector<ScheduleStep> T = {
      step("split", {"k", "4", "ko", "ki", "perfect"}),
      step("tile2d", {"i", "4", "4", "io", "ii", "jo", "ji", "perfect"})};
  LenientApplyResult A = applyTraceLenient(P, T);
  EXPECT_EQ(A.Rejected, 0u);
  EXPECT_EQ(A.Applied.size(), 2u);
}

//===----------------------------------------------------------------------===//
// The cost model's batch path
//===----------------------------------------------------------------------===//

TEST(CostModel, BatchVerdictsMatchOneModulePerCandidate) {
  auto Space = buildSearchSpace("gemmini_matmul", KernelShape{});
  ASSERT_TRUE(Space) << Space.error().str();
  std::vector<ProcRef> Cands = gemminiCandidates(*Space, 20);

  // Reference: every candidate in a module of its own.
  CostModel Single(Space->Shape, Metric::SimCycles);
  std::vector<EvalResult> Ref;
  unsigned Dead = 0;
  for (const ProcRef &P : Cands) {
    Ref.push_back(Single.evaluate(P));
    Dead += !Ref.back().Ok;
  }
  EXPECT_GT(Dead, 0u) << "the sample must include dead candidates";
  EXPECT_LT(Dead, Cands.size()) << "the sample must include live ones";

  // Threads == modules: 0 threads is the one-module, inline case.
  for (unsigned Threads : {0u, 2u, 4u}) {
    support::ThreadPool Pool(Threads);
    CostModel Batch(Space->Shape, Metric::SimCycles);
    backend::JitBackend::CacheStats J0 = backend::JitBackend::cacheStats();
    std::vector<EvalResult> Got = Batch.evaluate(Cands, Pool);
    backend::JitBackend::CacheStats J1 = backend::JitBackend::cacheStats();
    ASSERT_EQ(Got.size(), Cands.size());
    EXPECT_LE(J1.Compiles - J0.Compiles, std::max(1u, Threads))
        << "one module per thread";
    for (size_t I = 0; I < Cands.size(); ++I)
      expectSameVerdict(Got[I], Ref[I],
                        "threads " + std::to_string(Threads) +
                            ", candidate " + std::to_string(I));
  }
}

TEST(CostModel, ModuleThatFailsToBuildFallsBackToOnePerCandidate) {
  // A candidate whose C links against a symbol nobody defines: alone it
  // dies at build time, and batched with healthy candidates it must not
  // take them down with it.
  auto Space = buildSearchSpace("gemmini_matmul", KernelShape{});
  ASSERT_TRUE(Space) << Space.error().str();
  frontend::ParseEnv Env;
  auto Broken = frontend::parseModule(R"(
@instr("exo_test_undefined_symbol();")
def unlinkable():
    pass

@proc
def broken(A: R[128, 128], B: R[128, 128], C: R[128, 128]):
    unlinkable()
    for i in seq(0, 128):
        for j in seq(0, 128):
            for k in seq(0, 128):
                C[i, j] += A[i, k] * B[k, j]
)",
                                      Env);
  ASSERT_TRUE(Broken) << Broken.error().str();
  std::vector<ProcRef> Cands = {Space->Handwritten, Env.findProc("broken"),
                                Space->Algorithm};

  CostModel Single(Space->Shape, Metric::SimCycles);
  CostModel Batch(Space->Shape, Metric::SimCycles);
  support::ThreadPool Inline(0); // one shared module for all three
  std::vector<EvalResult> Got = Batch.evaluate(Cands, Inline);
  for (size_t I = 0; I < Cands.size(); ++I)
    expectSameVerdict(Got[I], Single.evaluate(Cands[I]),
                      "candidate " + std::to_string(I));
  EXPECT_TRUE(Got[0].Ok) << Got[0].FailStage << ": " << Got[0].Detail;
  EXPECT_EQ(Got[1].FailStage, "execute") << Got[1].Detail;
  EXPECT_TRUE(Got[2].Ok) << Got[2].FailStage << ": " << Got[2].Detail;
}

TEST(CostModel, TrapInOneEntryLeavesTheNextEntryAlone) {
  auto Space = buildSearchSpace("gemmini_matmul", KernelShape{});
  ASSERT_TRUE(Space) << Space.error().str();
  // Two different schedules that both drive the simulator.
  ProcRef First = Space->Handwritten, Second;
  CostModel Probe(Space->Shape, Metric::SimCycles);
  uint64_t FirstCycles = Probe.evaluate(First).SimCycles;
  for (const auto &T : Space->Seeds) {
    ProcRef P = applyTraceLenient(Space->Algorithm, T).Final;
    EvalResult E = Probe.evaluate(P);
    if (E.Ok && E.SimMatmuls > 0 && E.SimCycles != FirstCycles) {
      Second = P;
      break;
    }
  }
  ASSERT_TRUE(Second) << "no second seed schedule verifies on the sim";

  CostModel CM(Space->Shape, Metric::SimCycles);
  support::ThreadPool Inline(0); // one module holds both candidates
  std::vector<EvalResult> Clean = CM.evaluate({First, Second}, Inline);
  ASSERT_TRUE(Clean[0].Ok) << Clean[0].FailStage << ": " << Clean[0].Detail;
  ASSERT_TRUE(Clean[1].Ok) << Clean[1].FailStage << ": " << Clean[1].Detail;
  ASSERT_GT(Clean[1].SimMatmuls, 0u) << "the second entry must use the sim";

  CostModel::Placement P1 = CM.placement(First);
  CostModel::Placement P2 = CM.placement(Second);
  ASSERT_TRUE(P1.Module);
  ASSERT_EQ(P1.Module, P2.Module) << "both entries must share a module";
  using FaultFn = int (*)();
  auto SetFault = reinterpret_cast<void (*)(FaultFn)>(
      backend::jitBackend().moduleSymbol(*P1.Module, "gemmini_set_fault_fn"));
  ASSERT_NE(SetFault, nullptr);

  // The rerun executes the entries in batch order in the same module:
  // the first one traps, the second must score exactly as before.
  FaultsLeft = 1;
  SetFault(exoTestFaultOnce);
  std::vector<EvalResult> Faulty = CM.evaluate({First, Second}, Inline);
  SetFault(nullptr);
  EXPECT_FALSE(Faulty[0].Ok);
  EXPECT_EQ(Faulty[0].FailStage, "execute");
  EXPECT_NE(Faulty[0].Detail.find("sim trap"), std::string::npos)
      << Faulty[0].Detail;
  expectSameVerdict(Faulty[1], Clean[1], "entry after the trap");
}

//===----------------------------------------------------------------------===//
// The search
//===----------------------------------------------------------------------===//

TEST(Tuner, RediscoversGemminiScheduleWithinBudget) {
  TunerProgress Before = tunerProgress();

  TuneOptions O;
  O.Kernel = "gemmini_matmul";
  O.Population = 10; // generation zero == the seed templates
  O.Generations = 1;
  O.Beam = 4;
  O.Seed = 1;
  O.Threads = 4;
  TuneResult R = tune(O);

  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.HaveHandwritten);
  EXPECT_GT(R.Handwritten.SimCycles, 0u);
  // The acceptance bar: within 1.5x of the paper's hand-written
  // schedule. The seeded space contains the exact Fig. 4 pipeline, so
  // the search should in fact match it (ratio 1.0).
  EXPECT_LE(R.Best.Eval.Score, 1.5 * R.Handwritten.Score)
      << "best " << R.Best.Eval.Score << " vs handwritten "
      << R.Handwritten.Score;
  EXPECT_GT(R.Stats.Tried, 0u);
  EXPECT_GT(R.Stats.CandidatesPerSec, 0.0);

  // Progress counters (exocc-serve's stats op reads these) advanced.
  TunerProgress After = tunerProgress();
  EXPECT_GT(After.RunsFinished, Before.RunsFinished);
  EXPECT_GE(After.CandidatesTried,
            Before.CandidatesTried + R.Stats.Tried);
}

TEST(Tuner, HandwrittenScoredInGenerationZeroBatch) {
  // The hand-written baseline rides in generation zero's batch: the F=16
  // seed with stages and hoist generates its C, so it adds no module, it
  // is not a candidate, and it scores exactly as it does alone.
  TuneOptions O;
  O.Kernel = "gemmini_matmul";
  O.Population = 10; // generation zero == the seed templates
  O.Generations = 1;
  O.Beam = 4;
  O.Seed = 1;
  O.Threads = 2;
  TuneResult R = tune(O);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_LE(R.Stats.JitCompiles, 2u) << "one module per thread, in all";
  EXPECT_EQ(R.Stats.Tried, O.Population);

  auto Space = buildSearchSpace(O.Kernel, O.Shape);
  ASSERT_TRUE(Space) << Space.error().str();
  EvalResult Alone = CostModel(O.Shape, O.Score).evaluate(Space->Handwritten);
  ASSERT_TRUE(Alone.Ok) << Alone.FailStage << ": " << Alone.Detail;
  EXPECT_EQ(Alone.SimCycles, 14866u);
  EXPECT_EQ(Alone.SimMatmuls, 512u);
  ASSERT_TRUE(R.HaveHandwritten);
  expectSameVerdict(R.Handwritten, Alone, "baseline in generation zero");

  // A budget that cuts generation zero to one candidate still scores it.
  O.MaxCandidates = 1;
  TuneResult Cut = tune(O);
  EXPECT_EQ(Cut.Stats.Tried, 1u);
  ASSERT_TRUE(Cut.HaveHandwritten);
  expectSameVerdict(Cut.Handwritten, Alone, "baseline beside one candidate");
}

TEST(Tuner, DeterministicAcrossThreadCounts) {
  TuneOptions O;
  O.Kernel = "gemmini_matmul";
  O.Population = 8;
  O.Generations = 2;
  O.Beam = 3;
  O.Seed = 42;

  O.Threads = 1;
  TuneResult R1 = tune(O);
  O.Threads = 4;
  TuneResult R4 = tune(O);

  ASSERT_TRUE(R1.Ok) << R1.Error;
  ASSERT_TRUE(R4.Ok) << R4.Error;
  EXPECT_EQ(R1.Best.Eval.Score, R4.Best.Eval.Score);
  EXPECT_EQ(keyOf(R1.Best.Trace), keyOf(R4.Best.Trace));
  EXPECT_EQ(R1.Stats.Tried, R4.Stats.Tried);
  EXPECT_EQ(R1.Stats.Ok, R4.Stats.Ok);
}

TEST(Tuner, WinningTraceReplaysToTheReportedScore) {
  TuneOptions O;
  O.Kernel = "gemmini_matmul";
  O.Population = 6;
  O.Generations = 1;
  O.Beam = 3;
  O.Seed = 5;
  O.Threads = 2;
  TuneResult R = tune(O);
  ASSERT_TRUE(R.Ok) << R.Error;

  // Replay the applied trace from scratch, the way `exocc-tune --replay`
  // does: same algorithm, same cost model, same score.
  auto Space = buildSearchSpace(O.Kernel, O.Shape);
  ASSERT_TRUE(Space) << Space.error().str();
  LenientApplyResult A = applyTraceLenient(Space->Algorithm, R.Best.Applied);
  EXPECT_EQ(A.Rejected, 0u) << "an applied trace must re-apply in full";
  CostModel CM(O.Shape, O.Score);
  EvalResult E = CM.evaluate(A.Final);
  ASSERT_TRUE(E.Ok) << E.FailStage << ": " << E.Detail;
  EXPECT_EQ(E.Score, R.Best.Eval.Score);
  EXPECT_EQ(E.SimCycles, R.Best.Eval.SimCycles);
}

TEST(Tuner, CommittedBestTraceTokensReplay) {
  // The best trace `exocc-tune --seed 1` reports for gemmini_matmul
  // 128x128x128 (BENCH_autotune.json), as literal trace lines. Traces in
  // corpora and tuner reports persist as text, so these tokens must keep
  // applying step for step, to the same schedule.
  const char *const Trace[] = {
      "split|k|16|ko|ki|perfect",
      "tile2d|i|16|16|io|ii|jo|ji|perfect",
      "stage_vec|for jo in _: _|A[16 * io : 16 * io + 16, 0 : 128]|a_panel|"
      "GEMM_SCRATCH|16|lv|ll",
      "reorder|i0",
      "config_write|for lv in _: _|gemmini:cfg_ld1|src_stride|stride(A, 0)",
      "replace|for i0 in _: _|1|gemmini:ld_data",
      "stage|for ko in _: _|1|C[16 * io : 16 * io + 16, 16 * jo : 16 * jo + "
      "16]|res|GEMM_ACC",
      "stage|for ii in _: _|1|B[16 * ko : 16 * ko + 16, 16 * jo : 16 * jo + "
      "16]|b_tile|GEMM_SCRATCH",
      "replace|for i0 in _: _ #0|1|gemmini:zero_acc",
      "config_write|for i0 in _: _ #0|gemmini:cfg_ld2|src_stride|"
      "stride(B, 0)",
      "replace|for i0 in _: _ #0|1|gemmini:ld_data2",
      "replace|for ii in _: _|1|gemmini:matmul16",
      "config_write|for i0 in _: _ #0|gemmini:cfg_st|dst_stride|"
      "stride(C, 0)",
      "replace|for i0 in _: _ #0|1|gemmini:st_acc",
      "replace|ConfigLd1.src_stride = _|1|gemmini:config_ld1",
      "replace|ConfigLd2.src_stride = _|1|gemmini:config_ld2",
      "replace|ConfigSt.dst_stride = _|1|gemmini:config_st",
      "hoist|gemmini_config_ld1(_)",
      "hoist|gemmini_config_ld2(_)",
      "hoist|gemmini_config_st(_)",
  };
  std::vector<ScheduleStep> Steps;
  for (const char *Line : Trace) {
    auto S = ScheduleStep::parse(Line);
    ASSERT_TRUE(S) << Line << ": " << S.error().str();
    EXPECT_EQ(S->str(), Line);
    Steps.push_back(*S);
  }
  KernelShape Shape;
  auto Space = buildSearchSpace("gemmini_matmul", Shape);
  ASSERT_TRUE(Space) << Space.error().str();
  auto P = applyTrace(Space->Algorithm, Steps);
  ASSERT_TRUE(P) << P.error().str();
  EvalResult E = CostModel(Shape, Metric::SimCycles).evaluate(*P);
  ASSERT_TRUE(E.Ok) << E.FailStage << ": " << E.Detail;
  EXPECT_EQ(E.SimCycles, 14866u);
}

TEST(Tuner, SeedWithStagesAndHoistIsTheHandwrittenSchedule) {
  // The F=16 seed with stages and hoist spells the accelerator-matmul
  // schedule as trace text; it must generate exactly the C of the
  // hand-written ExoLib it is scored against.
  KernelShape Shape;
  auto Space = buildSearchSpace("gemmini_matmul", Shape);
  ASSERT_TRUE(Space) << Space.error().str();
  auto IsFullF16 = [](const std::vector<ScheduleStep> &T) {
    return !T.empty() && T.front().str() == "split|k|16|ko|ki|perfect" &&
           T.back().Op == "hoist";
  };
  auto Seed = std::find_if(Space->Seeds.begin(), Space->Seeds.end(),
                           IsFullF16);
  ASSERT_NE(Seed, Space->Seeds.end());
  EXPECT_EQ(std::count_if(Space->Seeds.begin(), Space->Seeds.end(),
                          IsFullF16),
            1);
  auto P = applyTrace(Space->Algorithm, *Seed);
  ASSERT_TRUE(P) << P.error().str();
  auto Traced = backend::generateC({scheduling::renameProc(*P, "matmul")});
  auto Hand = backend::generateC(
      {scheduling::renameProc(Space->Handwritten, "matmul")});
  ASSERT_TRUE(Traced) << Traced.error().str();
  ASSERT_TRUE(Hand) << Hand.error().str();
  EXPECT_EQ(*Traced, *Hand);
}

TEST(Tuner, UnknownKernelFailsCleanly) {
  TuneOptions O;
  O.Kernel = "no_such_kernel";
  TuneResult R = tune(O);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("no_such_kernel"), std::string::npos);
}
