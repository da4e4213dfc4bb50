//===- perfbench/src/TuneGemmini.cpp - The tune_gemmini workload ----------===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// tuning::tune on gemmini_matmul 128^3, scored by simulated cycles, with
/// two evaluation threads: the search of the `exocc-tune` smoke (population
/// 12, 3 generations, beam 4). Each run starts from empty compiler and JIT
/// caches, as one `exocc-tune` process does. The search seeds cycle through
/// 1..8, starting where the workload seed says; every one of them
/// rediscovers the hand-written Fig. 4 schedule, so the best candidate must
/// verify and cost no more cycles than the hand-written one.
///
/// tune() cannot be timed from outside, so a traced run also replays a
/// sample of candidates through the public calls, one layer at a time:
/// the hand-written schedule, the best trace, and mutants of the seed
/// traces, each through applyTraceLenient -> lower -> cc -> execute with
/// the JIT cache emptied first.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "smt/Term.h"
#include "tuning/Tuner.h"

#include <cmath>

using namespace exo;
using namespace exo::backend;
using namespace exo::tuning;

namespace perfbench {

namespace {

constexpr uint64_t NumSearchSeeds = 8;
constexpr unsigned MutantsPerRun = 2;
/// Simulated cycles of the hand-written Fig. 4 schedule at this commit.
/// The best candidate may not cost more, whatever this run's own
/// hand-written score says; a change that lowers the cycles lowers this.
constexpr uint64_t HandwrittenCycles = 14866;
const KernelShape Shape{128, 128, 128};

TuneOptions tuneOptions(uint64_t Seed) {
  TuneOptions T;
  T.Kernel = "gemmini_matmul";
  T.Shape = Shape;
  T.Population = 12;
  T.Generations = 3;
  T.Beam = 4;
  T.Seed = Seed;
  T.Threads = 2;
  T.Score = Metric::SimCycles;
  return T;
}

/// Runs candidates through the JIT one layer at a time, on the inputs the
/// tuner's cost model uses, and checks the product against a host matmul.
class Replayer {
public:
  Replayer() {
    A.resize(static_cast<size_t>(Shape.N * Shape.K));
    B.resize(static_cast<size_t>(Shape.K * Shape.M));
    Ref.assign(static_cast<size_t>(Shape.N * Shape.M), 0.0f);
    uint32_t S = 1; // the cost model's input fill
    for (float &V : A) {
      S = S * 1103515245u + 12345u;
      V = static_cast<float>((S >> 16) % 7) - 3.0f;
    }
    for (float &V : B) {
      S = S * 1103515245u + 12345u;
      V = static_cast<float>((S >> 16) % 5) - 2.0f;
    }
    for (int64_t I = 0; I < Shape.N; ++I)
      for (int64_t K = 0; K < Shape.K; ++K)
        for (int64_t J = 0; J < Shape.M; ++J)
          Ref[static_cast<size_t>(I * Shape.M + J)] +=
              A[static_cast<size_t>(I * Shape.K + K)] *
              B[static_cast<size_t>(K * Shape.M + J)];
  }

  struct Outcome {
    bool Verified = false;
    uint64_t Cycles = 0;
    size_t CBytes = 0;
  };

  /// Lowers, compiles and runs \p P, adding each layer's span to \p S.
  Outcome replay(const ir::ProcRef &P, Sums &S) {
    Outcome Out;
    JitBackend &BE = jitBackend();
    JitBackend::clearCache();

    double T0 = nowMs();
    auto Mod = BE.lower(P);
    S["backend.codegen_ms"] += nowMs() - T0;
    if (!Mod)
      return Out;
    LoweredModule &M = **Mod;
    Out.CBytes = M.source().size();

    T0 = nowMs();
    (void)BE.moduleSymbol(M, "exo_rt_" + P->name());
    S["backend.cc_ms"] += nowMs() - T0;

    if (!runsOnMatrices(M.findEntry(P->name())))
      return Out;
    using ResetFn = void (*)(int);
    using StatFn = uint64_t (*)();
    auto Reset = reinterpret_cast<ResetFn>(BE.moduleSymbol(M, "gemmini_reset"));
    auto Cycles =
        reinterpret_cast<StatFn>(BE.moduleSymbol(M, "gemmini_cycles"));
    if (Reset)
      Reset(0); // functional + cycle model, as the cost model runs it
    std::vector<float> C(Ref.size(), 0.0f);
    BufferSet Args = {RunArg::buffer(A.data(), A.size() * sizeof(float)),
                      RunArg::buffer(B.data(), B.size() * sizeof(float)),
                      RunArg::buffer(C.data(), C.size() * sizeof(float))};
    T0 = nowMs();
    ExecStatus St = BE.execute(M, P->name(), Args);
    S["hwlibs.execute_ms"] += nowMs() - T0;
    if (!St.ok())
      return Out;
    Out.Verified = true;
    for (size_t I = 0; I < C.size(); ++I)
      if (std::fabs(C[I] - Ref[I]) > 1e-3f)
        Out.Verified = false;
    Out.Cycles = Cycles ? Cycles() : 0;
    return Out;
  }

private:
  /// The marshalling above needs three rank-2 tensors of 4-byte floats; a
  /// mutant may have retuned precision away from that.
  static bool runsOnMatrices(const EntryInfo *E) {
    if (!E || !E->Executable || E->Args.size() != 3)
      return false;
    for (const ir::FnArg &Arg : E->Args)
      if (!Arg.Ty.isTensor() || Arg.Ty.isWindow() || Arg.Ty.rank() != 2 ||
          (Arg.Ty.elem() != ir::ScalarKind::R &&
           Arg.Ty.elem() != ir::ScalarKind::F32))
        return false;
    return true;
  }

  std::vector<float> A, B, Ref;
};

} // namespace

int probeTuneGemmini(const Options &O) {
  auto Space = buildSearchSpace("gemmini_matmul", Shape);
  if (!Space || !Space->Handwritten)
    return 1;
  CostModel CM(Shape, Metric::SimCycles);
  return CM.evaluate(Space->Handwritten).Ok ? 0 : 1;
}

void runTuneGemmini(const Options &O, Report &R) {
  Timings Setup = probeSetup(O, SetupRepeats, R);

  auto Space = buildSearchSpace("gemmini_matmul", Shape);
  if (!Space || !Space->Handwritten) {
    R.broken("cannot build the gemmini_matmul search space");
    return;
  }
  Replayer Replay;
  testing::Rng Rng(O.Seed);

  Timings CandidateMs, RunMs;
  Sums PerRun, PerReplay, PerApply;
  double Runs = 0, Replayed = 0, Applied = 0, Tried = 0;
  double BestCycles = 0, HandCycles = 0, BestCBytes = 0, TermNodes = 0;
  // Whole cycles over the search seeds, one per 10 s of --seconds, so
  // every run weighs each seed alike.
  uint64_t NumRuns = workUnits(O, 0.1) * NumSearchSeeds;
  for (uint64_t I = 0; I < NumRuns; ++I) {
    uint64_t SearchSeed = 1 + (O.Seed + I) % NumSearchSeeds;
    clearCompilerCaches();
    JitBackend::clearCache();
    Counters Before = Counters::now();
    double SlowBefore = hostSlowdown();
    double Start = nowMs();
    TuneResult T = tune(tuneOptions(SearchSeed));
    double Ms = nowMs() - Start;
    double SlowAfter = hostSlowdown();
    Counters After = Counters::now();

    R.attempted();
    std::string Where = "tune seed " + std::to_string(SearchSeed) + ": ";
    if (!T.Ok || !T.Best.Eval.Ok || !T.HaveHandwritten || T.Stats.Tried == 0) {
      R.fail(Where + "no verified candidate (" + T.Error + ")");
      continue;
    }
    if (T.Best.Eval.SimCycles > HandwrittenCycles)
      R.fail(Where + "best candidate costs " +
             std::to_string(T.Best.Eval.SimCycles) + " cycles, more than " +
             std::to_string(HandwrittenCycles));
    else if (T.Best.Eval.SimCycles > T.Handwritten.SimCycles)
      R.fail(Where + "best candidate costs more cycles than the hand-written");
    Runs += 1;
    Tried += static_cast<double>(T.Stats.Tried);
    RunMs.add(Ms, SlowBefore, SlowAfter);
    CandidateMs.add(Ms / static_cast<double>(T.Stats.Tried), SlowBefore,
                    SlowAfter);
    BestCycles =
        std::max(BestCycles, static_cast<double>(T.Best.Eval.SimCycles));
    HandCycles = static_cast<double>(T.Handwritten.SimCycles);
    if (!O.Trace)
      continue;

    PerRun["tuning.tried"] += static_cast<double>(T.Stats.Tried);
    PerRun["tuning.ok"] += static_cast<double>(T.Stats.Ok);
    addCounterDeltas(Before, After, PerRun);
    TermNodes = static_cast<double>(smt::termInternerStats().Live);

    // The replayed sample: hand-written, best, and seed-trace mutants.
    std::vector<std::vector<testing::ScheduleStep>> Traces = {T.Best.Applied};
    for (unsigned M = 0; M < MutantsPerRun; ++M)
      Traces.push_back(testing::mutateTrace(
          Space->Algorithm, Rng.pick(Space->Seeds), Rng));
    Replayer::Outcome Hand = Replay.replay(Space->Handwritten, PerReplay);
    Replayed += 1;
    if (!Hand.Verified || Hand.Cycles != T.Handwritten.SimCycles)
      R.fail(Where + "replayed hand-written schedule did not verify");
    for (size_t K = 0; K < Traces.size(); ++K) {
      double A0 = nowMs();
      testing::LenientApplyResult A =
          testing::applyTraceLenient(Space->Algorithm, Traces[K]);
      PerApply["scheduling.apply_ms"] += nowMs() - A0;
      Applied += 1;
      Replayer::Outcome Out = Replay.replay(A.Final, PerReplay);
      Replayed += 1;
      if (K == 0) {
        BestCBytes = static_cast<double>(Out.CBytes);
        if (!Out.Verified || Out.Cycles != T.Best.Eval.SimCycles)
          R.fail(Where + "replayed best trace did not reproduce its score");
      }
    }
  }

  if (O.Trace) {
    R.setPerOp(PerRun, Runs);
    R.setPerOp(PerReplay, Replayed);
    R.setPerOp(PerApply, Applied);
    R.set("tuning.ok_ratio",
          PerRun["tuning.tried"] > 0
              ? PerRun["tuning.ok"] / PerRun["tuning.tried"]
              : 0.0);
    R.set("tuning.best_cycles", BestCycles);
    R.set("backend.c_bytes", BestCBytes);
    R.set("smt.term_nodes", TermNodes);
    R.set("trace.op_ms_p50", CandidateMs.Ref.quantile(0.5));
    return;
  }
  R.setSetup(Setup);
  R.setOpTimes(CandidateMs, Tried, RunMs);
  R.set("peak_rss_mb", peakRssMb());
  double RunS = RunMs.Ref.sum() / 1000.0;
  R.show("candidates_per_s", RunS > 0 ? Tried / RunS : 0.0, "1/s");
  R.show("best_cycles", BestCycles, "cycles");
  R.show("handwritten_cycles", HandCycles, "cycles");
  R.show("tune_runs", Runs, "count");
}

} // namespace perfbench
