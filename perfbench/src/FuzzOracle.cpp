//===- perfbench/src/FuzzOracle.cpp - The fuzz_oracle workload ------------===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential loop of `exocc-fuzz` (random programs x random
/// schedules x the triple oracle on the JIT backend) over a fixed pool of
/// program seeds, 1..96, in blocks of eight programs. One testing::runFuzz
/// call runs one block: 8 programs, 3 schedules each plus an identity
/// case, 32 oracle cases in one batched compile. Each call starts from
/// empty compiler and JIT caches, as one `exocc-fuzz` process does. The
/// workload seed picks the block the run starts at, and a run does whole
/// cycles over the pool. Every case must agree.
///
/// A traced run takes the step counts and oracle times from runFuzz's own
/// FuzzStats. runFuzz does not time generation, so after each call, and
/// outside its span and counter deltas, the traced run times
/// generateProgram and generateSchedule on the block's programs once more.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "testing/Fuzzer.h"

using namespace exo;
using namespace exo::testing;

namespace perfbench {

namespace {

constexpr unsigned BlockPrograms = 8;
constexpr uint64_t NumBlocks = 12;
constexpr unsigned SchedulesPerProgram = 3;

FuzzOptions blockOptions(uint64_t Block) {
  FuzzOptions F;
  F.Seed = 1 + Block * BlockPrograms;
  F.NumPrograms = BlockPrograms;
  F.SchedulesPerProgram = SchedulesPerProgram;
  return F;
}

/// Times block \p Block's generateProgram and generateSchedule calls into
/// \p S. The schedules come from a stream of the benchmark's own, so they
/// are like the ones runFuzz ran, not the same ones.
void timeGeneration(uint64_t Block, Sums &S) {
  FuzzOptions F = blockOptions(Block);
  Rng Rn(F.Seed);
  for (unsigned P = 0; P < F.NumPrograms; ++P) {
    double T0 = nowMs();
    auto G = generateProgram(F.Seed + P, F.Gen);
    S["testing.progen_ms"] += nowMs() - T0;
    if (!G)
      continue; // runFuzz has counted it in GenFailures
    for (unsigned V = 0; V < F.SchedulesPerProgram; ++V) {
      T0 = nowMs();
      (void)generateSchedule(G->Proc, Rn, F.Sched);
      S["scheduling.generate_ms"] += nowMs() - T0;
    }
  }
}

} // namespace

int probeFuzzOracle(const Options &O) {
  FuzzOptions F = blockOptions(0);
  F.NumPrograms = 1;
  F.SchedulesPerProgram = 0;
  auto Rep = runFuzz(F);
  return Rep && Rep->clean() && Rep->Stats.Cases == 1 ? 0 : 1;
}

void runFuzzOracle(const Options &O, Report &R) {
  Timings Setup = probeSetup(O, SetupRepeats, R);

  Timings CaseMs, CallMs;
  Sums S;
  double Cases = 0;
  // Whole cycles over the blocks, one per 10 s of --seconds, so every run
  // weighs each block alike.
  uint64_t NumCalls = workUnits(O, 0.1) * NumBlocks;
  for (uint64_t I = 0; I < NumCalls; ++I) {
    uint64_t Block = (O.Seed + I) % NumBlocks;
    std::string Where = "block " + std::to_string(Block) + ": ";
    clearCompilerCaches();
    backend::JitBackend::clearCache();
    Counters Before = Counters::now();
    double SlowBefore = hostSlowdown();
    double Start = nowMs();
    auto Rep = runFuzz(blockOptions(Block));
    double Ms = nowMs() - Start;
    double SlowAfter = hostSlowdown();
    Counters After = Counters::now();
    if (!Rep) {
      R.broken(Where + Rep.error().message());
      break;
    }
    const FuzzStats &St = Rep->Stats;
    if (St.Cases == 0) {
      R.broken(Where + "no oracle case ran");
      break;
    }

    R.attempted(St.Cases);
    if (St.GenFailures)
      R.fail(Where + "program generation failed");
    for (const FuzzDivergence &D : Rep->Divergences)
      R.fail(Where + oracleStatusName(D.Outcome.Status) + ": " +
             D.Outcome.Detail);
    Cases += St.Cases;
    CallMs.add(Ms, SlowBefore, SlowAfter);
    CaseMs.add(Ms / St.Cases, SlowBefore, SlowAfter);
    if (O.Trace) {
      S["scheduling.steps_proposed"] += St.StepsProposed;
      S["scheduling.steps_accepted"] += St.StepsAccepted;
      S["interp.ms"] += St.OracleInterpMillis;
      S["testing.oracle_exec_ms"] += St.OracleExecMillis;
      S["testing.divergences"] += St.Divergences;
      addCounterDeltas(Before, After, S);
      timeGeneration(Block, S);
    }
  }

  if (O.Trace) {
    double Divergences = S["testing.divergences"];
    R.setPerOp(S, Cases);
    R.set("testing.divergences", Divergences);
    R.set("scheduling.accept_ratio",
          S["scheduling.steps_proposed"] > 0
              ? S["scheduling.steps_accepted"] / S["scheduling.steps_proposed"]
              : 0.0);
    R.set("trace.op_ms_p50", CaseMs.Ref.quantile(0.5));
    return;
  }
  R.setSetup(Setup);
  R.setOpTimes(CaseMs, Cases, CallMs);
  R.set("peak_rss_mb", peakRssMb());
  double CallS = CallMs.Ref.sum() / 1000.0;
  R.show("cases_per_s", CallS > 0 ? Cases / CallS : 0.0, "1/s");
  R.show("fuzz_calls", static_cast<double>(CallMs.Wall.size()), "count");
}

} // namespace perfbench
