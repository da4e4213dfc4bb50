//===- testing/Fuzzer.h - Differential fuzzing loop ------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end fuzzing loop: generate a random program (ProgramGen),
/// drive random schedules over it (ScheduleGen), and push every
/// program × schedule pair — plus an unscheduled identity case per
/// program — through the triple oracle (Oracle) in batches. On any
/// divergence or crash the trace is shrunk greedily (drop one step,
/// re-replay, keep the drop while the case still fails) and a
/// standalone reproducer is written: a `.fuzz` corpus case, the `.exo`
/// source, and a `.cpp` that replays the case against the library.
///
/// The report carries the statistics behind BENCH_fuzz.json:
/// programs/sec, schedule steps proposed vs accepted per operator, and
/// oracle throughput.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_TESTING_FUZZER_H
#define EXO_TESTING_FUZZER_H

#include "driver/CompileSession.h"
#include "testing/Corpus.h"

namespace exo {
namespace testing {

struct FuzzOptions {
  uint64_t Seed = 1;            ///< program seeds are Seed, Seed+1, ...
  unsigned NumPrograms = 50;
  unsigned SchedulesPerProgram = 3; ///< plus one identity case each
  GenOptions Gen;
  ScheduleGenOptions Sched;
  OracleOptions Oracle;
  std::string ReproDir;         ///< empty: report divergences, write nothing
  unsigned OracleBatch = 64;    ///< cases per C compile

  /// After the main loop, re-run every retained case through each
  /// registered executable backend twice (cold then warm cache),
  /// cross-checking statuses and timing the lower+execute phase per
  /// backend. Feeds the per-backend throughput figures in
  /// BENCH_fuzz.json and the CI tripwire.
  bool CompareBackends = false;
};

struct FuzzDivergence {
  uint64_t ProgramSeed = 0;
  uint64_t InputSeed = 0;
  OracleOutcome Outcome;
  CorpusCase Shrunk;       ///< minimized, replayable case
  unsigned FullTraceLen = 0;
  std::string ReproBase;   ///< path prefix of the written files, if any
};

struct FuzzStats {
  unsigned Programs = 0;
  unsigned GenFailures = 0;
  unsigned Schedules = 0;      ///< schedule-driver runs
  unsigned Cases = 0;          ///< oracle cases executed
  unsigned StepsProposed = 0;
  unsigned StepsAccepted = 0;
  unsigned OracleBatches = 0;  ///< C compile+run invocations
  unsigned Divergences = 0;
  double WallMillis = 0;
  /// Per-operator {proposed, accepted} counts.
  std::map<std::string, std::pair<unsigned, unsigned>> OpStats;
  /// Cursor-forwarding property tallies (ScheduleGenOptions::CheckCursors):
  /// random cursors planted before each accepted step and forwarded across
  /// it; a contract violation is a mismatch, an explicit invalidation is a
  /// valid fate counted separately.
  unsigned CursorChecks = 0;
  unsigned CursorInvalidated = 0;
  unsigned CursorMismatches = 0;

  /// Oracle-phase wall time of the main loop, split between the
  /// interpreter pipelines (backend-independent) and lower+execute.
  double OracleInterpMillis = 0;
  double OracleExecMillis = 0;

  /// One row per (backend, cold/warm) measurement of CompareBackends.
  struct BackendBench {
    std::string Backend;
    unsigned Cases = 0;       ///< cases re-run (all retained cases)
    double ColdExecMillis = 0; ///< lower+execute, empty module cache
    double WarmExecMillis = 0; ///< same cases again, cache warm
  };
  std::vector<BackendBench> BackendBenches;
  /// Cases whose oracle status differed between two backends (always 0
  /// on a healthy build; nonzero fails the run via clean()).
  unsigned BackendMismatches = 0;
  /// JIT module-cache counters over the whole run.
  uint64_t JitCompiles = 0, JitCacheHits = 0, JitEvictions = 0;
  /// Solver work over the whole run: deltas of smt::solverGlobalStats().
  uint64_t SolverQueries = 0, CooperLiterals = 0, SolverBudgetUnknowns = 0;
};

struct FuzzReport {
  FuzzStats Stats;
  std::vector<FuzzDivergence> Divergences;
  /// Human-readable descriptions of cross-backend oracle mismatches.
  std::vector<std::string> BackendNotes;
  /// Human-readable descriptions of cursor-forwarding violations.
  std::vector<std::string> CursorNotes;

  bool clean() const {
    return Divergences.empty() && Stats.GenFailures == 0 &&
           Stats.BackendMismatches == 0 && Stats.CursorMismatches == 0;
  }
};

/// Runs the loop. A batch-level Expected failure means the harness
/// itself broke; divergences are reported in the FuzzReport, not as
/// errors.
Expected<FuzzReport> runFuzz(const FuzzOptions &O);

/// Greedily drops trace steps while the case keeps failing the oracle.
/// The interpreter-only oracle is used when the recorded failure already
/// shows up there (much cheaper); status drift between failure kinds is
/// accepted, as usual for shrinkers.
Expected<CorpusCase> shrinkCase(const CorpusCase &Full,
                                const OracleOutcome &Observed,
                                const OracleOptions &O);

/// Writes `<Dir>/repro_<seed>.{fuzz,exo,cpp}`; returns the common path
/// prefix. Creates Dir when missing.
Expected<std::string> writeReproducer(const std::string &Dir,
                                      const FuzzDivergence &D);

/// Builds the corpus case for one program seed and schedule variant
/// (used by `exocc-fuzz --emit-corpus` to pin the seed corpus).
Expected<CorpusCase> makeCorpusCase(uint64_t Seed, unsigned Variant,
                                    const GenOptions &GO,
                                    const ScheduleGenOptions &SO);

/// The schedule driver's RNG for program seed \p Seed and schedule
/// variant \p Variant (variant 0 is the unscheduled program). The fuzz
/// loop draws variants 1..SchedulesPerProgram; a single fuzz compile
/// (fuzzCompileJob, exocc-serve's `oracle` op) uses variant 1.
Rng scheduleRng(uint64_t Seed, unsigned Variant);

/// The compile job for fuzz program \p Seed: generateProgram(Seed) under
/// default options, scheduled by generateSchedule with scheduleRng(Seed,
/// 1), named "fuzz_p<Seed>", with the unscheduled program as reference.
driver::CompileJob fuzzCompileJob(uint64_t Seed);

/// Renders the BENCH_fuzz.json payload.
std::string statsJson(const FuzzReport &R, const FuzzOptions &O);

} // namespace testing
} // namespace exo

#endif // EXO_TESTING_FUZZER_H
