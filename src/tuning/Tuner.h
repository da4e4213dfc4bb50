//===- tuning/Tuner.h - Parallel schedule autotuning -----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The beam/evolutionary schedule search (DESIGN.md, "Autotuning"). Each
/// generation holds a population of candidate ScheduleGen traces applied
/// (leniently) to the kernel's unscheduled algorithm; survivors are the
/// best `Beam` by score, children come from trace mutation and one-point
/// crossover, and every candidate is scored end to end by the CostModel
/// (JIT compile, execute, verify against the host reference, read the
/// simulator's cycle counter). Rejected steps, failed lowers, traps, and
/// wrong answers are all priced the same way: the candidate is dead.
///
/// Parallelism and determinism: trace application fans out over a
/// work-stealing pool, and the cost model scores each generation as one
/// batch on the same pool (one JIT module per thread, built and run
/// concurrently). Every random draw happens serially on the driver
/// thread before the fan-out, and no verdict depends on how candidates
/// were split into modules. Same seed, same result, at any thread count.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_TUNING_TUNER_H
#define EXO_TUNING_TUNER_H

#include "tuning/CostModel.h"
#include "tuning/SearchSpace.h"

namespace exo {
namespace tuning {

struct TuneOptions {
  std::string Kernel = "gemmini_matmul";
  KernelShape Shape;
  unsigned Population = 24; ///< candidates per generation
  unsigned Generations = 4;
  unsigned Beam = 6;      ///< survivors carried between generations
  uint64_t Seed = 1;      ///< search RNG seed (deterministic replay)
  unsigned Threads = 0;   ///< evaluation threads; 0 = all cores
  unsigned MaxCandidates = 0;  ///< stop after this many evaluations (0 = off)
  uint64_t DeadlineMillis = 0; ///< wall-clock budget (0 = off)
  Metric Score = Metric::SimCycles;
};

/// One evaluated member of the population.
struct Candidate {
  std::vector<testing::ScheduleStep> Trace;   ///< as proposed
  std::vector<testing::ScheduleStep> Applied; ///< steps that landed
  unsigned Rejected = 0; ///< proposed steps the safety checks refused
  unsigned Generation = 0;
  EvalResult Eval;
};

/// Search-wide tallies, including the JIT module cache's deltas over the
/// search.
struct TuneStats {
  uint64_t Tried = 0; ///< candidates evaluated (incl. dead)
  uint64_t Ok = 0;    ///< candidates that executed and verified
  unsigned GenerationsRun = 0;
  double WallMillis = 0;
  double CandidatesPerSec = 0;
  /// JIT modules compiled, not candidates: a generation builds at most
  /// one module per evaluation thread, the hand-written baseline's
  /// included.
  uint64_t JitCompiles = 0, JitHits = 0;
};

struct GenerationEntry {
  unsigned Gen = 0;
  double BestScore = 0; ///< best score seen so far, after this generation
  uint64_t Tried = 0;   ///< cumulative candidates evaluated
  uint64_t Ok = 0;      ///< cumulative candidates that verified
};

struct TuneResult {
  bool Ok = false;
  std::string Error; ///< set when the search could not start
  Candidate Best;    ///< best verified candidate (when Stats.Ok > 0)
  /// The expert baseline's own evaluation, when the kernel has one. It
  /// is scored in generation zero's batch and is not counted in Stats
  /// or tunerProgress().
  bool HaveHandwritten = false;
  EvalResult Handwritten;
  TuneStats Stats;
  std::vector<GenerationEntry> Log;
};

/// Runs the search. Never throws; an un-startable search (unknown
/// kernel, bad shape) comes back with Ok == false and Error set.
TuneResult tune(const TuneOptions &O);

/// Process-wide tuner progress, readable from other threads while a
/// search runs (exocc-serve surfaces these on its stats op).
struct TunerProgress {
  uint64_t RunsStarted = 0;
  uint64_t RunsFinished = 0;
  uint64_t GenerationsDone = 0;
  uint64_t CandidatesTried = 0;
  uint64_t CandidatesOk = 0;
};
TunerProgress tunerProgress();

} // namespace tuning
} // namespace exo

#endif // EXO_TUNING_TUNER_H
