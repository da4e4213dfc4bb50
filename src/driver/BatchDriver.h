//===- driver/BatchDriver.h - Parallel batch compilation -------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fans a list of CompileJobs across a work-stealing thread pool, one
/// CompileSession invocation per job, and collects per-job results plus
/// batch-wide cache-statistics deltas. Job failures are recorded, not
/// fatal. Because every shared cache returns exactly what a cold
/// computation would and codegen naming is procedure-local, the produced
/// C is bit-identical regardless of thread count or interleaving.
///
/// When SessionOptions carries a deadline, a watchdog thread supervises
/// the batch: any job still running past its deadline (plus a grace
/// period) is marked overdue, and overdue jobs are reported failed with a
/// deadline miss — without killing the pool. Cancellation itself is
/// cooperative (the session's thread-local deadline makes solver loops
/// unwind), so the watchdog is the safety net that keeps the *report*
/// honest even for code paths that poll rarely.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_DRIVER_BATCHDRIVER_H
#define EXO_DRIVER_BATCHDRIVER_H

#include "driver/CompileSession.h"

namespace exo {
namespace driver {

/// Cache/solver activity over one batch (after-minus-before deltas of the
/// process-wide counters; meaningful when no other threads compile
/// concurrently with the batch).
struct BatchCacheStats {
  uint64_t SolverQueries = 0;
  uint64_t TermHits = 0;
  uint64_t TermMisses = 0;
  /// Preprocessing activity (DESIGN.md, "Solver preprocessing"):
  /// queries decided before Cooper, disjointness checks answered by the
  /// effect fast path (and ones that fell back), and the total Cooper
  /// literal consumption over the batch.
  uint64_t SimplifyDecided = 0;
  uint64_t FastPathHits = 0;
  uint64_t FastPathMisses = 0;
  uint64_t CooperLiterals = 0;
  /// Always 0: context analysis keeps no per-job summary memo any more
  /// (DESIGN.md, "Dirty regions"). Kept only because the benchmark
  /// harness still reads them; drop them with its analysis.incremental_*
  /// metrics.
  uint64_t IncrementalHits = 0;
  uint64_t IncrementalMisses = 0;
};

struct BatchResult {
  std::vector<JobResult> Jobs; ///< in input order
  double WallMillis = 0;
  unsigned Threads = 1;
  bool AllOk = true;          ///< degraded jobs count as Ok
  unsigned NumFailed = 0;     ///< jobs with Ok == false
  unsigned NumDegraded = 0;   ///< jobs emitted from the reference fallback
  unsigned NumDeadlineMiss = 0;
  unsigned NumRetried = 0;    ///< jobs that needed at least one retry
  BatchCacheStats Cache;
};

/// Runs batches with a fixed worker count. Threads <= 1 runs inline on
/// the calling thread (the serial baseline), with identical results.
class BatchDriver {
public:
  explicit BatchDriver(unsigned Threads, SessionOptions SOpts = {})
      : Threads(Threads), SOpts(SOpts) {}

  BatchResult run(const std::vector<CompileJob> &Jobs) const;

private:
  unsigned Threads;
  SessionOptions SOpts;
};

} // namespace driver
} // namespace exo

#endif // EXO_DRIVER_BATCHDRIVER_H
