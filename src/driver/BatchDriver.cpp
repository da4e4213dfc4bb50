//===- driver/BatchDriver.cpp ----------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "driver/BatchDriver.h"

#include "analysis/EffectCache.h"
#include "support/Deadline.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

using namespace exo;
using namespace exo::driver;
using support::nowMillis;

namespace {

/// Per-job state shared between the worker that runs the job and the
/// watchdog that supervises it. Kept separate from JobResult so the
/// watchdog never races the worker's result assignment: workers write
/// State/StartMillis, the watchdog writes Overdue, and the merge into
/// JobResult happens only after both have finished.
struct JobTrack {
  std::atomic<int> State{0}; ///< 0 = pending, 1 = running, 2 = done
  std::atomic<int64_t> StartMillis{0};
  std::atomic<bool> Overdue{false};
};

} // namespace

BatchResult BatchDriver::run(const std::vector<CompileJob> &Jobs) const {
  BatchResult Out;
  Out.Threads = Threads == 0 ? 1 : Threads;
  Out.Jobs.resize(Jobs.size());

  smt::Solver::Stats Solver0 = smt::solverGlobalStats();
  smt::TermInternerStats Term0 = smt::termInternerStats();
  analysis::EffectCacheStats Eff0 = analysis::effectCacheStats();

  std::unique_ptr<JobTrack[]> Track(new JobTrack[Jobs.size()]);

  auto Start = std::chrono::steady_clock::now();
  {
    CompileSession Session(SOpts);
    // 0 workers = run submissions inline on this thread: the serial
    // baseline takes the exact same code path as the parallel one.
    support::ThreadPool Pool(Threads <= 1 ? 0 : Threads);

    // With a per-job deadline configured, a watchdog thread flags jobs
    // still running past it. Cancellation is cooperative (the session's
    // thread-local deadline unwinds solver loops), so the watchdog never
    // kills anything — it guarantees the batch report calls an overdue
    // job a failure even if the job's own polling never tripped. The
    // grace period covers post-solver work (codegen, fallback emission)
    // that legitimately runs after the deadline fires.
    std::atomic<bool> WatchdogStop{false};
    std::thread Watchdog;
    if (SOpts.DeadlineMillis > 0) {
      int64_t Limit = SOpts.DeadlineMillis;
      int64_t Grace = Limit / 4 > 25 ? Limit / 4 : 25;
      JobTrack *T = Track.get();
      size_t N = Jobs.size();
      Watchdog = std::thread([&WatchdogStop, T, N, Limit, Grace] {
        while (!WatchdogStop.load(std::memory_order_acquire)) {
          int64_t Now = nowMillis();
          for (size_t I = 0; I < N; ++I) {
            if (T[I].State.load(std::memory_order_acquire) != 1)
              continue;
            int64_t Began = T[I].StartMillis.load(std::memory_order_acquire);
            if (Now - Began > Limit + Grace)
              T[I].Overdue.store(true, std::memory_order_release);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    }

    for (size_t I = 0; I < Jobs.size(); ++I) {
      const CompileJob *Job = &Jobs[I];
      JobResult *Slot = &Out.Jobs[I];
      JobTrack *T = &Track[I];
      Pool.submit([&Session, Job, Slot, T] {
        T->StartMillis.store(nowMillis(), std::memory_order_release);
        T->State.store(1, std::memory_order_release);
        *Slot = Session.run(*Job);
        T->State.store(2, std::memory_order_release);
      });
    }
    Pool.waitIdle();
    if (Watchdog.joinable()) {
      WatchdogStop.store(true, std::memory_order_release);
      Watchdog.join();
    }
  }
  Out.WallMillis = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  for (size_t I = 0; I < Out.Jobs.size(); ++I) {
    JobResult &R = Out.Jobs[I];
    if (Track[I].Overdue.load(std::memory_order_acquire)) {
      R.DeadlineMiss = true;
      // An overdue job is a failure unless the fallback already salvaged
      // it — degraded output is the sanctioned way past a blown deadline.
      if (R.Ok && !R.Degraded) {
        R.Ok = false;
        if (R.ErrorKind.empty()) {
          R.ErrorKind = "deadline";
          R.ErrorMessage = "job exceeded its wall-clock deadline";
        }
      }
    }
    Out.AllOk = Out.AllOk && R.Ok;
    if (!R.Ok)
      ++Out.NumFailed;
    if (R.Degraded)
      ++Out.NumDegraded;
    if (R.DeadlineMiss)
      ++Out.NumDeadlineMiss;
    if (R.Retries > 0)
      ++Out.NumRetried;
    Out.Cache.IncrementalHits += R.IncrementalHits;
    Out.Cache.IncrementalMisses += R.IncrementalMisses;
  }

  smt::Solver::Stats Solver1 = smt::solverGlobalStats();
  smt::TermInternerStats Term1 = smt::termInternerStats();
  analysis::EffectCacheStats Eff1 = analysis::effectCacheStats();
  Out.Cache.SolverQueries = Solver1.NumQueries - Solver0.NumQueries;
  Out.Cache.EffectCrossCompileHits =
      Eff1.CrossCompileHits - Eff0.CrossCompileHits;
  Out.Cache.TermHits = Term1.Hits - Term0.Hits;
  Out.Cache.TermMisses = Term1.Misses - Term0.Misses;
  Out.Cache.EffectHits = Eff1.Hits - Eff0.Hits;
  Out.Cache.EffectMisses = Eff1.Misses - Eff0.Misses;
  Out.Cache.SimplifyDecided = Solver1.SimplifyDecided - Solver0.SimplifyDecided;
  Out.Cache.FastPathHits = Solver1.FastPathHits - Solver0.FastPathHits;
  Out.Cache.FastPathMisses = Solver1.FastPathMisses - Solver0.FastPathMisses;
  Out.Cache.CooperLiterals = Solver1.NumLiterals - Solver0.NumLiterals;
  return Out;
}
