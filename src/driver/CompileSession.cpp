//===- driver/CompileSession.cpp -------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "driver/CompileSession.h"

#include "analysis/EffectSnapshot.h"
#include "backend/Backend.h"
#include "support/Deadline.h"

#include <chrono>

using namespace exo;
using namespace exo::driver;

static void recordError(JobResult &R, const Error &E) {
  R.Ok = false;
  R.ErrorKind = errorKindName(E.kind());
  R.ErrorMessage = E.message();
  R.ErrorOp.clear();
  R.ErrorPattern.clear();
  R.ErrorLoc.clear();
  R.ErrorVerdict.clear();
  if (const ScheduleErrorInfo *Info = E.scheduleInfo()) {
    R.ErrorOp = Info->Op;
    R.ErrorPattern = Info->Pattern;
    R.ErrorLoc = Info->Loc;
    if (Info->SolverVerdict != ScheduleErrorInfo::Verdict::None)
      R.ErrorVerdict = scheduleVerdictName(Info->SolverVerdict);
  }
}

/// Only a budget-Unknown is worth a retry: a bigger budget can flip it to
/// Yes/No, whereas structural Unknowns and timeouts are final (the former
/// by the paper's conservative-rejection rule, the latter because the
/// deadline is already gone).
static bool isRetryableError(const Error &E) {
  const ScheduleErrorInfo *Info = E.scheduleInfo();
  return Info &&
         Info->SolverVerdict == ScheduleErrorInfo::Verdict::UnknownBudget;
}

/// One build-then-lower attempt under the given solver budget. Returns
/// true on success; on failure the error is recorded into \p R.
static bool attemptJob(const CompileJob &Job, JobResult &R,
                       backend::Backend &BE, uint64_t MaxLiterals,
                       const std::string &Tenant, Error *OutError) {
  smt::ScopedSolverDefaults Defaults(MaxLiterals);
  Expected<std::vector<ir::ProcRef>> Procs = Job.Build();
  if (!Procs) {
    recordError(R, Procs.error());
    if (OutError)
      *OutError = Procs.error();
    return false;
  }
  backend::LowerOptions LO;
  LO.CacheSalt = Tenant;
  Expected<backend::LoweredModuleRef> M = BE.lower(*Procs, LO);
  if (!M) {
    recordError(R, M.error());
    if (OutError)
      *OutError = M.error();
    return false;
  }
  R.Ok = true;
  R.Output = (*M)->source();
  // A retried attempt may have recorded an earlier failure; the job
  // succeeded, so only the retry counters keep that history.
  R.ErrorKind.clear();
  R.ErrorMessage.clear();
  R.ErrorOp.clear();
  R.ErrorPattern.clear();
  R.ErrorLoc.clear();
  R.ErrorVerdict.clear();
  return true;
}

JobResult CompileSession::run(const CompileJob &Job) const {
  JobResult R;
  R.Name = Job.Name;
  auto Start = std::chrono::steady_clock::now();

  backend::Backend *BE = backend::findBackend(Opts.BackendName);
  if (!BE) {
    R.ErrorKind = errorKindName(Error::Kind::Internal);
    R.ErrorMessage = "unknown backend '" + Opts.BackendName + "'";
    return R;
  }

  {
    // Pin this job's deadline for the current thread; solver hot loops
    // poll it (see smt::Budget) so a wedged query returns
    // Unknown{timeout} instead of hanging the worker.
    support::Deadline D = Opts.DeadlineMillis > 0
                              ? support::Deadline::afterMillis(
                                    Opts.DeadlineMillis)
                              : support::Deadline::never();
    support::ScopedDeadline Scope(D);

    // One snapshot for the whole job (including retries): every rewrite
    // in the schedule chain re-analyzes only its dirty region. The
    // snapshot caches summaries, never solver verdicts, so retries under
    // escalated budgets still re-pose their queries.
    analysis::EffectSnapshot Snapshot;
    analysis::ScopedEffectSnapshot SnapScope(&Snapshot);

    uint64_t Budget = Opts.MaxLiterals == 0 ? 1 : Opts.MaxLiterals;
    uint64_t Factor = Opts.RetryBudgetFactor < 2 ? 2 : Opts.RetryBudgetFactor;
    Error LastError(Error::Kind::None, "");
    smt::Solver::Stats Before = smt::solverThreadStats();
    smt::clearLastBudgetUnknownQuery();
    unsigned EscalationsLeft = Opts.MaxRetries;
    for (;;) {
      R.FinalMaxLiterals = Budget;
      if (attemptJob(Job, R, *BE, Budget, Opts.Tenant, &LastError))
        break;
      if (EscalationsLeft == 0 || !isRetryableError(LastError) || D.expired())
        break;
      // Cheap retry: the solver remembered the query that came back
      // budget-Unknown. Re-prove just that query under escalated budgets;
      // only when its verdict actually changes is a full re-build worth
      // the cost. The re-build runs under the escalated budget, so it
      // re-solves the probed query there and gets the same verdict.
      smt::TermRef Failed = smt::lastBudgetUnknownQuery();
      bool VerdictChanged = false;
      while (EscalationsLeft > 0 && !D.expired()) {
        --EscalationsLeft;
        Budget = Budget > UINT64_MAX / Factor ? UINT64_MAX : Budget * Factor;
        if (!Failed) {
          // Nothing recorded (the failure surfaced without a solver
          // query on this thread): fall back to whole-job escalation.
          R.RetryPath = "full";
          VerdictChanged = true;
          break;
        }
        ++R.RetryProbes;
        smt::ScopedSolverDefaults Escalated(Budget);
        smt::Solver Probe;
        if (Probe.checkValid(Failed) != smt::SolverResult::Unknown) {
          R.RetryPath = "probe";
          VerdictChanged = true;
          break;
        }
        R.RetryPath = "probe-exhausted";
      }
      if (!VerdictChanged)
        break; // every probe stayed Unknown: a re-build would fail the same
      ++R.Retries;
      smt::clearLastBudgetUnknownQuery();
    }
    smt::Solver::Stats After = smt::solverThreadStats();
    R.SolverQueries = After.NumQueries - Before.NumQueries;
    R.SimplifyDecided = After.SimplifyDecided - Before.SimplifyDecided;
    R.FastPathHits = After.FastPathHits - Before.FastPathHits;
    R.CooperLiterals = After.NumLiterals - Before.NumLiterals;
    analysis::EffectSnapshotStats SS = Snapshot.stats();
    R.IncrementalHits = SS.Hits;
    R.IncrementalMisses = SS.Misses;

    if (!R.Ok && Opts.FallbackReference && Job.BuildReference) {
      // Graceful degradation: correct-but-unscheduled C beats no C. The
      // schedule's failure stays on the result for the batch report.
      Expected<std::vector<ir::ProcRef>> Ref = Job.BuildReference();
      if (Ref) {
        backend::LowerOptions LO;
        LO.CacheSalt = Opts.Tenant;
        Expected<backend::LoweredModuleRef> M = BE->lower(*Ref, LO);
        if (M) {
          R.Ok = true;
          R.Degraded = true;
          R.Output = (*M)->source();
        }
      }
    }

    if (D.expired())
      R.DeadlineMiss = true;
  }

  R.WallMillis = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  return R;
}
