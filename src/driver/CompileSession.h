//===- driver/CompileSession.h - One thread-safe compile job ---*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CompileSession runs one CompileJob — build the scheduled procedures
/// (parse + schedule), then generate C — and reports a structured
/// JobResult instead of throwing or aborting. Sessions are safe to run
/// concurrently on different threads: the process-wide caches they share
/// (term interner, effect cache, Sym table, registries) are
/// individually synchronized, and per-session solver options are installed
/// thread-locally for the duration of the job. See DESIGN.md, "Threading
/// model".
///
/// On top of PR 2's thread-safety story this adds the failure model
/// (DESIGN.md, "Failure model"):
///
///  - a per-job wall-clock deadline, installed as a thread-local
///    support::ScopedDeadline so runaway solver queries cooperatively
///    unwind with Unknown{timeout};
///  - a retry policy: budget-Unknown failures (and only those — the
///    paper's conservative rejection makes structural Unknowns final) are
///    re-built with a geometrically escalated solver budget, until
///    MaxRetries or the deadline runs out;
///  - graceful degradation: with FallbackReference set, a job whose
///    schedule fails still emits correct C from its unscheduled reference
///    algorithm, tagged Degraded in the result.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_DRIVER_COMPILESESSION_H
#define EXO_DRIVER_COMPILESESSION_H

#include "ir/Proc.h"
#include "smt/Solver.h"
#include "support/Error.h"

#include <functional>
#include <string>
#include <vector>

namespace exo {
namespace driver {

/// Per-session tuning, applied thread-locally while the job runs so that
/// concurrent sessions can use different settings.
struct SessionOptions {
  uint64_t MaxLiterals = smt::defaultMaxLiterals();

  /// Wall-clock deadline per job in milliseconds; 0 means none. Enforced
  /// cooperatively (solver hot loops poll it) and by the BatchDriver
  /// watchdog.
  int64_t DeadlineMillis = 0;

  /// How many times a budget-Unknown failure is rebuilt with an escalated
  /// budget. 0 (the default) preserves single-shot behavior.
  unsigned MaxRetries = 0;

  /// Geometric escalation factor applied to MaxLiterals on each retry.
  uint64_t RetryBudgetFactor = 4;

  /// When a job's scheduled build fails and the job carries a reference
  /// builder, emit C from the (unscheduled, always-correct) reference and
  /// mark the result Degraded instead of failing the job.
  bool FallbackReference = false;

  /// Which execution backend lowers the job (backend::findBackend name).
  /// Every backend's module source is byte-identical generated C, so the
  /// choice only matters to callers that go on to execute the module;
  /// "csource" is what exocc-batch ships and the goldens pin.
  std::string BackendName = "csource";

  /// Tenant identity of the submitting client (empty for single-tenant
  /// CLI runs). The generated C is tenant-independent — Sym minting is
  /// globally unique and codegen naming procedure-local, so outputs stay
  /// bit-identical across tenants — but the tenant id is folded into the
  /// module content hash (LowerOptions::CacheSalt) so tenants never share
  /// compiled-artifact cache entries. See DESIGN.md, "Service layer".
  std::string Tenant;
};

/// One unit of batch work: a name plus a builder producing the procedures
/// to emit. The builder runs parsing and scheduling; it must be
/// self-contained (capture shapes by value) because it may run on any
/// worker thread — and because the retry policy may invoke it several
/// times under different solver budgets. BuildReference, when present,
/// produces the unscheduled reference algorithm for --fallback-reference
/// degradation; it must not depend on any scheduling proof.
struct CompileJob {
  std::string Name;
  std::function<Expected<std::vector<ir::ProcRef>>()> Build;
  std::function<Expected<std::vector<ir::ProcRef>>()> BuildReference;
};

/// Outcome of one job. Errors are captured — including the structured
/// scheduling payload when present — so one failing kernel never aborts
/// the batch.
struct JobResult {
  std::string Name;
  bool Ok = false;
  std::string Output; ///< generated C on success
  double WallMillis = 0;

  /// Retry bookkeeping: how many extra build attempts ran, and the solver
  /// budget the final attempt used (== SessionOptions::MaxLiterals when
  /// no retry escalated it).
  unsigned Retries = 0;
  uint64_t FinalMaxLiterals = 0;

  /// How many single-query re-proof probes the retry policy ran before
  /// (or instead of) full re-builds, and which escalation path the last
  /// retry took: "probe" (the failed query was re-proved alone and its
  /// verdict changed, so the job was re-built), "probe-exhausted" (probes
  /// stayed budget-Unknown through every escalation — no re-build, the
  /// result would not change), "full" (no failed query was recorded;
  /// whole-job re-run). Empty when no retry happened.
  unsigned RetryProbes = 0;
  std::string RetryPath;

  /// Per-job solver activity (exact deltas of the worker thread's
  /// counters — a job runs entirely on one thread): total queries, how
  /// many the preprocessing pipeline decided before Cooper, how many
  /// disjointness checks the effect fast path answered without a query,
  /// and the Cooper literals the rest consumed.
  uint64_t SolverQueries = 0;
  uint64_t SimplifyDecided = 0;
  uint64_t FastPathHits = 0;
  uint64_t CooperLiterals = 0;

  /// Incremental re-analysis activity of the job's EffectSnapshot:
  /// subtree summaries served from the snapshot vs (re)derived.
  uint64_t IncrementalHits = 0;
  uint64_t IncrementalMisses = 0;

  /// The job's deadline had passed by the time it finished (stamped by
  /// the session; the batch watchdog may also mark it).
  bool DeadlineMiss = false;

  /// Output came from the reference algorithm, not the schedule (only
  /// under SessionOptions::FallbackReference). Ok is true; the Error*
  /// fields still describe why the schedule failed.
  bool Degraded = false;

  // On failure (or degradation): the rendered error plus the structured
  // payload fields.
  std::string ErrorKind;
  std::string ErrorMessage;
  std::string ErrorOp;      ///< scheduling operator, when known
  std::string ErrorPattern; ///< cursor pattern text, when known
  std::string ErrorLoc;     ///< matched location, when known
  std::string ErrorVerdict; ///< solver verdict, when a solver was involved
};

/// Runs jobs one at a time under the given options. Stateless apart from
/// the options; a single session object may be used from many threads.
class CompileSession {
public:
  explicit CompileSession(SessionOptions Opts = {}) : Opts(Opts) {}

  /// Builds and compiles one job, timing it and capturing any error.
  /// Applies the deadline, retry, and fallback policies described above.
  JobResult run(const CompileJob &Job) const;

private:
  SessionOptions Opts;
};

} // namespace driver
} // namespace exo

#endif // EXO_DRIVER_COMPILESESSION_H
