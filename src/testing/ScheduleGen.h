//===- testing/ScheduleGen.h - Random schedule driver ----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The random schedule driver of the differential fuzzing harness: it
/// repeatedly proposes applicable scheduling operators against a
/// procedure, applying those the scheduling layer accepts and counting
/// those it rejects (rejection is a *valid* outcome — the operators'
/// safety checks are exactly what is under test). Every accepted step is
/// recorded as a replayable textual trace ("op|arg|arg|..."), which is
/// what the corpus files, the reproducer shrinker, and the regression
/// replayer exchange.
///
/// The trace grammar is one table of ops (name, typed argument schema,
/// one apply calling the pattern-taking primitive) and one interpreter,
/// applyStep; DESIGN.md, "Operator table and trace grammar", lists it.
/// The table lives here, not in exo_scheduling, because instruction and
/// config references resolve against exo_hwlibs. It also hosts the
/// deliberately-unsound test-only rewrite ("unsound_drop_iter") used by
/// the acceptance test to prove the oracle can catch a semantics break.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_TESTING_SCHEDULEGEN_H
#define EXO_TESTING_SCHEDULEGEN_H

#include "ir/Config.h"
#include "ir/Proc.h"
#include "scheduling/Schedule.h"
#include "support/Error.h"
#include "testing/Rng.h"

#include <cstdint>
#include <map>

namespace exo {
namespace testing {

/// One replayable schedule step: an operator name plus string arguments,
/// serialized as "op|arg1|arg2|...".
struct ScheduleStep {
  std::string Op;
  std::vector<std::string> Args;

  std::string str() const;
  static Expected<ScheduleStep> parse(const std::string &Line);
};

/// The argument types of the trace grammar.
enum class TraceArgKind {
  Loop,      ///< loop target: iterator name or loop pattern, optional @nav
  Stmt,      ///< statement target: pattern, optional @nav
  Count,     ///< selection width of the target, >= 1
  Int,       ///< signed 64-bit integer
  Tunable,   ///< an Int that trace mutation perturbs (at most one per op)
  Name,      ///< free text: fresh names, buffers, windows, fields, values
  Memory,    ///< memory name; registers the hardware library's memories
  Tail,      ///< split tail: guard | cut | perfect
  Precision, ///< f32 | f64 | i8 | i16 | i32
  Instr,     ///< gemmini:<proc> | avx512:<proc> instruction reference
  Config,    ///< gemmini:<config> configuration-struct reference
};

/// One parsed argument; the field its kind names is set.
struct TraceArg {
  std::string Str; ///< the text; for Loop/Stmt, the resolved pattern
  int64_t Int = 0; ///< Count, Int, Tunable
  scheduling::SplitTail Tail = scheduling::SplitTail::Guard;
  ir::ScalarKind Precision = ir::ScalarKind::R;
  ir::ProcRef Instr;
  ir::ConfigRef Config;
};

/// One entry of the op table: the trace token (a scheduling::ops name,
/// or the test-only unsound_drop_iter), the argument schema, and the
/// apply that calls the pattern-taking primitive on parsed arguments.
struct TraceOp {
  const char *Name;
  std::vector<TraceArgKind> Schema;
  Expected<ir::ProcRef> (*Apply)(const ir::ProcRef &P,
                                 const std::vector<TraceArg> &Args);
};

/// Every op the trace grammar knows, in table order.
const std::vector<TraceOp> &traceOps();

/// The table entry named \p Name, or null.
const TraceOp *findTraceOp(const std::string &Name);

/// Applies one step to \p P through the scheduling layer, interpreting
/// it against the op table. Unknown operators, a wrong argument count
/// and malformed arguments are Parse errors; operator rejection is
/// reported exactly as the scheduling layer reported it.
Expected<ir::ProcRef> applyStep(const ir::ProcRef &P, const ScheduleStep &S);

/// Applies a whole trace, failing on the first rejected step.
Expected<ir::ProcRef> applyTrace(const ir::ProcRef &P,
                                 const std::vector<ScheduleStep> &Trace);

/// Lenient trace application: rejected steps are skipped rather than
/// fatal. Returns the final procedure, the steps that actually landed,
/// and the rejection count. Used by trace mutation (a mutated trace is
/// allowed to contain steps the safety checks refuse) and by search
/// drivers that want "as much of this trace as applies".
struct LenientApplyResult {
  ir::ProcRef Final; ///< never null; == input when nothing landed
  std::vector<ScheduleStep> Applied;
  unsigned Rejected = 0;
};
LenientApplyResult applyTraceLenient(const ir::ProcRef &P,
                                     const std::vector<ScheduleStep> &Trace);

/// Proposes one random schedule step against \p P (the same proposal
/// distribution generateSchedule drives), or nullopt when the roll found
/// no target. \p NameCounter feeds fresh loop/buffer names; pass a value
/// larger than any suffix already in use.
std::optional<ScheduleStep> proposeStep(const ir::ProcRef &P, Rng &R,
                                        unsigned &NameCounter);

/// Returns a mutated copy of \p Trace: drop, duplicate, or swap a step,
/// perturb a numeric argument, or append a fresh proposal against the
/// procedure the (leniently applied) trace produces. The result is a
/// syntactically valid trace but carries no applicability guarantee —
/// callers apply it and treat rejection as a dead candidate.
std::vector<ScheduleStep> mutateTrace(const ir::ProcRef &P,
                                      const std::vector<ScheduleStep> &Trace,
                                      Rng &R);

/// One-point crossover: a prefix of \p A spliced onto a suffix of \p B.
/// Same contract as mutateTrace: syntactically valid, applicability not
/// guaranteed.
std::vector<ScheduleStep>
crossoverTraces(const std::vector<ScheduleStep> &A,
                const std::vector<ScheduleStep> &B, Rng &R);

struct ScheduleGenOptions {
  unsigned MaxSteps = 6;     ///< stop after this many accepted rewrites
  unsigned MaxAttempts = 20; ///< ... or this many proposals, either way
  /// TEST-ONLY: when true, one "unsound_drop_iter" step (drops the last
  /// iteration of a loop, with no safety check) is injected into the
  /// proposal mix so the acceptance test can verify the oracle trips.
  bool InjectUnsound = false;
  /// Cursor-forwarding property check (`exocc-fuzz --cursors`): before
  /// each *accepted* proposal lands, plant CursorsPerStep random cursors
  /// — statement selections and gaps — on the pre-rewrite procedure,
  /// forward each across the rewrite, and verify the forwarding
  /// contract: unchanged/shifted cursors must resolve to the
  /// pointer-identical statements, rebuilt cursors must resolve
  /// in-bounds on the replacement, and invalidations must carry a
  /// non-empty structured reason. Violations are counted as
  /// CursorMismatches (a clean run has zero).
  bool CheckCursors = false;
  unsigned CursorsPerStep = 8;
};

struct ScheduleResult {
  ir::ProcRef Scheduled;             ///< never null; == input when no step landed
  std::vector<ScheduleStep> Trace;   ///< the accepted steps, in order
  unsigned Proposed = 0;
  unsigned Accepted = 0;
  /// Per-operator {proposed, accepted} counts for the throughput report.
  std::map<std::string, std::pair<unsigned, unsigned>> OpStats;
  /// Cursor-forwarding tallies (zero unless ScheduleGenOptions::CheckCursors).
  unsigned CursorChecks = 0;      ///< cursors planted and forwarded
  unsigned CursorInvalidated = 0; ///< explicit invalidations (a valid fate)
  unsigned CursorMismatches = 0;  ///< forwarding-contract violations
  std::vector<std::string> CursorNotes; ///< one line per mismatch
};

/// Drives random scheduling of \p P. Never fails: rejected operators are
/// recorded in the stats and skipped.
ScheduleResult generateSchedule(const ir::ProcRef &P, Rng &R,
                                const ScheduleGenOptions &O = {});

} // namespace testing
} // namespace exo

#endif // EXO_TESTING_SCHEDULEGEN_H
