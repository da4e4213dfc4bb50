//===- scheduling/Schedule.h - Rewrite-based scheduling ops ----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The primitive scheduling operators (Fig. 2 of the paper). Each operator
/// is an independent rewrite: it takes a Cursor (Cursor.h) pointing at
/// code in a procedure, verifies its own safety condition (via the effect
/// analysis where needed), and returns a new, provenance-linked procedure.
/// Operators never mutate their input; failed operators return an Error
/// and leave everything untouched. Each operator has exactly one entry
/// point: the pattern strings of §3.3 are resolved to a cursor by
/// Cursor::find, which the Schedule facade below and the trace
/// interpreter (testing/ScheduleGen.h) call for their callers.
///
/// This rewrite architecture — in contrast to Halide/TVM's monolithic
/// lowering — is the paper's central design claim: the correctness of
/// each operator is independent of every other operator (§3.3).
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SCHEDULING_SCHEDULE_H
#define EXO_SCHEDULING_SCHEDULE_H

#include "scheduling/Cursor.h"

namespace exo {
namespace scheduling {

/// The one list of scheduling-operator names. Every spelling of an
/// operator comes from here: the ScopedOpName each primitive installs
/// (hence DirtyRegion::Op and its rejections' ScheduleErrorInfo::Op), the
/// facade's step names below, the procedures' payloads (Procedures.h) and
/// the trace tokens (testing/ScheduleGen.h), which persist in corpus files
/// and tuner traces.
namespace ops {
inline constexpr const char *Split = "split";
inline constexpr const char *Reorder = "reorder";
inline constexpr const char *Unroll = "unroll";
inline constexpr const char *Partition = "partition";
inline constexpr const char *Remove = "remove";
inline constexpr const char *Fuse = "fuse";
inline constexpr const char *LiftIf = "lift_if";
inline constexpr const char *ReorderStmts = "reorder_stmts";
inline constexpr const char *MoveUp = "move_up";
inline constexpr const char *Hoist = "hoist";
inline constexpr const char *Fission = "fission";
inline constexpr const char *LiftAlloc = "lift_alloc";
inline constexpr const char *BindExpr = "bind_expr";
inline constexpr const char *AddGuard = "add_guard";
inline constexpr const char *DeletePass = "delete_pass";
inline constexpr const char *ConfigWrite = "config_write";
inline constexpr const char *ConfigWriteRoot = "configwrite_root";
inline constexpr const char *BindConfig = "bind_config";
inline constexpr const char *Stage = "stage";
inline constexpr const char *SetMemory = "set_memory";
inline constexpr const char *SetPrecision = "set_precision";
inline constexpr const char *Inline = "inline";
inline constexpr const char *CallEqv = "call_eqv";
inline constexpr const char *Replace = "replace";
inline constexpr const char *Simplify = "simplify";
inline constexpr const char *Tile2D = "tile2d";
inline constexpr const char *AutoDivide = "auto_divide";
inline constexpr const char *StageVec = "stage_vec";
} // namespace ops

/// How splitLoop handles iteration counts not divisible by the factor.
enum class SplitTail {
  Guard,   ///< guard the body with a bounds test
  Cut,     ///< emit a separate tail loop
  Perfect, ///< prove divisibility (fails otherwise)
};

//===----------------------------------------------------------------------===//
// Loop transformations (LoopOps.cpp)
//
// A cursor-taking operator acts on the cursor's anchor procedure. One that
// needs a particular statement kind rejects any other selection (and gaps)
// with a Pattern error whose ScheduleErrorInfo::Loc is Cursor::str().
//===----------------------------------------------------------------------===//

/// split(i, c, io, ii): for i in seq(0, n) becomes a 2-d nest
/// io in seq(0, ceil(n/c)) x ii in seq(0, c) with i = c*io + ii.
/// Requires the loop to start at 0. Structurally safe for Guard/Cut;
/// Perfect requires a divisibility proof under the path condition.
Expected<ProcRef> splitLoop(const Cursor &Loop, int64_t Factor,
                            const std::string &OuterName,
                            const std::string &InnerName,
                            SplitTail Tail = SplitTail::Guard);

/// reorder(i, j): swaps a loop with the single loop forming its body.
/// Safe when reordered iteration pairs commute (§5.8).
Expected<ProcRef> reorderLoops(const Cursor &Loop);

/// unroll(i): fully unrolls a constant-bound loop. Always safe.
Expected<ProcRef> unrollLoop(const Cursor &Loop);

/// partition_loop(i, c): splits the iteration space [lo, hi) into
/// [lo, lo+c) and [lo+c, hi). Requires lo + c <= hi under the path
/// condition. Order-preserving, hence otherwise safe.
Expected<ProcRef> partitionLoop(const Cursor &Loop, int64_t Cut);

/// remove_loop: for x: s becomes s. Requires x not free in s, at least
/// one iteration, and an idempotent body (Shadows(a, a), §5.8).
Expected<ProcRef> removeLoop(const Cursor &Loop);

/// fuse_loop: the selected loop and the adjacent loop after it, with
/// equal bounds, fuse into one. Safe when moved-past iteration pairs
/// commute.
Expected<ProcRef> fuseLoops(const Cursor &Loop);

/// lift_if: for x: if e: s becomes if e: for x: s (e independent of x).
Expected<ProcRef> liftIf(const Cursor &If);

//===----------------------------------------------------------------------===//
// Statement transformations (StmtOps.cpp)
//===----------------------------------------------------------------------===//

/// reorder_stmts: swaps the selected statement with its successor.
/// Safe when the two statements commute under the path condition.
Expected<ProcRef> reorderStmts(const Cursor &First);

/// Swaps the selected statement with its *predecessor* (same check).
Expected<ProcRef> moveStmtUp(const Cursor &Stmt);

/// fission_after(s): splits the enclosing loop into two loops, the first
/// ending after s. Safe per the fission condition of §5.8.
Expected<ProcRef> fissionAfter(const Cursor &Stmt);

/// lift_alloc: hoists an allocation out of \p Levels enclosing loops.
/// The allocation is followed from level to level by where each lift put
/// it, so the selected allocation is the one lifted every time.
Expected<ProcRef> liftAlloc(const Cursor &Alloc, unsigned Levels = 1);

/// bind_expr: a' : R; a' = e; s[e -> a'] for the selected statement.
/// \p ExprPat is matched against printed subexpressions of the statement.
Expected<ProcRef> bindExpr(const Cursor &Stmt, const std::string &ExprPat,
                           const std::string &NewName);

/// add_guard: s becomes if e: s. Requires e to be definitely true
/// whenever s executes (the guard is vacuous; it exists to enable
/// unification against guarded instruction bodies).
Expected<ProcRef> addGuard(const Cursor &Stmt, const std::string &CondSrc);

/// delete_pass: removes Pass statements (empty blocks get one back).
Expected<ProcRef> deletePass(const ProcRef &P);

//===----------------------------------------------------------------------===//
// Configuration-state transformations (ConfigOps.cpp) — these only
// preserve equivalence *modulo* the written fields (§6.2); the returned
// procedure records the pollution in its provenance.
//===----------------------------------------------------------------------===//

/// configwrite_at: s ~> s; Cfg.field = e. The §6.2 context condition
/// requires that no code executing afterwards reads the field.
Expected<ProcRef> configWriteAt(const Cursor &Stmt, const ir::ConfigRef &Cfg,
                                const std::string &Field,
                                const std::string &ValueSrc);

/// configwrite_root: prepends Cfg.field = e to the procedure.
Expected<ProcRef> configWriteRoot(const ProcRef &P, const ir::ConfigRef &Cfg,
                                  const std::string &Field,
                                  const std::string &ValueSrc);

/// bind_config: replaces occurrences of expression e in the selected
/// statement by a read of Cfg.field, preceded by Cfg.field = e.
Expected<ProcRef> bindConfig(const Cursor &Stmt, const std::string &ExprPat,
                             const ir::ConfigRef &Cfg,
                             const std::string &Field);

//===----------------------------------------------------------------------===//
// Memory & precision (MemOps.cpp)
//===----------------------------------------------------------------------===//

/// stage_mem: stages the window \p WindowSrc (e.g. "A[16*io:16*io+16,
/// 16*ko:16*ko+16]") of a buffer into a new buffer \p NewName placed in
/// \p Mem, around the selected statements (the cursor's whole selection):
/// copy-in, redirected body, copy-out (each part only as needed). All
/// accesses to the buffer inside the selection must provably fall inside
/// the window.
Expected<ProcRef> stageMem(const Cursor &Stmts, const std::string &WindowSrc,
                           const std::string &NewName,
                           const std::string &Mem = "DRAM");

/// set_memory: changes the memory annotation of the allocation or
/// argument named \p Name. Annotations are ignored by the analysis
/// (§3.2.1), so this is structurally safe; the backend checks enforce
/// them at codegen.
Expected<ProcRef> setMemory(const ProcRef &P, const std::string &Name,
                            const std::string &Mem);

/// set_precision: refines the R type of the allocation or argument named
/// \p Name to a concrete precision; uses of the buffer are retyped.
Expected<ProcRef> setPrecision(const ProcRef &P, const std::string &Name,
                               ir::ScalarKind Precision);

//===----------------------------------------------------------------------===//
// Procedure-level operators (ProcOps.cpp / Unify.cpp / Provenance.cpp)
//===----------------------------------------------------------------------===//

/// inline(): inlines the selected call site (substituting arguments,
/// composing windows, refreshing binders).
Expected<ProcRef> inlineCall(const Cursor &Call);

/// call_eqv(): retargets the selected call to a provenance-equivalent
/// procedure. The accumulated configuration delta between the callees
/// must not be read by code executing after the call.
Expected<ProcRef> callEqv(const Cursor &Call, const ProcRef &NewCallee);

/// replace(): unifies the selected statements (the cursor's whole
/// selection) with the body of \p Target (typically an @instr) and
/// replaces them with a call — instruction selection under programmer
/// control (§3.4).
Expected<ProcRef> replaceWith(const Cursor &Stmts, const ProcRef &Target);

/// Renames the procedure (fresh identity, same provenance lattice point).
ProcRef renameProc(const ProcRef &P, const std::string &NewName);

/// Constant-folds index arithmetic and prunes trivially-true guards;
/// keeps the program readable after splits. Semantics-preserving.
Expected<ProcRef> simplify(const ProcRef &P);

/// Provenance queries: the configuration delta modulo which A and B are
/// equivalent (nullopt if they are unrelated), per the lattice of §6.
std::optional<std::set<ir::Sym>> equivalenceDelta(const ProcRef &A,
                                                  const ProcRef &B);

//===----------------------------------------------------------------------===//
// Fluent scheduling facade
//===----------------------------------------------------------------------===//

/// \p E with its ScheduleErrorInfo's Op and Pattern set to \p Op and
/// \p Pattern where the operator left them empty: how the facade and the
/// trace interpreter report a rejection against the spelling they were
/// given.
inline Error withStepContext(const Error &E, const std::string &Op,
                             const std::string &Pattern) {
  ScheduleErrorInfo Info =
      E.scheduleInfo() ? *E.scheduleInfo() : ScheduleErrorInfo();
  if (Info.Op.empty())
    Info.Op = Op;
  if (Info.Pattern.empty())
    Info.Pattern = Pattern;
  return E.withScheduleInfo(std::move(Info));
}

/// Pattern-addressed wrapper over the operators above: carries the
/// current procedure through a chain of rewrites and short-circuits on the
/// first failure, so a whole schedule reads as one expression:
///
///   auto P = Schedule(Alg)
///                .split("i", 16, "io", "ii", SplitTail::Perfect)
///                .reorder("io")
///                .unroll("ii")
///                .proc();
///
/// Loop-taking chainers accept either a bare iterator name ("ii", or
/// "ii #1" to pick the second match) which is expanded to the canonical
/// "for ii in _: _" pattern, or a full pattern string which is passed
/// through untouched. Statement chainers always take full patterns. Each
/// chainer resolves its pattern in the current procedure with
/// Cursor::find and calls the cursor-taking operator; the composites of
/// Procedures.h (hoist, tile2d, stage_vec, auto_divide) have chainers
/// too, named after their ops:: tokens and defined in Procedures.cpp.
///
/// Failed chains record the operator's error — including its structured
/// ScheduleErrorInfo payload, with the operator name and pattern filled in
/// when the operator left them empty — and every later chainer becomes a
/// no-op. The facade adds no rewriting power of its own.
class Schedule {
public:
  explicit Schedule(ProcRef P) : Cur(std::move(P)) {}
  explicit Schedule(Expected<ProcRef> P) {
    if (P)
      Cur = *P;
    else
      Err = P.error();
  }

  /// Expands a bare loop-iterator name (optionally with a "#k" match
  /// selector) into the canonical loop pattern; full patterns (anything
  /// already containing "for"/" in ") pass through unchanged.
  static std::string loopPattern(const std::string &Name) {
    if (Name.rfind("for ", 0) == 0 || Name.find(" in ") != std::string::npos)
      return Name;
    std::string::size_type Hash = Name.find('#');
    if (Hash == std::string::npos)
      return "for " + Name + " in _: _";
    std::string Base = Name.substr(0, Hash);
    while (!Base.empty() && Base.back() == ' ')
      Base.pop_back();
    return "for " + Base + " in _: _ " + Name.substr(Hash);
  }

  //--- Loop transformations -----------------------------------------------
  Schedule &split(const std::string &Loop, int64_t Factor,
                  const std::string &OuterName, const std::string &InnerName,
                  SplitTail Tail = SplitTail::Guard) {
    return stepAt(ops::Split, loopPattern(Loop), [&](const Cursor &C) {
      return splitLoop(C, Factor, OuterName, InnerName, Tail);
    });
  }
  Schedule &reorder(const std::string &Loop) {
    return stepAt(ops::Reorder, loopPattern(Loop), reorderLoops);
  }
  Schedule &unroll(const std::string &Loop) {
    return stepAt(ops::Unroll, loopPattern(Loop), unrollLoop);
  }
  Schedule &partition(const std::string &Loop, int64_t Cut) {
    return stepAt(ops::Partition, loopPattern(Loop),
                  [&](const Cursor &C) { return partitionLoop(C, Cut); });
  }
  Schedule &remove(const std::string &Loop) {
    return stepAt(ops::Remove, loopPattern(Loop), removeLoop);
  }
  Schedule &fuse(const std::string &Loop) {
    return stepAt(ops::Fuse, loopPattern(Loop), fuseLoops);
  }
  Schedule &liftIf(const std::string &IfPat) {
    return stepAt(ops::LiftIf, IfPat, scheduling::liftIf);
  }

  //--- Statement transformations ------------------------------------------
  Schedule &reorderStmts(const std::string &FirstPat) {
    return stepAt(ops::ReorderStmts, FirstPat, scheduling::reorderStmts);
  }
  Schedule &moveUp(const std::string &StmtPat) {
    return stepAt(ops::MoveUp, StmtPat, moveStmtUp);
  }
  Schedule &fission(const std::string &StmtPat) {
    return stepAt(ops::Fission, StmtPat, fissionAfter);
  }
  Schedule &liftAlloc(const std::string &AllocPat, unsigned Levels = 1) {
    return stepAt(ops::LiftAlloc, AllocPat, [&](const Cursor &C) {
      return scheduling::liftAlloc(C, Levels);
    });
  }
  Schedule &bindExpr(const std::string &StmtPat, const std::string &ExprPat,
                     const std::string &NewName) {
    return stepAt(ops::BindExpr, StmtPat, [&](const Cursor &C) {
      return scheduling::bindExpr(C, ExprPat, NewName);
    });
  }
  Schedule &guard(const std::string &StmtPat, const std::string &CondSrc) {
    return stepAt(ops::AddGuard, StmtPat,
                  [&](const Cursor &C) { return addGuard(C, CondSrc); });
  }
  Schedule &deletePass() {
    return step(ops::DeletePass, "", [&](const ProcRef &P) {
      return scheduling::deletePass(P);
    });
  }

  //--- Configuration state ------------------------------------------------
  Schedule &configWriteAt(const std::string &StmtPat,
                          const ir::ConfigRef &Cfg, const std::string &Field,
                          const std::string &ValueSrc) {
    return stepAt(ops::ConfigWrite, StmtPat, [&](const Cursor &C) {
      return scheduling::configWriteAt(C, Cfg, Field, ValueSrc);
    });
  }
  Schedule &configWriteRoot(const ir::ConfigRef &Cfg,
                            const std::string &Field,
                            const std::string &ValueSrc) {
    return step(ops::ConfigWriteRoot, "", [&](const ProcRef &P) {
      return scheduling::configWriteRoot(P, Cfg, Field, ValueSrc);
    });
  }
  Schedule &bindConfig(const std::string &StmtPat, const std::string &ExprPat,
                       const ir::ConfigRef &Cfg, const std::string &Field) {
    return stepAt(ops::BindConfig, StmtPat, [&](const Cursor &C) {
      return scheduling::bindConfig(C, ExprPat, Cfg, Field);
    });
  }

  //--- Memory & precision -------------------------------------------------
  Schedule &stage(const std::string &StmtPat, unsigned Count,
                  const std::string &WindowSrc, const std::string &NewName,
                  const std::string &Mem = "DRAM") {
    return stepAt(
        ops::Stage, StmtPat,
        [&](const Cursor &C) { return stageMem(C, WindowSrc, NewName, Mem); },
        Count);
  }
  Schedule &setMemory(const std::string &Name, const std::string &Mem) {
    return step(ops::SetMemory, Name, [&](const ProcRef &P) {
      return scheduling::setMemory(P, Name, Mem);
    });
  }
  Schedule &setPrecision(const std::string &Name, ir::ScalarKind Precision) {
    return step(ops::SetPrecision, Name, [&](const ProcRef &P) {
      return scheduling::setPrecision(P, Name, Precision);
    });
  }

  //--- Procedure-level ----------------------------------------------------
  Schedule &inlineCall(const std::string &CallPat) {
    return stepAt(ops::Inline, CallPat, scheduling::inlineCall);
  }
  Schedule &callEqv(const std::string &CallPat, const ProcRef &NewCallee) {
    return stepAt(ops::CallEqv, CallPat, [&](const Cursor &C) {
      return scheduling::callEqv(C, NewCallee);
    });
  }
  Schedule &replaceWith(const std::string &StmtPat, unsigned Count,
                        const ProcRef &Target) {
    return stepAt(
        ops::Replace, StmtPat,
        [&](const Cursor &C) { return scheduling::replaceWith(C, Target); },
        Count);
  }
  Schedule &rename(const std::string &NewName) {
    if (Err)
      return *this;
    Cur = renameProc(Cur, NewName);
    ++NumSteps;
    return *this;
  }
  Schedule &simplify() {
    return step(ops::Simplify, "", [&](const ProcRef &P) {
      return scheduling::simplify(P);
    });
  }

  //--- Composites (Procedures.h; defined in Procedures.cpp) --------------
  Schedule &hoistToTop(const std::string &StmtPat);
  Schedule &tile2d(const std::string &LoopI, int64_t TileI, int64_t TileJ,
                   const std::string &OuterI, const std::string &InnerI,
                   const std::string &OuterJ, const std::string &InnerJ,
                   SplitTail Tail = SplitTail::Perfect);
  Schedule &stageVec(const std::string &StmtPat, const std::string &WindowSrc,
                     const std::string &NewName, const std::string &Mem,
                     int64_t Lanes, const std::string &OuterName,
                     const std::string &InnerName);
  Schedule &autoDivide(const std::string &Loop, int64_t MaxFactor,
                       const std::string &OuterName,
                       const std::string &InnerName);

  /// Escape hatch: chains any ProcRef -> Expected<ProcRef> rewrite (a
  /// composite, an out-of-tree operator) with the same short-circuiting.
  template <typename Fn> Schedule &apply(Fn &&F, const char *Op = "apply") {
    return step(Op, "", std::forward<Fn>(F));
  }

  //--- Observers ----------------------------------------------------------
  bool ok() const { return !Err.has_value(); }
  explicit operator bool() const { return ok(); }
  /// Number of successful rewrite steps so far.
  unsigned steps() const { return NumSteps; }
  /// The first failure, if any.
  const Error &error() const {
    assert(Err && "error() on a successful Schedule");
    return *Err;
  }
  /// Final procedure or the first error — the chain as an Expected.
  Expected<ProcRef> proc() const {
    if (Err)
      return *Err;
    return Cur;
  }
  /// Final procedure, aborting on failure (for known-good schedules).
  ProcRef take(const char *What = "Schedule") {
    if (Err)
      fatalError(std::string(What) + " failed: " + Err->str());
    return std::move(Cur);
  }

private:
  template <typename Fn>
  Schedule &step(const char *Op, const std::string &Pattern, Fn &&F) {
    if (Err)
      return *this;
    Expected<ProcRef> R = F(Cur);
    if (!R) {
      Err = withStepContext(R.error(), Op, Pattern);
      return *this;
    }
    Cur = *R;
    ++NumSteps;
    return *this;
  }

  /// step() on the cursor Cursor::find resolves \p Pattern (\p Count
  /// statements wide) to in the current procedure.
  template <typename Fn>
  Schedule &stepAt(const char *Op, const std::string &Pattern, Fn &&F,
                   unsigned Count = 1) {
    return step(Op, Pattern, [&](const ProcRef &P) -> Expected<ProcRef> {
      auto C = Cursor::find(P, Pattern, Count);
      if (!C)
        return C.error();
      return F(*C);
    });
  }

  ProcRef Cur;
  std::optional<Error> Err;
  unsigned NumSteps = 0;
};

} // namespace scheduling
} // namespace exo

#endif // EXO_SCHEDULING_SCHEDULE_H
