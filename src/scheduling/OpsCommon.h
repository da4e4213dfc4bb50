//===- scheduling/OpsCommon.h - Shared op helpers (private) ----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal helpers shared by the scheduling operator implementations.
/// Not installed; include only from scheduling/*.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SCHEDULING_OPSCOMMON_H
#define EXO_SCHEDULING_OPSCOMMON_H

#include "analysis/Checks.h"
#include "scheduling/Schedule.h"

#include <optional>

namespace exo {
namespace scheduling {

/// Builds the derived procedure: same signature, new body, provenance
/// link to \p Old with the given configuration delta. This overload is
/// for whole-body rewrites (simplify, set_precision, ...): the recorded
/// dirty region says "assume nothing is shared".
ir::ProcRef deriveProc(const ir::ProcRef &Old, ir::Block NewBody,
                       std::set<ir::Sym> Delta = {});

/// Cursor-carrying overload: the rewrite replaced the \p C selection of
/// \p Old's body with \p NewCount statements (NewBody is the result of
/// replaceRange at that cursor). The derived proc records the precise
/// DirtyRegion — spine path plus replaced range — which cursor
/// forwarding reads to map cursors across the rewrite, and which debug
/// builds validate against the tree in the well-formedness pass.
ir::ProcRef deriveProc(const ir::ProcRef &Old, ir::Block NewBody,
                       const StmtCursor &C, unsigned NewCount,
                       std::set<ir::Sym> Delta = {});

/// The deduplicated effect-extraction preamble the analysis-backed
/// operators used to copy-paste: one AnalysisCtx plus the lazily-derived
/// one-holed context of §6.1 for a resolved cursor. Construct it after
/// the cursor's selection is checked. Deriving the context flows every
/// earlier statement and probes every enclosing loop, so an operator first
/// settles what it can syntactically (the pre-checks of analysis/Checks.h,
/// which read only windowBases()) and calls info() only on the paths that
/// still need the solver. derive() splices a replacement at the cursor and
/// stamps the dirty region.
class OpContext {
public:
  OpContext(const ir::ProcRef &P, StmtCursor Cursor)
      : P(P), C(std::move(Cursor)) {}

  const StmtCursor &cursor() const { return C; }
  std::vector<ir::StmtRef> stmts() const {
    return analysis::selectedStmts(*P, C);
  }
  ir::StmtRef stmt() const { return stmts()[0]; }

  analysis::AnalysisCtx Ctx;
  /// The window bases in scope before the selection: all the footprint
  /// pre-check needs, read off the cursor's spine without deriving info().
  analysis::WindowBases windowBases() const {
    return analysis::windowBasesAt(*P, C);
  }
  const analysis::ContextInfo &info() {
    if (!Info)
      Info = analysis::computeContext(Ctx, *P, C);
    return *Info;
  }

  /// deriveProc(replaceRange(...)) with the dirty region recorded.
  ir::ProcRef derive(const std::vector<ir::StmtRef> &Replacement,
                     std::set<ir::Sym> Delta = {}) const {
    return deriveProc(P, analysis::replaceRange(P->body(), C, Replacement),
                      C, unsigned(Replacement.size()), std::move(Delta));
  }

private:
  ir::ProcRef P;
  StmtCursor C;
  std::optional<analysis::ContextInfo> Info;
};

/// The name of the scheduling operator currently executing on this
/// thread ("" outside any operator). finishDerive stamps it into the
/// derived proc's DirtyRegion so cursor forwarding can say *which*
/// rewrite invalidated a handle.
const char *currentOpName();

/// RAII scope naming the operator for the duration of its body. Every
/// primitive installs one at entry; composites inherit the innermost
/// primitive's name, which is what the forwarding diagnostics want.
class ScopedOpName {
public:
  explicit ScopedOpName(const char *Name);
  ~ScopedOpName();
  ScopedOpName(const ScopedOpName &) = delete;
  ScopedOpName &operator=(const ScopedOpName &) = delete;

private:
  const char *Prev;
};

/// Recursively simplifies index arithmetic (constant folding, neutral
/// elements) — shared by simplify() and the ops that synthesize indices.
ir::ExprRef simplifyExpr(const ir::ExprRef &E);

/// The selection of \p C in its anchor procedure. A null cursor, a gap,
/// and — unless \p Multi — a selection of more than one statement are
/// rejected with a Pattern error whose ScheduleErrorInfo names the running
/// operator and has Loc = C.str().
Expected<StmtCursor> selection(const Cursor &C, bool Multi = false);

/// selection() of exactly one statement of kind \p K (\p What: "a loop").
Expected<StmtCursor> selectionOfKind(const Cursor &C, ir::StmtKind K,
                                     const char *What);

/// Discharges a safety condition under the premise. On success returns
/// nullopt; on failure, a Safety error whose structured payload records
/// the running operator (currentOpName), the location it was working on,
/// and the solver's verdict (No vs. Unknown-budget vs.
/// Unknown-structural). The pattern, if any, is the caller's to fill in.
inline std::optional<Error>
checkProved(analysis::AnalysisCtx &Ctx, const analysis::TriBool &Premise,
            const smt::TermRef &Cond, std::string Loc, std::string Msg) {
  ScheduleErrorInfo::Verdict V =
      analysis::dischargeUnderPremise(Ctx, Premise, Cond);
  if (V == ScheduleErrorInfo::Verdict::Yes)
    return std::nullopt;
  ScheduleErrorInfo Info;
  Info.Op = currentOpName();
  Info.Loc = std::move(Loc);
  Info.SolverVerdict = V;
  return makeScheduleError(Error::Kind::Safety, std::move(Msg),
                           std::move(Info));
}

} // namespace scheduling
} // namespace exo

#endif // EXO_SCHEDULING_OPSCOMMON_H
