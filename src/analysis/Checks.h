//===- analysis/Checks.h - Rewrite safety predicates -----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The basic program-rewrite predicates of §5.7:
///
///   Commutes a1 a2 — s1;s2 ↝ s2;s1 is safe: writes of each effect are
///   disjoint from everything the other touches, and reductions of each
///   are disjoint from the other's reads (reductions commute with each
///   other on the same location — that is the special exception).
///
///   Shadows a1 a2 — s1;s2 ↝ s2 is safe: everything s1 might modify is
///   definitely overwritten by s2 without being read first. This is where
///   the two-sided (ternary) location sets earn their keep: "definitely
///   overwritten" needs a lower bound on the write set.
///
/// The predicates return formulas; callers discharge them under the
/// current path condition via provedUnderPremise.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_ANALYSIS_CHECKS_H
#define EXO_ANALYSIS_CHECKS_H

#include "analysis/Effects.h"
#include "support/Error.h"

namespace exo {
namespace analysis {

/// Interval-arithmetic disjointness pre-check (DESIGN.md, "Solver
/// preprocessing"). Handles the dominant access-pair shape — affine
/// indices with constant strides/offsets under BigUnion loop binders
/// bounded by Filter conditions — and returns true only when every
/// cross pair of accesses to a shared buffer is separated in some
/// dimension by pure interval reasoning. A true return is a sound
/// "definitely disjoint"; false means "use the solver", never "no".
bool disjointFastPath(const LocSetRef &A, const LocSetRef &B);

/// D(Commutes a1 a2) as a classical formula (Def 5.6).
smt::TermRef commutesCond(const EffectSets &A, const EffectSets &B);

/// Syntactic pre-check for Commutes over the *bases* of both sides (DESIGN.md,
/// "Footprint pre-check"): heap buffers resolved through \p State's window
/// aliases and the blocks' own window statements, plus configuration
/// fields, looking through callee bodies. Returns true only when no base
/// that one block may write or reduce is read, written or reduced by the
/// other; D(Commutes) of their extracted effects is then valid. False means
/// "extract the effects and ask the solver", never "they do not commute".
bool footprintsCommute(const FlowState &State, const ir::Block &A,
                       const ir::Block &B);

/// D(Shadows a1 a2) as a classical formula (Def 5.7). Conservative
/// extension: locations modified by a1 must not be reduced by a2 either
/// (a reduction reads its destination).
smt::TermRef shadowsCond(const EffectSets &A, const EffectSets &B);

/// Discharges: valid(Premise.May ⟹ Cond). Returns true only on a
/// definite Yes (Unknown fails safe).
bool provedUnderPremise(AnalysisCtx &Ctx, const TriBool &Premise,
                        const smt::TermRef &Cond);

/// Like provedUnderPremise, but reports *what* the solver concluded so
/// scheduling operators can attach it to their error payload: No means the
/// condition was refuted, UnknownBudget that a larger literal budget might
/// still prove it, UnknownStructural that the formula is outside the
/// decidable fragment. Only Yes admits the rewrite.
ScheduleErrorInfo::Verdict
dischargeUnderPremise(AnalysisCtx &Ctx, const TriBool &Premise,
                      const smt::TermRef &Cond);

} // namespace analysis
} // namespace exo

#endif // EXO_ANALYSIS_CHECKS_H
