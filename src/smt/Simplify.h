//===- smt/Simplify.h - Query preprocessing pipeline -----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staged query preprocessing pipeline that runs before Cooper
/// (DESIGN.md, "Solver preprocessing"). Every stage is an equivalence-
/// preserving rewrite over hash-consed terms, so simplification may turn
/// an Unknown verdict into Yes/No (by making the query cheap enough to
/// decide) but can never flip Yes and No.
///
/// Stages, each individually toggleable for ablation:
///
///   1. Constant folding + literal normalization: atoms are rewritten into
///      a canonical gcd-normalized `linear <= 0` / `linear == 0` shape so
///      that syntactically different spellings of the same literal
///      hash-cons to one node and And/Or dedup can absorb them; ground
///      atoms evaluate outright.
///   2. Equality substitution (the one-point rule): a conjunct `x = e`
///      under `exists x`, or an assumed `x = e` under `forall x`
///      (premise of an implication / negated disjunct), eliminates the
///      quantifier by Gaussian-style substitution before Cooper ever
///      sees it.
///   3. Interval propagation: conjunctive single-variable bounds flow
///      through the formula; ground and single-variable literals whose
///      value interval is conclusive are decided and dead branches
///      pruned.
///   4. Cheap-variable-first elimination ordering in Cooper (smallest
///      coefficient LCM first within a same-quantifier chain) with early
///      exit once the chain's body is ground. Lives in Cooper.cpp
///      (eliminateBlock); only the toggle is here.
///
/// The effect-analysis disjointness fast path (analysis/Checks.cpp) shares
/// this config (EffectFastPath) and this file's interval arithmetic.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SMT_SIMPLIFY_H
#define EXO_SMT_SIMPLIFY_H

#include "smt/Linear.h"
#include "smt/Term.h"

#include <map>
#include <optional>

namespace exo {
namespace smt {

/// Process-wide stage toggles (ablation benchmarks flip them; the query
/// hot path reads them as relaxed atomics). Defaults: everything on.
struct SimplifyConfig {
  bool ConstFold = true;      ///< stage 1: folding + literal normalization
  bool EqSubst = true;        ///< stage 2: one-point quantifier elimination
  bool IntervalProp = true;   ///< stage 3: bounds propagation
  bool CheapVarOrder = true;  ///< stage 4: Cooper ordering + early exit
  bool EffectFastPath = true; ///< analysis-side disjointness pre-check
};

SimplifyConfig simplifyConfig();
void setSimplifyConfig(const SimplifyConfig &C);
/// Convenience: all five toggles at once.
void setSimplifyEnabled(bool Enabled);

/// Result of preprocessing one closed query. Per-stage Hit flags say
/// whether the stage (when enabled) changed the term; Solver::decide turns
/// them into the Stats counters.
struct SimplifyOutcome {
  TermRef Simplified;
  bool ConstFoldHit = false;
  bool EqSubstHit = false;
  bool IntervalHit = false;

  /// The pipeline reduced the query to a constant: no Cooper elimination,
  /// no literal budget consumed.
  bool decided() const {
    return Simplified && Simplified->kind() == TermKind::BoolConst;
  }
};

/// Runs the enabled term-level stages (1..3) on a closed formula, in
/// order. Equivalence-preserving; with every stage disabled this returns
/// the input unchanged.
SimplifyOutcome simplifyQuery(const TermRef &Closed);

//===----------------------------------------------------------------------===//
// Interval arithmetic, shared with the effect-analysis fast path.
//===----------------------------------------------------------------------===//

/// An integer interval with optional (= unbounded) endpoints. Saturating:
/// arithmetic that would overflow int64 widens the affected endpoint to
/// unbounded rather than wrapping.
struct ValueInterval {
  std::optional<int64_t> Lo, Hi;

  bool bounded() const { return Lo.has_value() && Hi.has_value(); }
  /// Contradictory bounds (no integer satisfies them).
  bool empty() const { return Lo && Hi && *Lo > *Hi; }

  bool operator==(const ValueInterval &O) const {
    return Lo == O.Lo && Hi == O.Hi;
  }
  bool operator!=(const ValueInterval &O) const { return !(*this == O); }
};

/// Variable id -> interval constraint.
using IntervalEnv = std::map<unsigned, ValueInterval>;

/// Collects single-variable bound facts that hold in every model of \p F
/// (conjunctive positions only: And descends, Not(Le/Lt) dualizes,
/// anything under Or/Implies is skipped). Facts are intersected into
/// \p Env.
void collectIntervalFacts(const TermRef &F, IntervalEnv &Env);

/// The value interval of a linear form when each variable ranges over its
/// \p Env interval (absent vars are unbounded). Exact on bounded inputs,
/// saturating to unbounded on overflow. Returns an empty() interval only
/// if some involved variable's env interval is itself empty.
ValueInterval intervalOfLinear(const LinearForm &L, const IntervalEnv &Env);

} // namespace smt
} // namespace exo

#endif // EXO_SMT_SIMPLIFY_H
