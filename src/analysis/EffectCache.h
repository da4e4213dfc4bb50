//===- analysis/EffectCache.h - Per-statement analysis records -*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide table of per-statement-node records holding the two
/// facts the analysis wants to be stable for a node: whether its subtree
/// is state-invariant (Dataflow's identity fast path) and the pinned
/// iteration variable of a For (which keeps the solver's loop variables,
/// and so its queries, reproducible). Effect summaries themselves are not
/// memoized: extraction is a pure function of the statement and the flow
/// state (§5), and recomputing it is cheaper than keying and storing it.
///
/// A record pins its statement node so its address cannot be reused
/// while it keys the table; the table is capped, so a long-running
/// process keeps at most that many finished compiles' nodes alive.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_ANALYSIS_EFFECTCACHE_H
#define EXO_ANALYSIS_EFFECTCACHE_H

#include "analysis/Effects.h"

namespace exo {
namespace analysis {

/// Gauges of the record table. Hits and CrossCompileHits are always 0:
/// there is no summary memo to hit. They remain only because the
/// benchmark harness still reads them; drop them with its
/// analysis.effect_cache_hits / effect_cross_compile_hits metrics.
struct EffectCacheStats {
  uint64_t Hits = 0;
  uint64_t CrossCompileHits = 0;
  uint64_t Evictions = 0; ///< shard flushes on overflow
  size_t Size = 0;        ///< statement records currently held
  size_t LoopVars = 0;    ///< records holding a pinned loop variable
};

/// True iff extracting \p S can neither read nor write dataflow state: no
/// WriteConfig, WindowStmt, or Call occurs in its subtree. Memoized per
/// statement node; flowStmt uses it as an identity fast path, on a
/// statement and on each statement of a callee's body.
bool isStateInvariant(const ir::StmtRef &S);

/// The pinned loop-iteration solver variable for a For statement. Stable
/// across extractions of the same node (a deliberate alpha choice that
/// keeps summaries reproducible); distinct nodes get distinct variables.
smt::TermVar stableLoopVar(const ir::StmtRef &ForStmt);

EffectCacheStats effectCacheStats();
void clearEffectCache();

} // namespace analysis
} // namespace exo

#endif // EXO_ANALYSIS_EFFECTCACHE_H
