//===- analysis/EffectCache.h - Effect extraction memoization --*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoization of per-statement effect summaries across scheduling
/// operators. A statement is cached only when its summary is a pure
/// function of observable inputs:
///
///   - its subtree is *state-invariant* (no WriteConfig, WindowStmt, or
///     Call anywhere inside), so extraction neither reads hidden state via
///     the callee table nor mutates the FlowState;
///   - none of its free symbols is window-aliased in the current state
///     (aliases change how locations resolve);
///   - the extracted summary mentions no solver variable minted *during*
///     the extraction other than the stable per-symbol/per-loop variables —
///     a summary leaking per-extraction unknowns must not be shared, or
///     independent extractions (e.g. the two body copies of removeLoop's
///     idempotence check) would become spuriously correlated.
///
/// The fingerprint of a lookup is the statement's identity (hash-consed
/// sub-IR: the pinned Stmt node address) plus, for each free symbol and
/// config field of the statement, the effect-environment entry it sees.
/// Rewrites produce new Stmt nodes, so structural change invalidates by
/// construction; unchanged subtrees keep their node and keep their cache
/// line.
///
/// On top of the address-keyed table sits a *canonical content index* for
/// loop/branch subtrees: the statement and its environment slice are
/// serialized with symbols and solver variables alpha-renamed to
/// first-occurrence indices, so a recompile of the same kernel — which
/// mints entirely fresh Syms and solver variables — maps to the same key.
/// A canonical hit rehydrates the stored summary by substituting the
/// current compile's variables and symbols positionally; byte-equal keys
/// guarantee the substitution is a bijective alpha-renaming, under which
/// extraction is deterministic, so the rehydrated summary is exactly what
/// a cold extraction would produce. This is what makes effect analysis
/// amortize *across* compiles (BatchDriver, exocc-serve, exocc-tune), not
/// just within one.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_ANALYSIS_EFFECTCACHE_H
#define EXO_ANALYSIS_EFFECTCACHE_H

#include "analysis/Effects.h"

namespace exo {
namespace analysis {

/// Counters for the process-wide effect cache.
struct EffectCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Uncacheable = 0; ///< extractions that could not be stored
  uint64_t Evictions = 0;   ///< shard flushes on overflow
  /// Summaries served by rehydrating a canonically-equal statement's
  /// record from a previous compile (subset of Hits). The cross-compile
  /// amortization gauge.
  uint64_t CrossCompileHits = 0;
  uint64_t CanonIndexed = 0;     ///< canonical records stored
  uint64_t CanonUnshareable = 0; ///< summaries not canonically indexable
  size_t Size = 0;               ///< statements currently cached
  size_t CanonSize = 0;          ///< canonical records currently stored
  size_t LoopVars = 0;           ///< pinned loop variables currently known
};

/// True iff extracting \p S can neither read nor write dataflow state: no
/// WriteConfig, WindowStmt, or Call occurs in its subtree. Memoized per
/// statement node; also used by flowStmt as an identity fast path, on a
/// statement and on each statement of a callee's body.
bool isStateInvariant(const ir::StmtRef &S);

/// The pinned loop-iteration solver variable for a For statement. Stable
/// across extractions of the same node (a deliberate alpha choice that
/// keeps summaries reproducible); distinct nodes get distinct variables.
smt::TermVar stableLoopVar(const ir::StmtRef &ForStmt);

/// Looks up a summary for \p S under \p State; returns true on a hit.
/// Tries the address-keyed table first, then the canonical content index
/// (which needs \p Ctx to resolve per-symbol and stride variables of the
/// current compile during rehydration).
bool effectCacheLookup(AnalysisCtx &Ctx, const ir::StmtRef &S,
                       const FlowState &State, EffectSets &Out);

/// Stores \p Eff for \p S under \p State. \p FreshMark must be the
/// freshVarMark() taken immediately before the extraction; it is how leaks
/// of per-extraction variables are detected and rejected.
void effectCacheInsert(AnalysisCtx &Ctx, const ir::StmtRef &S,
                       const FlowState &State, unsigned FreshMark,
                       const EffectSets &Eff);

EffectCacheStats effectCacheStats();
void clearEffectCache();

} // namespace analysis
} // namespace exo

#endif // EXO_ANALYSIS_EFFECTCACHE_H
