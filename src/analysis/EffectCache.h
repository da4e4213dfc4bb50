//===- analysis/EffectCache.h - Benchmark-harness stubs --------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stubs of a deleted statement-record table. The analysis keeps no
/// process-wide state (each AnalysisCtx owns its solver variables), so
/// there is nothing to clear and nothing to count. The benchmark harness
/// still calls both functions and reads the two fields; delete this
/// header with its analysis.effect_cache_hits /
/// effect_cross_compile_hits metrics.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_ANALYSIS_EFFECTCACHE_H
#define EXO_ANALYSIS_EFFECTCACHE_H

#include <cstdint>

namespace exo {
namespace analysis {

/// Always zero.
struct EffectCacheStats {
  uint64_t Hits = 0;
  uint64_t CrossCompileHits = 0;
};

inline EffectCacheStats effectCacheStats() { return {}; }
inline void clearEffectCache() {}

} // namespace analysis
} // namespace exo

#endif // EXO_ANALYSIS_EFFECTCACHE_H
