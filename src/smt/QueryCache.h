//===- smt/QueryCache.h - Benchmark-only stub ------------------*- C++ -*-===//
//
// The solver keeps no verdict memo: Solver::decide always preprocesses and
// then runs scoped Cooper elimination. These zero counters only keep the
// benchmark's smt.query_cache_* metrics building; the stub goes when it
// drops them.
//
//===----------------------------------------------------------------------===//
#ifndef EXO_SMT_QUERYCACHE_H
#define EXO_SMT_QUERYCACHE_H
#include <cstdint>
namespace exo {
namespace smt {
struct QueryCacheStats { uint64_t Hits = 0, Misses = 0, CrossJobHits = 0; };
inline QueryCacheStats solverQueryCacheStats() { return {}; }
inline void clearSolverQueryCache() {}
} // namespace smt
} // namespace exo
#endif // EXO_SMT_QUERYCACHE_H
