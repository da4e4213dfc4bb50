//===- analysis/EffectCache.cpp --------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/EffectCache.h"

#include <cassert>
#include <mutex>
#include <unordered_map>

using namespace exo;
using namespace exo::analysis;
using namespace exo::ir;

namespace {

/// Everything the table knows about one statement node. Pin keeps the
/// node alive so its address cannot be reused while it keys the table.
struct StmtRecord {
  StmtRef Pin;
  int Invariant = -1; // -1 not yet computed, else 0/1
  bool HaveLoopVar = false;
  smt::TermVar LoopVar{0, "", smt::Sort::Int};
};

/// The table is sharded by statement-node address: concurrent compile
/// sessions analyze disjoint procedures, so their statement nodes land in
/// different shards and proceed without lock contention.
struct CacheShard {
  std::mutex M;
  std::unordered_map<const Stmt *, StmtRecord> Table;
  uint64_t Evictions = 0;
};

struct EffectCache {
  static constexpr size_t NumShards = 8; // power of two
  CacheShard Shards[NumShards];

  // 1024 records in all: a record pins its statement, so the cap bounds
  // what finished compiles keep alive in a long-running process. It is the
  // smallest cap measured that left every benchmark workload's throughput
  // unchanged (DESIGN.md, "Performance").
  static constexpr size_t MaxEntriesPerShard = (1u << 10) / NumShards;

  CacheShard &shardFor(const Stmt *S) {
    size_t H = std::hash<const void *>()(S);
    return Shards[(H >> 4) & (NumShards - 1)];
  }

  static EffectCache &get() {
    static EffectCache C;
    return C;
  }
};

/// State-invariance walk; only If/For have statement children, and the
/// three state-touching kinds poison the whole subtree.
bool computeStateInvariant(const StmtRef &S) {
  switch (S->kind()) {
  case StmtKind::WriteConfig:
  case StmtKind::WindowStmt:
  case StmtKind::Call:
    return false;
  case StmtKind::If:
    for (auto &C : S->body())
      if (!computeStateInvariant(C))
        return false;
    for (auto &C : S->orelse())
      if (!computeStateInvariant(C))
        return false;
    return true;
  case StmtKind::For:
    for (auto &C : S->body())
      if (!computeStateInvariant(C))
        return false;
    return true;
  default:
    return true;
  }
}

/// The record of \p S, created if absent; caller holds the shard mutex.
/// Every record pins its statement, so a full shard is flushed before a
/// new record goes in.
StmtRecord &recordFor(CacheShard &C, const StmtRef &S) {
  auto It = C.Table.find(S.get());
  if (It != C.Table.end())
    return It->second;
  if (C.Table.size() >= EffectCache::MaxEntriesPerShard) {
    C.Table.clear();
    ++C.Evictions;
  }
  StmtRecord &R = C.Table[S.get()];
  R.Pin = S;
  return R;
}

} // namespace

bool exo::analysis::isStateInvariant(const StmtRef &S) {
  CacheShard &C = EffectCache::get().shardFor(S.get());
  std::lock_guard<std::mutex> Lock(C.M);
  StmtRecord &R = recordFor(C, S);
  if (R.Invariant < 0)
    R.Invariant = computeStateInvariant(S) ? 1 : 0;
  return R.Invariant == 1;
}

smt::TermVar exo::analysis::stableLoopVar(const StmtRef &ForStmt) {
  assert(ForStmt->kind() == StmtKind::For && "not a For statement");
  CacheShard &C = EffectCache::get().shardFor(ForStmt.get());
  std::lock_guard<std::mutex> Lock(C.M);
  StmtRecord &R = recordFor(C, ForStmt);
  if (!R.HaveLoopVar) {
    R.LoopVar = smt::freshVar(ForStmt->name().name(), smt::Sort::Int);
    R.HaveLoopVar = true;
  }
  return R.LoopVar;
}

EffectCacheStats exo::analysis::effectCacheStats() {
  EffectCacheStats Sum;
  for (CacheShard &C : EffectCache::get().Shards) {
    std::lock_guard<std::mutex> Lock(C.M);
    Sum.Evictions += C.Evictions;
    Sum.Size += C.Table.size();
    for (const auto &Entry : C.Table)
      Sum.LoopVars += Entry.second.HaveLoopVar;
  }
  return Sum;
}

void exo::analysis::clearEffectCache() {
  for (CacheShard &C : EffectCache::get().Shards) {
    std::lock_guard<std::mutex> Lock(C.M);
    C.Table.clear();
  }
}
