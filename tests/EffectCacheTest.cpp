//===- tests/EffectCacheTest.cpp - Effect memoization tests ----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the effect-extraction memo table (analysis/EffectCache.h):
/// warm extractions must be semantically identical to from-scratch
/// recomputations, summaries must follow rewrites (a scheduling operator
/// produces new statement nodes, so a transformed proc can never pick up
/// a stale summary), and the cache must stay out of the way for
/// statements whose summaries it cannot soundly share.
///
//===----------------------------------------------------------------------===//

#include "analysis/EffectCache.h"

#include "CursorAt.h"
#include "frontend/Parser.h"
#include "scheduling/Schedule.h"

#include <gtest/gtest.h>

#include <thread>

using namespace exo;
using namespace exo::analysis;
using namespace exo::ir;
using namespace exo::scheduling;

namespace {

const char *GemmSrc = R"(
@proc
def gemm(A: R[32, 32], B: R[32, 32], C: R[32, 32]):
    for i in seq(0, 32):
        for j in seq(0, 32):
            for k in seq(0, 32):
                C[i, j] += A[i, k] * B[k, j]
)";

ProcRef parse(const char *Src) {
  auto P = frontend::parseProc(Src);
  if (!P)
    fatalError("test parse failed: " + P.error().str());
  return *P;
}

/// Concrete probe points for a base of the given rank: boundary values,
/// interior values, and out-of-range values, mixed per axis so the probes
/// are not all on the diagonal. Rank 0 (config fields) gets one empty
/// probe.
std::vector<std::vector<int64_t>> probePoints(unsigned Rank) {
  static const int64_t Vals[] = {-1, 0, 3, 17, 31, 32};
  if (Rank == 0)
    return {{}};
  std::vector<std::vector<int64_t>> Out;
  for (unsigned S = 0; S < 8; ++S) {
    std::vector<int64_t> Pt;
    for (unsigned I = 0; I < Rank; ++I)
      Pt.push_back(Vals[(S + 2 * I + S * I) % 6]);
    Out.push_back(Pt);
  }
  return Out;
}

/// Semantic equality of two location sets: membership (both the M and the
/// D bound) coincides for every base at every probe point. This is the
/// right notion here because warm and cold summaries may differ
/// structurally (e.g. alpha-renamed loop variables) while denoting the
/// same sets. Probing at *concrete* points keeps each membership query
/// closed — a fully symbolic iff of two nested existential towers prenexes
/// into a ∀∃ alternation that exceeds the in-tree Cooper budget, whereas
/// closed queries are always decided.
bool setsEqual(AnalysisCtx &Ctx, const LocSetRef &A, const LocSetRef &B) {
  std::map<Sym, unsigned> Bases;
  A->collectBases(Bases);
  B->collectBases(Bases);
  for (auto &[Base, Rank] : Bases) {
    for (const std::vector<int64_t> &Coords : probePoints(Rank)) {
      std::vector<smt::TermRef> Pt;
      for (int64_t C : Coords)
        Pt.push_back(smt::intConst(C));
      TriBool MA = A->member(Base, Pt);
      TriBool MB = B->member(Base, Pt);
      if (Ctx.solver().checkValid(smt::iff(MA.May, MB.May)) !=
          smt::SolverResult::Yes)
        return false;
      if (Ctx.solver().checkValid(smt::iff(MA.Must, MB.Must)) !=
          smt::SolverResult::Yes)
        return false;
    }
  }
  return true;
}

bool effectsEqual(AnalysisCtx &Ctx, const EffectSets &A, const EffectSets &B) {
  return setsEqual(Ctx, A.RdG, B.RdG) && setsEqual(Ctx, A.WrG, B.WrG) &&
         setsEqual(Ctx, A.RdH, B.RdH) && setsEqual(Ctx, A.WrH, B.WrH) &&
         setsEqual(Ctx, A.RpH, B.RpH) && setsEqual(Ctx, A.Al, B.Al);
}

EffectSets extractProc(const ProcRef &P) {
  AnalysisCtx Ctx;
  FlowState State;
  return extractBlock(Ctx, State, P->body());
}

TEST(EffectCacheTest, WarmExtractionMatchesCold) {
  clearEffectCache();
  ProcRef P = parse(GemmSrc);

  EffectCacheStats Before = effectCacheStats();
  EffectSets ColdEff = extractProc(P);
  EffectSets WarmEff = extractProc(P);
  EffectCacheStats After = effectCacheStats();

  EXPECT_GT(After.Hits, Before.Hits) << "second extraction should hit";

  AnalysisCtx Ctx;
  EXPECT_TRUE(effectsEqual(Ctx, WarmEff, ColdEff));
}

TEST(EffectCacheTest, RewritesInvalidateByConstruction) {
  // Prime the cache on the original proc, transform it, and check that the
  // warm extraction of the transformed proc equals a fully-cold
  // recomputation — i.e. no stale summary of the original shape leaks into
  // the rewritten one.
  clearEffectCache();
  ProcRef P = parse(GemmSrc);
  (void)extractProc(P); // prime with the original proc's summaries

  ProcRef Q = *splitLoop(at(P, "for i in _: _"), 8, "io", "ii",
                         SplitTail::Perfect);
  Q = *reorderLoops(at(Q, "for j in _: _"));

  EffectSets WarmEff = extractProc(Q);

  clearEffectCache();
  EffectSets FreshEff = extractProc(Q);

  AnalysisCtx Ctx;
  EXPECT_TRUE(effectsEqual(Ctx, WarmEff, FreshEff));

  // And the transformed effects must equal the original's: split+reorder
  // only rearranges the iteration space.
  EXPECT_TRUE(effectsEqual(Ctx, FreshEff, extractProc(P)));
}

/// A proc with a config write in front of a data write (the config class
/// is registered through the shared ParseEnv).
ProcRef parseConfigSetter() {
  frontend::ParseEnv Env;
  auto M = frontend::parseModule(R"(
@config
class CacheCfg:
    s : stride
)",
                                 Env);
  if (!M)
    fatalError("test config parse failed: " + M.error().str());
  auto P = frontend::parseProc(R"(
@proc
def setter(x: R[8, 8], y: R[8]):
    CacheCfg.s = stride(x, 0)
    y[0] = 1.0
)",
                               Env);
  if (!P)
    fatalError("test parse failed: " + P.error().str());
  return *P;
}

TEST(EffectCacheTest, ConfigWritesAreUncacheable) {
  // A subtree containing a WriteConfig mutates the flow state; it must
  // never be served from the cache (its record stays line-less).
  clearEffectCache();
  ProcRef P = parseConfigSetter();
  EffectCacheStats Before = effectCacheStats();
  (void)extractProc(P);
  (void)extractProc(P);
  EffectCacheStats After = effectCacheStats();
  EXPECT_GT(After.Uncacheable, Before.Uncacheable);
}

TEST(EffectCacheTest, UncacheableStatementsStayWithinTheTableCap) {
  // Every statement the cache looks at gets a record that pins its node,
  // whether or not a summary is ever stored for it. A stream of fresh
  // config writes (never state-invariant, so never stored) must still
  // leave the table within its cap of 8192 records.
  clearEffectCache();
  frontend::ParseEnv Env;
  auto M = frontend::parseModule(R"(
@config
class BoundCfg:
    s : stride
)",
                                 Env);
  ASSERT_TRUE(bool(M)) << M.error().str();
  std::string Src = "@proc\ndef writes(x: R[8, 8]):\n";
  for (unsigned I = 0; I < 64; ++I)
    Src += "    BoundCfg.s = stride(x, 0)\n";
  constexpr unsigned NumProcs = 160; // 10240 statements
  for (unsigned I = 0; I < NumProcs; ++I) {
    auto P = frontend::parseProc(Src, Env);
    ASSERT_TRUE(bool(P)) << P.error().str();
    (void)extractProc(*P);
  }
  EffectCacheStats S = effectCacheStats();
  EXPECT_GT(S.Uncacheable, 0u);
  EXPECT_LE(S.Size, 8192u);
}

TEST(EffectCacheTest, PinnedLoopVarsStayWithinTheTableCap) {
  // Each For node analyzed pins one stable loop variable. A daemon sees
  // an unbounded stream of fresh nodes; the set of pinned ids must be
  // flushed with the records that pinned them, so it stays within the
  // record cap of 8192.
  clearEffectCache();
  Sym Iter = Sym::fresh("i");
  for (unsigned I = 0; I < 9000; ++I)
    (void)stableLoopVar(Stmt::forStmt(Iter, Expr::constInt(0),
                                      Expr::constInt(4), {Stmt::pass()}));
  EffectCacheStats S = effectCacheStats();
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_LE(S.Size, 8192u);
  EXPECT_LE(S.LoopVars, 8192u);
  clearEffectCache();
  EXPECT_EQ(effectCacheStats().LoopVars, 0u);
}

TEST(EffectCacheTest, ParallelWarmExtractionsMatchCold) {
  // N threads extract the same proc concurrently through the shared
  // sharded cache; every thread's summary must be semantically identical
  // to a from-scratch serial extraction.
  clearEffectCache();
  ProcRef P = parse(GemmSrc);
  EffectSets ColdEff = extractProc(P);

  constexpr unsigned NumThreads = 4;
  std::vector<EffectSets> PerThread(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&PerThread, &P, T] {
      for (unsigned R = 0; R < 8; ++R)
        PerThread[T] = extractProc(P);
    });
  for (std::thread &T : Threads)
    T.join();

  AnalysisCtx Ctx;
  for (unsigned T = 0; T < NumThreads; ++T)
    EXPECT_TRUE(effectsEqual(Ctx, PerThread[T], ColdEff)) << "thread " << T;
}

TEST(EffectCacheTest, CanonicalIndexSharesAcrossParses) {
  // Two parses of the same source mint disjoint Syms and statement nodes,
  // so the address-keyed table cannot help the second one. The canonical
  // content index must: the second extraction rehydrates the first's loop
  // summaries (CrossCompileHits), and the rehydrated effects are
  // semantically identical to what a cold extraction would produce.
  clearEffectCache();
  ProcRef P1 = parse(GemmSrc);
  (void)extractProc(P1);
  EffectCacheStats Mid = effectCacheStats();
  EXPECT_GT(Mid.CanonIndexed, 0u) << "loop summaries should be indexed";

  ProcRef P2 = parse(GemmSrc);
  EffectSets Eff2 = extractProc(P2);
  EffectCacheStats After = effectCacheStats();

  EXPECT_GT(After.CrossCompileHits, Mid.CrossCompileHits)
      << "second parse should rehydrate the first parse's summaries";

  // The rehydrated summary speaks about P2's symbols (P1's effects live
  // over different Syms, so they are alpha-equivalent, not comparable);
  // the soundness bar is equality with a fully-cold extraction of P2.
  clearEffectCache();
  EffectSets Fresh = extractProc(P2);
  AnalysisCtx Ctx;
  EXPECT_TRUE(effectsEqual(Ctx, Eff2, Fresh));
}

TEST(EffectCacheTest, CanonicalIndexDistinguishesDifferentKernels) {
  // A kernel that differs only in an index expression must not alias the
  // original in the canonical index.
  const char *TransposedSrc = R"(
@proc
def gemm(A: R[32, 32], B: R[32, 32], C: R[32, 32]):
    for i in seq(0, 32):
        for j in seq(0, 32):
            for k in seq(0, 32):
                C[i, j] += A[k, i] * B[k, j]
)";
  clearEffectCache();
  ProcRef P = parse(GemmSrc);
  (void)extractProc(P);

  ProcRef T = parse(TransposedSrc);
  EffectCacheStats Before = effectCacheStats();
  EffectSets TEff = extractProc(T);
  EffectCacheStats After = effectCacheStats();
  EXPECT_EQ(After.CrossCompileHits, Before.CrossCompileHits)
      << "a different kernel must not hit the canonical index";

  clearEffectCache();
  EffectSets Fresh = extractProc(T);
  AnalysisCtx Ctx;
  EXPECT_TRUE(effectsEqual(Ctx, TEff, Fresh));
}

TEST(EffectCacheTest, StateInvariancePredicate) {
  ProcRef P = parse(GemmSrc);
  EXPECT_TRUE(isStateInvariant(P->body()[0]));
  ProcRef W = parseConfigSetter();
  EXPECT_FALSE(isStateInvariant(W->body()[0]));
  EXPECT_TRUE(isStateInvariant(W->body()[1]));
}

} // namespace
