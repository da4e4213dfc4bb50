//===- tests/EffectCacheTest.cpp - Extraction determinism tests -*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests that effect extraction is a function of the statement and the
/// flow state alone: a repeated extraction, in a fresh AnalysisCtx or on
/// another thread, is semantically identical to the first, summaries
/// follow rewrites (a scheduling operator produces new statement nodes),
/// and each AnalysisCtx owns the solver variables it poses queries over.
///
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"
#include "analysis/Effects.h"

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
/// right notion here because summaries from different contexts may differ
/// structurally (each context mints its own loop variables) while
/// denoting the same sets. Probing at *concrete* points keeps each
/// membership query closed — a fully symbolic iff of two nested
/// existential towers prenexes into a ∀∃ alternation that exceeds the
/// in-tree Cooper budget, whereas closed queries are always decided.
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
  ProcRef P = parse(GemmSrc);

  EffectSets ColdEff = extractProc(P);
  EffectSets WarmEff = extractProc(P);

  AnalysisCtx Ctx;
  EXPECT_TRUE(effectsEqual(Ctx, WarmEff, ColdEff));
}

TEST(EffectCacheTest, RewritesInvalidateByConstruction) {
  // Extract the original proc, transform it, and check that extracting
  // the transformed proc after it equals a second, independent extraction
  // — i.e. nothing of the original shape leaks into the rewritten one.
  ProcRef P = parse(GemmSrc);
  (void)extractProc(P);

  ProcRef Q = *splitLoop(at(P, "for i in _: _"), 8, "io", "ii",
                         SplitTail::Perfect);
  Q = *reorderLoops(at(Q, "for j in _: _"));

  EffectSets WarmEff = extractProc(Q);
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
  // A subtree containing a WriteConfig mutates the flow state, so its
  // summary depends on the state it is extracted under; extracting the
  // same proc twice must still give the same effects.
  ProcRef P = parseConfigSetter();
  EffectSets First = extractProc(P);
  EffectSets Second = extractProc(P);
  AnalysisCtx Ctx;
  EXPECT_TRUE(effectsEqual(Ctx, First, Second));
}

TEST(EffectCacheTest, ParallelWarmExtractionsMatchCold) {
  // N threads extract the same proc concurrently, each in its own
  // contexts; every thread's summary must be semantically identical to a
  // serial extraction.
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

TEST(EffectCacheTest, StateInvariancePredicate) {
  ProcRef P = parse(GemmSrc);
  EXPECT_TRUE(isStateInvariant(P->body()[0]));
  ProcRef W = parseConfigSetter();
  EXPECT_FALSE(isStateInvariant(W->body()[0]));
  EXPECT_TRUE(isStateInvariant(W->body()[1]));
}

TEST(AnalysisCtxTest, SameForNodeKeepsItsLoopVar) {
  ProcRef P = parse(GemmSrc);
  const StmtRef &For = P->body()[0];
  AnalysisCtx Ctx;
  smt::TermVar X = Ctx.loopVar(For);
  FlowState State;
  (void)extractBlock(Ctx, State, P->body());
  EXPECT_EQ(Ctx.loopVar(For).Id, X.Id);
}

TEST(AnalysisCtxTest, ForNodesSharingAnIteratorGetDistinctLoopVars) {
  // A rewrite rebuilds a loop under its old iterator Sym: after reorder,
  // the old i-loop and the new one are two nodes binding one Sym, and a
  // scheduling op's context may extract both. Each node quantifies over
  // its own variable.
  ProcRef P = parse(GemmSrc);
  ProcRef Q = *reorderLoops(at(P, "for i in _: _"));
  const StmtRef &Old = P->body()[0], &New = Q->body()[0]->body()[0];
  ASSERT_EQ(Old->name(), New->name());
  AnalysisCtx Ctx;
  smt::TermVar XOld = Ctx.loopVar(Old);
  FlowState State;
  (void)extractBlock(Ctx, State, Q->body());
  EXPECT_NE(Ctx.loopVar(New).Id, XOld.Id);
  EXPECT_EQ(Ctx.loopVar(Old).Id, XOld.Id);
}

TEST(AnalysisCtxTest, ContextsShareNoSolverVariables) {
  ProcRef P = parse(GemmSrc);
  Sym Buf = P->args()[0].Name;
  AnalysisCtx First, Second;
  smt::TermVar V1 = First.varFor(Buf);
  smt::TermRef S1 = First.strideValue(Buf, 0);
  smt::TermVar L1 = First.loopVar(P->body()[0]);
  ASSERT_EQ(First.symFor(V1.Id), Buf);
  ASSERT_TRUE(First.strideFor(S1->var().Id));

  EXPECT_NE(Second.varFor(Buf).Id, V1.Id);
  EXPECT_NE(Second.strideValue(Buf, 0)->var().Id, S1->var().Id);
  EXPECT_NE(Second.loopVar(P->body()[0]).Id, L1.Id);
  EXPECT_FALSE(Second.symFor(V1.Id));
  EXPECT_FALSE(Second.strideFor(S1->var().Id));
}

} // namespace
