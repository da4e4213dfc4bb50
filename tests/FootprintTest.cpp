//===- tests/FootprintTest.cpp - Footprint pre-check tests -----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The syntactic Commutes pre-check (analysis::footprintsCommute, DESIGN.md
/// "Footprint pre-check"): the cases where it must say "ask the solver",
/// a property check that every "commutes" it gives is one the solver
/// would have proved, and what it saves the scheduling operators.
///
//===----------------------------------------------------------------------===//

#include "CursorAt.h"
#include "analysis/Checks.h"
#include "analysis/Context.h"

#include "apps/GemminiMatmul.h"
#include "driver/KernelSuite.h"
#include "frontend/Parser.h"
#include "ir/FreeVars.h"
#include "ir/Printer.h"
#include "scheduling/Schedule.h"
#include "smt/Solver.h"
#include "testing/ProgramGen.h"

#include <gtest/gtest.h>

#include <functional>

using namespace exo;
using namespace exo::analysis;
using namespace exo::ir;
using frontend::ParseEnv;

namespace {

const char *FootprintLib = R"(
@config
class CfgFp:
    n : size
    st : stride

@instr("fp_cfg({s});")
def fp_cfg(s: stride):
    CfgFp.st = s

@instr("fp_ld({src}.data, {dst}.data);")
def fp_ld(src: [R][4], dst: [R][4]):
    for i in seq(0, 4):
        dst[i] = src[i]

@proc
def fp_zero(v: [R][4]):
    for i in seq(0, 4):
        v[i] = 0.0

@proc
def fp_reads_cfg(v: [R][4]):
    if CfgFp.st > 0:
        v[0] = 1.0
)";

/// A procedure whose body ends in the two sides to compare: the first
/// Prefix statements are flowed into the state (so the windows they bind
/// are pre-existing aliases), then statements [Prefix, Split) form side A
/// and the rest side B.
struct Sides {
  AnalysisCtx Ctx;
  FlowState State;
  Block A, B;

  Sides(const std::string &Src, unsigned Prefix, unsigned Split) {
    ParseEnv Env;
    auto M = frontend::parseModule(FootprintLib, Env);
    if (!M)
      fatalError("test library parse failed: " + M.error().str());
    auto P = frontend::parseProc(Src, Env);
    if (!P)
      fatalError("test parse failed: " + P.error().str());
    const Block &Body = (*P)->body();
    for (unsigned I = 0; I < Prefix; ++I)
      flowStmt(Ctx, State, Body[I]);
    A.assign(Body.begin() + Prefix, Body.begin() + Split);
    B.assign(Body.begin() + Split, Body.end());
  }

  bool footprints() const { return footprintsCommute(State, A, B); }

  /// The full check the pre-check stands in for: extraction of both sides
  /// from the same state, then D(Commutes) discharged by the solver.
  bool proved() {
    FlowState SA = State, SB = State;
    EffectSets EA = extractBlock(Ctx, SA, A);
    EffectSets EB = extractBlock(Ctx, SB, B);
    return provedUnderPremise(Ctx, TriBool::yes(), commutesCond(EA, EB));
  }
};

TEST(FootprintTest, ConfigCallAndDataCallsOnOtherBuffersCommute) {
  Sides S(R"(
@proc
def f(x: R[4], y: R[4], z: R[4]):
    fp_cfg(stride(x, 0))
    fp_ld(x[0:4], y[0:4])
    fp_zero(z[0:4])
)",
          0, 1);
  EXPECT_TRUE(S.footprints());
  EXPECT_TRUE(S.proved());
}

TEST(FootprintTest, CalleeReadingTheWrittenConfigFieldIsNotDisjoint) {
  Sides S(R"(
@proc
def f(x: R[4], y: R[4]):
    fp_cfg(stride(x, 0))
    fp_reads_cfg(y[0:4])
)",
          0, 1);
  EXPECT_FALSE(S.footprints());
  EXPECT_FALSE(S.proved());
}

TEST(FootprintTest, PreExistingWindowAliasOfWrittenBufferIsNotDisjoint) {
  Sides S(R"(
@proc
def f(x: R[8], y: R[8]):
    w = x[2:6]
    w[0] = 1.0
    y[0] = x[2]
)",
          1, 2);
  EXPECT_FALSE(S.footprints());
  EXPECT_FALSE(S.proved());
}

TEST(FootprintTest, WindowStatementInsideTheBlockIsResolved) {
  Sides S(R"(
@proc
def f(x: R[8], y: R[8]):
    w = x[2:6]
    w[1] = 1.0
    y[0] = x[3]
)",
          0, 2);
  EXPECT_FALSE(S.footprints());
  EXPECT_FALSE(S.proved());
}

TEST(FootprintTest, CalleeWritingAWindowOfTheOtherSidesBufferIsNotDisjoint) {
  Sides S(R"(
@proc
def f(x: R[8], y: R[8]):
    fp_zero(x[4:8])
    y[0] = x[5]
)",
          0, 1);
  EXPECT_FALSE(S.footprints());
  EXPECT_FALSE(S.proved());
  // The same through a window alias bound before the pair.
  Sides T(R"(
@proc
def g(x: R[8], y: R[8]):
    w = x[0:8]
    fp_ld(y[0:4], w[4:8])
    y[0] = x[5]
)",
          1, 2);
  EXPECT_FALSE(T.footprints());
  EXPECT_FALSE(T.proved());
}

TEST(FootprintTest, TwoReductionsOfOneBufferAreLeftToTheSolver) {
  // Reductions commute with each other (Def 5.6), but the pre-check
  // counts a reduction as a write, so it defers to the solver.
  Sides S(R"(
@proc
def f(x: R[8], y: R[8]):
    x[0] += y[0]
    x[0] += y[1]
)",
          0, 1);
  EXPECT_FALSE(S.footprints());
  EXPECT_TRUE(S.proved());
}

TEST(FootprintTest, ConfigWriteAgainstALoopBoundReadingItIsNotDisjoint) {
  Sides S(R"(
@proc
def f(x: R[8], y: R[8]):
    CfgFp.n = 4
    for i in seq(0, CfgFp.n):
        pass
)",
          0, 1);
  EXPECT_FALSE(S.footprints());
  EXPECT_FALSE(S.proved());
}

TEST(FootprintTest, StrideOfAWrittenBufferIsNotARead) {
  Sides S(R"(
@proc
def f(x: R[8], y: R[8]):
    x[0] = 1.0
    CfgFp.st = stride(x, 0)
)",
          0, 1);
  EXPECT_TRUE(S.footprints());
  EXPECT_TRUE(S.proved());
}

// ---------------------------------------------------------------------
// Property: wherever the pre-check says "commutes", the extraction and
// solver path it replaces discharges D(Commutes) as Yes — for every
// adjacent statement pair and every fission split of the suite kernels
// (scheduled and reference) and of generated programs.
// ---------------------------------------------------------------------

struct PropertyTally {
  unsigned Pairs = 0, PairsDisjoint = 0;
  unsigned Splits = 0, SplitsDisjoint = 0;
};

/// Visits every block of \p P with the path reaching it.
void forEachBlock(const Block &B, std::vector<PathStep> &Path,
                  const std::function<void(const Block &,
                                           const std::vector<PathStep> &)>
                      &Visit) {
  Visit(B, Path);
  for (unsigned I = 0; I < B.size(); ++I) {
    const StmtRef &S = B[I];
    if (S->kind() != StmtKind::For && S->kind() != StmtKind::If)
      continue;
    Path.push_back({I, PathStep::Branch::Body});
    forEachBlock(S->body(), Path, Visit);
    Path.back().Into = PathStep::Branch::Orelse;
    forEachBlock(S->orelse(), Path, Visit);
    Path.pop_back();
  }
}

void checkAdjacentPairs(const ProcRef &P, const Block &B,
                        const std::vector<PathStep> &Path,
                        PropertyTally &T) {
  for (unsigned I = 0; I + 1 < B.size(); ++I) {
    const StmtRef &S1 = B[I], &S2 = B[I + 1];
    if (S1->kind() == StmtKind::WindowStmt)
      continue; // swapAdjacent does not consult the pre-check here
    if (S1->kind() == StmtKind::Alloc && freeVars(S2).count(S1->name()))
      continue; // rejected on scope before any analysis
    ++T.Pairs;
    AnalysisCtx Ctx;
    StmtCursor C{Path, I, I + 2};
    ContextInfo Info = computeContext(Ctx, *P, C);
    if (!footprintsCommute(Info.Pre, {S1}, {S2}))
      continue;
    ++T.PairsDisjoint;
    FlowState State = Info.Pre;
    EffectSets A1 = extractStmt(Ctx, State, S1);
    EffectSets A2 = extractStmt(Ctx, State, S2);
    EXPECT_EQ(dischargeUnderPremise(Ctx, Info.PathCond, commutesCond(A1, A2)),
              ScheduleErrorInfo::Verdict::Yes)
        << P->name() << ": " << printStmt(S1) << " / " << printStmt(S2);
  }
}

void checkFissionSplits(const ProcRef &P, const Block &B,
                        const std::vector<PathStep> &Path,
                        PropertyTally &T) {
  for (unsigned I = 0; I < B.size(); ++I) {
    const StmtRef &Loop = B[I];
    if (Loop->kind() != StmtKind::For)
      continue;
    const Block &Body = Loop->body();
    for (unsigned Split = 1; Split < Body.size(); ++Split) {
      Block B1(Body.begin(), Body.begin() + Split);
      Block B2(Body.begin() + Split, Body.end());
      bool Scoped = true;
      for (Sym S : boundVars(B1))
        Scoped &= !freeVars(B2).count(S);
      if (!Scoped)
        continue; // rejected on scope before any analysis
      ++T.Splits;
      AnalysisCtx Ctx;
      StmtCursor C{Path, I, I + 1};
      ContextInfo Info = computeContext(Ctx, *P, C);
      if (!footprintsCommute(Info.Pre, B1, B2))
        continue;
      ++T.SplitsDisjoint;
      // fission_after's query: B1 at x1 against B2 at x2 < x1.
      smt::TermRef X1 = smt::mkVar(smt::freshVar("x1", smt::Sort::Int));
      smt::TermRef X2 = smt::mkVar(smt::freshVar("x2", smt::Sort::Int));
      FlowState SA = Info.Pre, SB = Info.Pre;
      SA.Env[Loop->name()] = EffInt::known(X1);
      SB.Env[Loop->name()] = EffInt::known(X2);
      EffectSets A1 = extractBlock(Ctx, SA, B1);
      EffectSets A2 = extractBlock(Ctx, SB, B2);
      TriBool Premise = triAnd(Info.PathCond,
                               TriBool::certain(smt::lt(X2, X1)));
      EXPECT_EQ(dischargeUnderPremise(Ctx, Premise, commutesCond(A1, A2)),
                ScheduleErrorInfo::Verdict::Yes)
          << P->name() << ": split " << Split << " of "
          << printStmt(Loop);
    }
  }
}

void checkProc(const ProcRef &P, PropertyTally &T) {
  std::vector<PathStep> Path;
  forEachBlock(P->body(), Path,
               [&](const Block &B, const std::vector<PathStep> &At) {
                 checkAdjacentPairs(P, B, At, T);
                 checkFissionSplits(P, B, At, T);
               });
}

TEST(FootprintTest, DisjointFootprintsImplyProvedCommutesOnSuiteKernels) {
  PropertyTally T;
  for (const driver::CompileJob &Job : driver::standardKernelSuite()) {
    for (const auto *Build : {&Job.Build, &Job.BuildReference}) {
      auto Procs = (*Build)();
      ASSERT_TRUE(bool(Procs)) << Job.Name << ": " << Procs.error().str();
      for (const ProcRef &P : *Procs)
        checkProc(P, T);
    }
  }
  // Not vacuous: the scheduled kernels' config calls sit beside data
  // instructions on other buffers.
  EXPECT_GT(T.PairsDisjoint, 0u) << T.Pairs << " pairs";
  EXPECT_GT(T.SplitsDisjoint, 0u) << T.Splits << " splits";
}

TEST(FootprintTest, DisjointFootprintsImplyProvedCommutesOnFuzzPrograms) {
  PropertyTally T;
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    auto G = exo::testing::generateProgram(Seed);
    ASSERT_TRUE(bool(G)) << "seed " << Seed << ": " << G.error().str();
    checkProc(G->Proc, T);
  }
  EXPECT_GT(T.PairsDisjoint, 0u) << T.Pairs << " pairs";
  EXPECT_GT(T.SplitsDisjoint, 0u) << T.Splits << " splits";
}

// ---------------------------------------------------------------------
// What the pre-check saves the scheduling operators.
// ---------------------------------------------------------------------

TEST(FootprintTest, FissionMovesTheSecondHalfWithItsBinders) {
  ParseEnv Env;
  auto P = frontend::parseProc(R"(
@proc
def f(x: R[8, 8], y: R[8, 8]):
    for i in seq(0, 8):
        x[i, 0] = 1.0
        for j in seq(0, 8):
            y[i, j] = 2.0
)",
                               Env);
  ASSERT_TRUE(bool(P)) << P.error().str();
  Sym InnerBefore = (*P)->body()[0]->body()[1]->name();
  auto Q = scheduling::fissionAfter(scheduling::at(*P, "x[_] = _"));
  ASSERT_TRUE(bool(Q)) << Q.error().str();
  ASSERT_EQ((*Q)->body().size(), 2u);
  const StmtRef &Moved = (*Q)->body()[1]->body()[0];
  ASSERT_EQ(Moved->kind(), StmtKind::For);
  EXPECT_EQ(Moved->name().id(), InnerBefore.id())
      << "the moved half's inner loop was given a new Sym";
  // The outer loop's second copy still gets its own iterator.
  EXPECT_NE((*Q)->body()[1]->name(), (*Q)->body()[0]->name());
}

TEST(FootprintTest, HoistingGemminiConfigsPosesNoCommuteQuery) {
  auto K = apps::buildGemminiMatmul(128, 128, 128);
  ASSERT_TRUE(bool(K)) << K.error().str();
  uint64_t Before = smt::solverThreadStats().NumQueries;
  scheduling::Schedule Sch(K->OldLib);
  Sch.hoistToTop("gemmini_config_ld1(_)")
      .hoistToTop("gemmini_config_ld2(_)")
      .hoistToTop("gemmini_config_st(_)");
  ASSERT_TRUE(bool(Sch)) << Sch.error().str();
  uint64_t Queries = smt::solverThreadStats().NumQueries - Before;
  // Every reorder and fission the hoists take is decided by the
  // footprints: each config call writes one field that no data
  // instruction touches. What remains are remove_loop's non-emptiness and
  // idempotence checks, two for each of the six loops the configs leave.
  // Extracting and proving every commute, as before the pre-check, posed
  // 32 queries.
  EXPECT_EQ(Queries, 12u);
}

} // namespace
