//===- tests/FootprintTest.cpp - Footprint pre-check tests -----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The syntactic pre-checks that let scheduling operators skip deriving a
/// context (DESIGN.md, "Footprint pre-check"): the Commutes pre-check
/// (analysis::footprintsCommute) over the spine's window bases
/// (analysis::windowBasesAt), and remove_loop's and fuse_loop's bound and
/// idempotence shortcuts. For each: the cases where it must say "ask the
/// solver", a property check that every "true" it gives is one the solver
/// would have proved, and what it saves the scheduling operators.
///
//===----------------------------------------------------------------------===//

#include "CursorAt.h"
#include "analysis/Checks.h"
#include "analysis/Context.h"

#include "apps/Conv.h"
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

@proc
def fp_win(v: [R][4]):
    t = v[0:2]
    t[0] = 1.0

@proc
def fp_cfg_pair(s: stride, m: size):
    fp_cfg(s)
    CfgFp.n = m

@proc
def fp_bump():
    CfgFp.n = CfgFp.n + 1
)";

ProcRef parseWithLib(const std::string &Src) {
  ParseEnv Env;
  auto M = frontend::parseModule(FootprintLib, Env);
  if (!M)
    fatalError("test library parse failed: " + M.error().str());
  auto P = frontend::parseProc(Src, Env);
  if (!P)
    fatalError("test parse failed: " + P.error().str());
  return *P;
}

/// A procedure whose body ends in the two sides to compare: the first
/// Prefix statements are flowed into the state (so the windows they bind
/// are pre-existing aliases), then statements [Prefix, Split) form side A
/// and the rest side B.
struct Sides {
  AnalysisCtx Ctx;
  FlowState State;
  WindowBases Windows;
  Block A, B;

  Sides(const std::string &Src, unsigned Prefix, unsigned Split) {
    ProcRef P = parseWithLib(Src);
    const Block &Body = P->body();
    for (unsigned I = 0; I < Prefix; ++I)
      flowStmt(Ctx, State, Body[I]);
    Windows = windowBasesAt(*P, StmtCursor{{}, Prefix, Split});
    A.assign(Body.begin() + Prefix, Body.begin() + Split);
    B.assign(Body.begin() + Split, Body.end());
  }

  bool footprints() const { return footprintsCommute(Windows, A, B); }

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
    StmtCursor C{Path, I, I + 2};
    if (!footprintsCommute(windowBasesAt(*P, C), {S1}, {S2}))
      continue;
    ++T.PairsDisjoint;
    AnalysisCtx Ctx;
    ContextInfo Info = computeContext(Ctx, *P, C);
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
      StmtCursor C{Path, I, I + 1};
      if (!footprintsCommute(windowBasesAt(*P, C), B1, B2))
        continue;
      ++T.SplitsDisjoint;
      AnalysisCtx Ctx;
      ContextInfo Info = computeContext(Ctx, *P, C);
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
// Spine window bases: windowBasesAt reads off the cursor's spine what the
// derived context's flow state records, for every window the procedure
// binds, at every statement cursor.
// ---------------------------------------------------------------------

/// The names bound by WindowStmts anywhere in \p B.
void windowNames(const Block &B, std::set<Sym> &Out) {
  for (const StmtRef &S : B) {
    if (S->kind() == StmtKind::WindowStmt)
      Out.insert(S->name());
    windowNames(S->body(), Out);
    windowNames(S->orelse(), Out);
  }
}

struct BasesTally {
  unsigned Cursors = 0, WithWindows = 0, CalleeWindows = 0;
};

void checkWindowBases(const ProcRef &P, BasesTally &T) {
  std::set<Sym> Named;
  windowNames(P->body(), Named);
  std::vector<PathStep> Path;
  forEachBlock(P->body(), Path, [&](const Block &B,
                                    const std::vector<PathStep> &At) {
    for (unsigned I = 0; I < B.size(); ++I) {
      StmtCursor C{At, I, I + 1};
      AnalysisCtx Ctx;
      ContextInfo Info = computeContext(Ctx, *P, C);
      WindowBases Derived;
      for (const auto &[Name, Alias] : Info.Pre.Aliases) {
        if (Named.count(Name))
          Derived[Name] = Alias.Base;
        else
          ++T.CalleeWindows; // inlined under a fresh name P cannot spell
      }
      WindowBases Spine = windowBasesAt(*P, C);
      ++T.Cursors;
      T.WithWindows += !Spine.empty();
      EXPECT_TRUE(Spine == Derived)
          << P->name() << ": " << Spine.size() << " spine bases, "
          << Derived.size() << " derived, before " << printStmt(B[I]);
    }
  });
}

TEST(FootprintTest, SpineWindowBasesMatchTheDerivedAliases) {
  BasesTally T;
  // Windows before the cursor at every level, windows bound inside loop
  // and branch bodies that end before it, and a callee that binds one.
  checkWindowBases(parseWithLib(R"(
@proc
def f(x: R[8, 8], y: R[8]):
    w = x[1:7, 0:8]
    for i in seq(0, 4):
        u = w[i, 0:8]
        v = u[2:6]
        for j in seq(0, 2):
            t = v[0:2]
            t[j] = 1.0
        fp_win(v[0:4])
        v[0] = 2.0
    if x[0, 0] > 0.0:
        z = y[0:4]
        z[0] = 1.0
    else:
        z2 = w[0, 0:4]
        z2[1] = 1.0
    y[0] = 3.0
)"),
                   T);
  for (const driver::CompileJob &Job : driver::standardKernelSuite())
    for (const auto *Build : {&Job.Build, &Job.BuildReference}) {
      auto Procs = (*Build)();
      ASSERT_TRUE(bool(Procs)) << Job.Name << ": " << Procs.error().str();
      for (const ProcRef &P : *Procs)
        checkWindowBases(P, T);
    }
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    auto G = exo::testing::generateProgram(Seed);
    ASSERT_TRUE(bool(G)) << "seed " << Seed << ": " << G.error().str();
    checkWindowBases(G->Proc, T);
  }
  EXPECT_GT(T.WithWindows, 0u) << T.Cursors << " cursors";
  EXPECT_GT(T.CalleeWindows, 0u) << T.Cursors << " cursors";
}

// ---------------------------------------------------------------------
// Loop-obligation shortcuts: where remove_loop's literal-bounds or
// idempotence pre-check, or fuse_loop's literal-bounds pre-check, says
// "holds", the obligation it skips is one the solver proves under the
// derived context.
// ---------------------------------------------------------------------

/// Per predicate, how often it said true and false.
struct ShortcutTally {
  unsigned NonEmpty[2] = {0, 0}, Idempotent[2] = {0, 0}, SameBounds[2] = {0, 0};
};

/// The lifted bounds of \p Loop under the context \p Info.
std::pair<EffInt, EffInt> liftedBounds(AnalysisCtx &Ctx,
                                       const ContextInfo &Info,
                                       const StmtRef &Loop) {
  return {Ctx.liftControl(Loop->lo(), Info.Pre.Env),
          Ctx.liftControl(Loop->hi(), Info.Pre.Env)};
}

void checkLoopShortcuts(const ProcRef &P, const Block &B,
                        const std::vector<PathStep> &Path, ShortcutTally &T) {
  for (unsigned I = 0; I < B.size(); ++I) {
    const StmtRef &Loop = B[I];
    if (Loop->kind() != StmtKind::For)
      continue;
    StmtCursor C{Path, I, I + 1};
    // remove_loop's "runs at least once".
    bool Lit = literallyNonEmpty(Loop->lo(), Loop->hi());
    ++T.NonEmpty[Lit];
    if (Lit) {
      AnalysisCtx Ctx;
      ContextInfo Info = computeContext(Ctx, *P, C);
      auto [Lo, Hi] = liftedBounds(Ctx, Info, Loop);
      smt::TermRef NonEmpty =
          smt::mkAnd(smt::mkAnd(Lo.Def, Hi.Def), smt::lt(Lo.Val, Hi.Val));
      EXPECT_EQ(dischargeUnderPremise(Ctx, Info.PathCond, NonEmpty),
                ScheduleErrorInfo::Verdict::Yes)
          << P->name() << ": " << printStmt(Loop);
    }
    // remove_loop's Shadows(a, a), for the body and for every prefix of
    // it: the loop fission_after leaves when it splits the body there
    // keeps this loop's context.
    const Block &Body = Loop->body();
    for (unsigned Split = 1; Split <= Body.size(); ++Split) {
      Block Prefix(Body.begin(), Body.begin() + Split);
      bool Idem = obviouslyIdempotent(Prefix);
      ++T.Idempotent[Idem];
      if (!Idem)
        continue;
      AnalysisCtx Ctx;
      ContextInfo Info = computeContext(Ctx, *P, C);
      FlowState S1 = Info.Pre, S2 = Info.Pre;
      EffectSets A1 = extractBlock(Ctx, S1, Prefix);
      EffectSets A2 = extractBlock(Ctx, S2, Prefix);
      EXPECT_EQ(dischargeUnderPremise(Ctx, Info.PathCond,
                                      shadowsCond(A1, A2)),
                ScheduleErrorInfo::Verdict::Yes)
          << P->name() << ": first " << Split << " of " << printStmt(Loop);
    }
    // fuse_loop's "same bounds", against the next loop.
    if (I + 1 == B.size() || B[I + 1]->kind() != StmtKind::For)
      continue;
    const StmtRef &Next = B[I + 1];
    bool Same = literallyEqual(Loop->lo(), Next->lo()) &&
                literallyEqual(Loop->hi(), Next->hi());
    ++T.SameBounds[Same];
    if (!Same)
      continue;
    AnalysisCtx Ctx;
    ContextInfo Info = computeContext(Ctx, *P, C);
    auto [Lo1, Hi1] = liftedBounds(Ctx, Info, Loop);
    auto [Lo2, Hi2] = liftedBounds(Ctx, Info, Next);
    smt::TermRef SameBounds =
        smt::mkAnd({Lo1.Def, Lo2.Def, Hi1.Def, Hi2.Def,
                    smt::eq(Lo1.Val, Lo2.Val), smt::eq(Hi1.Val, Hi2.Val)});
    EXPECT_EQ(dischargeUnderPremise(Ctx, Info.PathCond, SameBounds),
              ScheduleErrorInfo::Verdict::Yes)
        << P->name() << ": " << printStmt(Loop) << " / " << printStmt(Next);
  }
}

void checkLoopShortcuts(const ProcRef &P, ShortcutTally &T) {
  std::vector<PathStep> Path;
  forEachBlock(P->body(), Path,
               [&](const Block &B, const std::vector<PathStep> &At) {
                 checkLoopShortcuts(P, B, At, T);
               });
}

TEST(FootprintTest, LoopShortcutsImplyProvedObligations) {
  ShortcutTally T;
  for (const driver::CompileJob &Job : driver::standardKernelSuite())
    for (const auto *Build : {&Job.Build, &Job.BuildReference}) {
      auto Procs = (*Build)();
      ASSERT_TRUE(bool(Procs)) << Job.Name << ": " << Procs.error().str();
      for (const ProcRef &P : *Procs)
        checkLoopShortcuts(P, T);
    }
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    auto G = exo::testing::generateProgram(Seed);
    ASSERT_TRUE(bool(G)) << "seed " << Seed << ": " << G.error().str();
    checkLoopShortcuts(G->Proc, T);
  }
  // Not vacuous: every predicate said both true and false.
  for (const unsigned *Count : {T.NonEmpty, T.Idempotent, T.SameBounds}) {
    EXPECT_GT(Count[true], 0u);
    EXPECT_GT(Count[false], 0u);
  }
}

TEST(FootprintTest, LoopShortcutsDeferWhatTheyCannotSee) {
  // An empty literal range, symbolic bounds and a non-literal bound are
  // left to the context; so is a body that reads the field it writes,
  // even through a callee, and any body with a data statement or loop.
  ProcRef P = parseWithLib(R"(
@proc
def f(n: size, x: R[4], y: R[4]):
    for i in seq(4, 4):
        pass
    for i in seq(0, n):
        pass
    for i in seq(0, 2 + 2):
        pass
)");
  for (const StmtRef &L : P->body())
    EXPECT_FALSE(literallyNonEmpty(L->lo(), L->hi())) << printStmt(L);
  EXPECT_TRUE(literallyNonEmpty(Expr::constInt(0), Expr::constInt(1)));
  EXPECT_FALSE(literallyEqual(P->body()[1]->hi(), P->body()[1]->hi()));
  EXPECT_TRUE(literallyEqual(Expr::constInt(3), Expr::constInt(3)));
  EXPECT_FALSE(literallyEqual(Expr::constInt(3), Expr::constInt(4)));

  ProcRef Q = parseWithLib(R"(
@proc
def g(x: R[4], y: R[4]):
    for i in seq(0, 4):
        fp_cfg_pair(stride(x, 0), 4)
        pass
    for i in seq(0, 4):
        fp_bump()
    for i in seq(0, 4):
        CfgFp.st = stride(x, 0)
        CfgFp.n = 4
        fp_ld(x[0:4], y[0:4])
    for i in seq(0, 4):
        y[0] = 1.0
)");
  const Block &B = Q->body();
  EXPECT_TRUE(obviouslyIdempotent(B[0]->body()));
  EXPECT_FALSE(obviouslyIdempotent(B[1]->body()));
  EXPECT_TRUE(obviouslyIdempotent({B[2]->body()[0], B[2]->body()[1]}));
  EXPECT_FALSE(obviouslyIdempotent(B[2]->body()));
  EXPECT_FALSE(obviouslyIdempotent(B[3]->body()));
  // The solver agrees the bump is not idempotent, and proves the data
  // write is: false means "ask", not "no".
  using scheduling::at;
  EXPECT_FALSE(bool(scheduling::removeLoop(at(Q, "for i in _: _ #1"))));
  EXPECT_TRUE(bool(scheduling::removeLoop(at(Q, "for i in _: _ #3"))));
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

/// Solver queries the three config hoists pose on \p PerTile.
uint64_t hoistQueries(const ProcRef &PerTile) {
  uint64_t Before = smt::solverThreadStats().NumQueries;
  scheduling::Schedule Sch(PerTile);
  apps::hoistConfigs(Sch, apps::gemminiConfigChannels());
  EXPECT_TRUE(bool(Sch)) << Sch.error().str();
  return smt::solverThreadStats().NumQueries - Before;
}

TEST(FootprintTest, HoistingGemminiConfigsPosesNoCommuteQuery) {
  auto K = apps::buildGemminiMatmul(128, 128, 128);
  ASSERT_TRUE(bool(K)) << K.error().str();
  // Every reorder and fission the hoists take is decided by the
  // footprints: each config call writes one field that no data
  // instruction touches. Every remove_loop is decided syntactically too:
  // the six loops the configs leave have literal bounds and a body that is
  // one config call. Extracting and proving every commute, as before the
  // footprint pre-check, posed 32 queries; remove_loop's non-emptiness and
  // idempotence checks, as before their shortcuts, 12.
  EXPECT_EQ(hoistQueries(K->OldLib), 0u);
}

TEST(FootprintTest, HoistingConvConfigsPosesNoQuery) {
  auto K = apps::buildConvGemmini({1, 16, 16, 16, 16}, 14);
  ASSERT_TRUE(bool(K)) << K.error().str();
  // The same three hoists out of the conv's deeper tile nest: every step
  // is settled syntactically.
  EXPECT_EQ(hoistQueries(K->OldLib), 0u);
}

} // namespace
