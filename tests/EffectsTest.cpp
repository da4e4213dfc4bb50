//===- tests/EffectsTest.cpp - Effect analysis unit tests ------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/Checks.h"
#include "analysis/Context.h"

#include "frontend/Parser.h"
#include "smt/Solver.h"

#include <gtest/gtest.h>

using namespace exo;
using namespace exo::analysis;
using namespace exo::ir;
using frontend::parseProc;
using frontend::ParseEnv;

namespace {

/// Parses a proc whose body is a two-statement block and returns the
/// effects of each statement under the proc's initial state.
struct TwoStmtEffects {
  AnalysisCtx Ctx;
  EffectSets A, B;
  TriBool Premise = TriBool::yes();

  explicit TwoStmtEffects(const std::string &Src, ParseEnv *Env = nullptr) {
    ParseEnv Local;
    auto P = parseProc(Src, Env ? *Env : Local);
    if (!P)
      fatalError("test parse failed: " + P.error().str());
    FlowState State;
    for (auto &Pred : (*P)->preds())
      Premise = triAnd(Premise, Ctx.liftBool(Pred, State.Env));
    const Block &Body = (*P)->body();
    if (Body.size() != 2)
      fatalError("test proc must have exactly two statements");
    A = extractStmt(Ctx, State, Body[0]);
    B = extractStmt(Ctx, State, Body[1]);
  }

  bool commutes() {
    return provedUnderPremise(Ctx, Premise, commutesCond(A, B));
  }
  bool shadows() {
    return provedUnderPremise(Ctx, Premise, shadowsCond(A, B));
  }
};

TEST(EffectsTest, DisjointElementWritesCommute) {
  TwoStmtEffects T(R"(
@proc
def f(x: R[8]):
    x[0] = 1.0
    x[1] = 2.0
)");
  EXPECT_TRUE(T.commutes());
}

TEST(EffectsTest, SameElementWritesDoNotCommute) {
  TwoStmtEffects T(R"(
@proc
def f(x: R[8]):
    x[0] = 1.0
    x[0] = 2.0
)");
  EXPECT_FALSE(T.commutes());
}

TEST(EffectsTest, WriteThenReadDoesNotCommute) {
  TwoStmtEffects T(R"(
@proc
def f(x: R[8], y: R[8]):
    x[0] = 1.0
    y[0] = x[0]
)");
  EXPECT_FALSE(T.commutes());
}

TEST(EffectsTest, ReductionsOnSameLocationCommute) {
  TwoStmtEffects T(R"(
@proc
def f(x: R[8]):
    x[0] += 1.0
    x[0] += 2.0
)");
  EXPECT_TRUE(T.commutes()) << "reduce/reduce is the special exception";
}

TEST(EffectsTest, ReduceAfterReadDoesNotCommute) {
  TwoStmtEffects T(R"(
@proc
def f(x: R[8], y: R[8]):
    y[0] = x[0]
    x[0] += 2.0
)");
  EXPECT_FALSE(T.commutes());
}

TEST(EffectsTest, DisjointLoopsCommute) {
  TwoStmtEffects T(R"(
@proc
def f(n: size, x: R[n], y: R[n]):
    for i in seq(0, n):
        x[i] = 1.0
    for j in seq(0, n):
        y[j] = x[j] + 0.0
)");
  EXPECT_FALSE(T.commutes()) << "second loop reads what the first writes";
  TwoStmtEffects U(R"(
@proc
def f(n: size, x: R[n], y: R[n]):
    for i in seq(0, n):
        x[i] = 1.0
    for j in seq(0, n):
        y[j] = 2.0
)");
  EXPECT_TRUE(U.commutes());
}

TEST(EffectsTest, TiledRegionsCommute) {
  // Writes to x[0:8] and x[8:16] are provably disjoint.
  TwoStmtEffects T(R"(
@proc
def f(x: R[16]):
    for i in seq(0, 8):
        x[i] = 1.0
    for j in seq(8, 16):
        x[j] = 2.0
)");
  EXPECT_TRUE(T.commutes());
}

TEST(EffectsTest, DisjointFastPathAnswersSeparatedTiles) {
  // The interval fast path (analysis::disjointFastPath) must answer the
  // x[0:8] / x[8:16] case without posing a solver query: the coordinate
  // difference i - j lies in [-15, -1] under the loop bounds.
  smt::resetSolverGlobalStats();
  TwoStmtEffects T(R"(
@proc
def f(x: R[16]):
    for i in seq(0, 8):
        x[i] = 1.0
    for j in seq(8, 16):
        x[j] = 2.0
)");
  EXPECT_TRUE(T.commutes());
  EXPECT_GT(smt::solverGlobalStats().FastPathHits, 0u);
}

TEST(EffectsTest, DisjointFastPathBailsOnSharedBinder) {
  // Overlapping tiles sharing structure must NOT be claimed disjoint:
  // x[0:9] and x[8:16] overlap at x[8]; the fast path may only miss
  // (falling back to the solver), never hit.
  smt::resetSolverGlobalStats();
  TwoStmtEffects T(R"(
@proc
def f(x: R[16]):
    for i in seq(0, 9):
        x[i] = 1.0
    for j in seq(8, 16):
        x[j] = 2.0
)");
  EXPECT_FALSE(T.commutes());
  EXPECT_EQ(smt::solverGlobalStats().FastPathHits, 0u);
}

TEST(EffectsTest, GuardedWritesRespectGuards) {
  // Both loops write x[i] but under complementary guards.
  TwoStmtEffects T(R"(
@proc
def f(n: size, x: R[n]):
    for i in seq(0, n):
        if i < 4:
            x[i] = 1.0
    for j in seq(0, n):
        if j >= 4:
            x[j] = 2.0
)");
  EXPECT_TRUE(T.commutes());
}

TEST(EffectsTest, ConfigWriteConflictsWithRead) {
  ParseEnv Env;
  auto M = frontend::parseModule(R"(
@config
class Cfg:
    s : stride
)",
                                 Env);
  ASSERT_TRUE(bool(M)) << M.error().str();
  TwoStmtEffects T(R"(
@proc
def f(x: R[8, 8]):
    Cfg.s = stride(x, 0)
    x[0, 0] = 1.0
)",
                   &Env);
  EXPECT_TRUE(T.commutes()) << "config write vs unrelated data write";
  TwoStmtEffects U(R"(
@proc
def g(x: R[8, 8], y: R[8]):
    Cfg.s = stride(x, 0)
    y[Cfg.s] = 1.0
)",
                   &Env);
  EXPECT_FALSE(U.commutes()) << "config write vs read of same field";
}

TEST(EffectsTest, IdenticalConfigWritesDoNotCommuteButShadow) {
  ParseEnv Env;
  auto M = frontend::parseModule(R"(
@config
class Cfg2:
    s : stride
)",
                                 Env);
  ASSERT_TRUE(bool(M)) << M.error().str();
  TwoStmtEffects T(R"(
@proc
def f(x: R[8, 8]):
    Cfg2.s = 3
    Cfg2.s = 4
)",
                   &Env);
  EXPECT_FALSE(T.commutes());
  EXPECT_TRUE(T.shadows()) << "the second write fully shadows the first";
}

TEST(EffectsTest, ShadowingOfFullOverwrite) {
  TwoStmtEffects T(R"(
@proc
def f(n: size, x: R[n]):
    for i in seq(0, n):
        x[i] = 1.0
    for j in seq(0, n):
        x[j] = 2.0
)");
  EXPECT_TRUE(T.shadows());
}

TEST(EffectsTest, NoShadowWhenSecondReads) {
  TwoStmtEffects T(R"(
@proc
def f(n: size, x: R[n]):
    for i in seq(0, n):
        x[i] = 1.0
    for j in seq(0, n):
        x[j] = x[j] * 2.0
)");
  EXPECT_FALSE(T.shadows());
}

TEST(EffectsTest, NoShadowOnPartialOverwrite) {
  TwoStmtEffects T(R"(
@proc
def f(x: R[16]):
    for i in seq(0, 16):
        x[i] = 1.0
    for j in seq(0, 8):
        x[j] = 2.0
)");
  EXPECT_FALSE(T.shadows()) << "x[8:16] keeps the first loop's values";
}

TEST(EffectsTest, WindowAliasResolvesToBase) {
  // Writing through a window must conflict with the underlying buffer.
  TwoStmtEffects T(R"(
@proc
def f(x: R[8, 8]):
    y = x[0:8, 3]
    y[0] = 1.0
)");
  // Stmt A binds the window (no heap effect), stmt B writes x[0, 3]; the
  // binding and the write trivially commute, so instead check against a
  // direct write via a second proc.
  TwoStmtEffects U(R"(
@proc
def g(x: R[8, 8]):
    z = x[0:8, 3]
    x[0, 3] = z[0] + 0.0
)");
  // z[0] reads x[0,3]; writing x[0,3] in the same statement — here we only
  // check that effects resolve: the read set of stmt B mentions base x.
  std::map<ir::Sym, unsigned> Bases;
  U.B.RdH->collectBases(Bases);
  ASSERT_EQ(Bases.size(), 1u);
  EXPECT_EQ(Bases.begin()->first.name(), "x");
  EXPECT_EQ(Bases.begin()->second, 2u) << "rank of the underlying buffer";
}

TEST(EffectsTest, CallEffectsComeFromCalleeBody) {
  ParseEnv Env;
  auto Lib = frontend::parseModule(R"(
@proc
def setzero(n: size, v: [R][n]):
    for i in seq(0, n):
        v[i] = 0.0
)",
                                   Env);
  ASSERT_TRUE(bool(Lib)) << Lib.error().str();
  TwoStmtEffects T(R"(
@proc
def f(x: R[16]):
    setzero(8, x[0:8])
    for j in seq(8, 16):
        x[j] = 1.0
)",
                   &Env);
  EXPECT_TRUE(T.commutes()) << "call writes x[0:8], loop writes x[8:16]";
  TwoStmtEffects U(R"(
@proc
def g(x: R[16]):
    setzero(8, x[0:8])
    for j in seq(0, 8):
        x[j] = 1.0
)",
                   &Env);
  EXPECT_FALSE(U.commutes());
}

TEST(EffectsTest, PreconditionsSharpenChecks) {
  // Without the assert, the two writes could collide (m could equal 0);
  // with assert m >= 8 they cannot.
  TwoStmtEffects T(R"(
@proc
def f(m: size, x: R[100]):
    assert m >= 8
    x[0] = 1.0
    x[m] = 2.0
)");
  EXPECT_TRUE(T.commutes());
  TwoStmtEffects U(R"(
@proc
def g(m: size, x: R[100]):
    x[0] = 1.0
    x[m] = 2.0
)");
  EXPECT_FALSE(U.commutes());
}

/// A data instruction, a config writer, a proc wrapping the config writer
/// and a proc that binds a window: one callee of each kind flowStmt treats
/// differently.
const char *CallFlowLib = R"(
@config
class CfgFl:
    st : stride

@instr("hw_ld({n}, {dst}.data, {src}.data);")
def hw_ld(n: size, dst: [R][n], src: [R][n]):
    for i in seq(0, n):
        dst[i] = src[i]

@instr("hw_cfg({s});")
def hw_cfg(s: stride):
    CfgFl.st = s

@proc
def cfg_wrapper(s: stride):
    hw_cfg(s)

@proc
def zero_head(v: [R][16]):
    w = v[0:8]
    for i in seq(0, 8):
        w[i] = 0.0
)";

/// Flows every statement of a proc's body but the last, then the last one
/// (a call) alone: the states on either side of the call, and how many
/// Syms flowing it minted.
struct CallFlow {
  AnalysisCtx Ctx;
  FlowState Before, After;
  unsigned SymsMinted = 0;

  explicit CallFlow(const std::string &Src) {
    ParseEnv Env;
    auto M = frontend::parseModule(CallFlowLib, Env);
    if (!M)
      fatalError("test library parse failed: " + M.error().str());
    auto P = parseProc(Src, Env);
    if (!P)
      fatalError("test parse failed: " + P.error().str());
    const Block &Body = (*P)->body();
    for (size_t I = 0; I + 1 < Body.size(); ++I)
      flowStmt(Ctx, Before, Body[I]);
    After = Before;
    unsigned Mark = Sym::fresh("mark").id();
    flowStmt(Ctx, After, Body.back());
    SymsMinted = Sym::fresh("mark").id() - Mark - 1;
  }

  bool afterSets(const std::string &Field) const {
    for (auto &[Key, Val] : After.Env)
      if (Key.name() == Field)
        return true;
    return false;
  }
};

TEST(FlowTest, DataInstructionCallIsTheIdentity) {
  CallFlow F(R"(
@proc
def f(x: R[16], y: R[16]):
    CfgFl.st = stride(x, 0)
    v = x[0:16]
    hw_ld(8, y[0:8], v[0:8])
)");
  ASSERT_EQ(F.Before.Env.size(), 1u);
  ASSERT_EQ(F.Before.Aliases.size(), 1u);
  EXPECT_TRUE(changedKeys(F.Before.Env, F.After.Env).empty());
  ASSERT_EQ(F.After.Env.size(), 1u);
  ASSERT_EQ(F.After.Aliases.size(), 1u);
  const auto &[Name, A] = *F.Before.Aliases.begin();
  const auto &[NameAfter, B] = *F.After.Aliases.begin();
  EXPECT_EQ(NameAfter, Name);
  EXPECT_EQ(B.Base, A.Base);
  ASSERT_EQ(B.Coords.size(), A.Coords.size());
  for (size_t I = 0; I < A.Coords.size(); ++I) {
    EXPECT_EQ(B.Coords[I].IsInterval, A.Coords[I].IsInterval);
    EXPECT_TRUE(B.Coords[I].Lo.Val->equals(*A.Coords[I].Lo.Val));
    EXPECT_TRUE(B.Coords[I].Lo.Def->equals(*A.Coords[I].Lo.Def));
  }
  EXPECT_EQ(F.SymsMinted, 0u) << "the callee body must not be inlined";
}

TEST(FlowTest, ConfigWritingInstructionSetsItsField) {
  CallFlow F(R"(
@proc
def f(x: R[16]):
    hw_cfg(stride(x, 0))
)");
  EXPECT_TRUE(F.Before.Env.empty());
  EXPECT_TRUE(F.afterSets("st"));
}

TEST(FlowTest, WrapperOfConfigWriterIsInlined) {
  // The wrapper's only statement is a call: not state-invariant, so the
  // wrapper is inlined and so, in turn, is the config writer.
  CallFlow F(R"(
@proc
def f(x: R[16]):
    cfg_wrapper(stride(x, 0))
)");
  EXPECT_TRUE(F.afterSets("st"));
}

TEST(FlowTest, CalleeWithWindowStatementIsInlined) {
  CallFlow F(R"(
@proc
def f(x: R[16]):
    zero_head(x[0:16])
)");
  ASSERT_EQ(F.After.Aliases.size(), 1u) << "the callee's window is bound";
  EXPECT_EQ(F.After.Aliases.begin()->second.Base.name(), "x");
  EXPECT_GT(F.SymsMinted, 0u) << "inlining refreshes the callee's binders";
}

TEST(ContextTest, PathConditionFromLoopsAndGuards) {
  auto P = parseProc(R"(
@proc
def f(n: size, x: R[n]):
    assert n > 0
    for i in seq(0, n):
        if i < 4:
            x[i] = 1.0
)");
  ASSERT_TRUE(bool(P));
  AnalysisCtx Ctx;
  StmtCursor C;
  C.Path = {{0, PathStep::Branch::Body}, {0, PathStep::Branch::Body}};
  C.Begin = 0;
  C.End = 1;
  ContextInfo Info = computeContext(Ctx, **P, C);
  ASSERT_EQ(Info.EnclosingLoops.size(), 1u);
  auto Sel = selectedStmts(**P, C);
  ASSERT_EQ(Sel.size(), 1u);
  EXPECT_EQ(Sel[0]->kind(), StmtKind::Assign);
  // The path condition must entail i < 4 for the bound iterator, which
  // makes the premise satisfiable but not trivially true.
  EXPECT_EQ(Ctx.solver().checkSat(Info.PathCond.May),
            smt::SolverResult::Yes);
}

TEST(ContextTest, ReplaceRangeRebuildsNestedBlocks) {
  auto P = parseProc(R"(
@proc
def f(n: size, x: R[n]):
    for i in seq(0, n):
        x[i] = 1.0
        x[i] = 2.0
)");
  ASSERT_TRUE(bool(P));
  StmtCursor C;
  C.Path = {{0, PathStep::Branch::Body}};
  C.Begin = 0;
  C.End = 1;
  Block NewBody = replaceRange((*P)->body(), C, {Stmt::pass()});
  ASSERT_EQ(NewBody.size(), 1u);
  ASSERT_EQ(NewBody[0]->body().size(), 2u);
  EXPECT_EQ(NewBody[0]->body()[0]->kind(), StmtKind::Pass);
  EXPECT_EQ(NewBody[0]->body()[1]->kind(), StmtKind::Assign);
}

TEST(ContextTest, PostReadFieldsSeeLaterIterations) {
  ParseEnv Env;
  auto M = frontend::parseModule(R"(
@config
class Cfg3:
    s : stride
)",
                                 Env);
  ASSERT_TRUE(bool(M));
  auto P = parseProc(R"(
@proc
def f(n: size, x: R[n], y: R[n]):
    for i in seq(0, n):
        y[Cfg3.s] = 0.0
        x[i] = 1.0
)",
                     Env);
  ASSERT_TRUE(bool(P)) << P.error().str();
  AnalysisCtx Ctx;
  StmtCursor C;
  C.Path = {{0, PathStep::Branch::Body}};
  C.Begin = 1;
  C.End = 2; // select "x[i] = 1.0"
  ContextInfo Info = computeContext(Ctx, **P, C);
  // The y[Cfg3.s] statement precedes the selection *within this
  // iteration* but follows it in the next one, so the field must appear
  // in the post-read set.
  bool Found = false;
  for (Sym S : Info.PostReadFields)
    Found |= S.name() == "s";
  EXPECT_TRUE(Found);
}

} // namespace
