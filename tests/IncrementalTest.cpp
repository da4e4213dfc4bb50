//===- tests/IncrementalTest.cpp - Dirty regions and provenance -*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the rewrite bookkeeping every derived procedure carries: the
/// ir::wellFormednessErrors pass asserted between rewrites, the
/// DirtyRegion stamps the scheduling operators record, the provenance
/// spine across nested rewrites, and random scheduling of the pinned
/// deep-nesting corpus.
///
//===----------------------------------------------------------------------===//

#include "CursorAt.h"
#include "frontend/Parser.h"
#include "ir/WellFormed.h"
#include "scheduling/Pattern.h"
#include "scheduling/Schedule.h"
#include "testing/Corpus.h"
#include "testing/ProgramGen.h"

#include <gtest/gtest.h>

#include <filesystem>

using namespace exo;
using namespace exo::ir;
using namespace exo::scheduling;

namespace {

ProcRef parse(const char *Src, frontend::ParseEnv *Env = nullptr) {
  auto P = Env ? frontend::parseProc(Src, *Env) : frontend::parseProc(Src);
  if (!P)
    fatalError("test parse failed: " + P.error().str());
  return *P;
}

template <typename T> T must(Expected<T> E, const char *What) {
  if (!E)
    fatalError(std::string(What) + " failed: " + E.error().str());
  return *E;
}

/// A procedure with configuration traffic on the spine: a bound config
/// write ahead of a two-level loop nest.
ProcRef configProc(frontend::ParseEnv &Env) {
  auto M = frontend::parseModule(R"(
@config
class CfgInc:
    st : stride
)",
                                 Env);
  if (!M)
    fatalError("config parse failed: " + M.error().str());
  ProcRef P = parse(R"(
@proc
def inc_p(x: R[16, 8], y: R[16]):
    for i in seq(0, 16):
        for j in seq(0, 8):
            y[i] = x[i, j] + 0.0
)",
                    &Env);
  return must(bindConfig(at(P, "for i in _: _"), "16", Env.findConfig("CfgInc"),
                         "st"),
              "bind_config");
}

} // namespace

//===----------------------------------------------------------------------===//
// Well-formedness pass
//===----------------------------------------------------------------------===//

TEST(WellFormed, AcceptsParsedAndScheduledProcedures) {
  frontend::ParseEnv Env;
  ProcRef P = configProc(Env);
  EXPECT_TRUE(wellFormednessErrors(*P).empty());
  ProcRef Q = must(splitLoop(at(P, "for i in _: _"), 4, "io", "ii"), "split");
  EXPECT_TRUE(wellFormednessErrors(*Q).empty());
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    auto G = exo::testing::generateProgram(Seed);
    if (!G)
      continue;
    auto Errs = wellFormednessErrors(*G->Proc);
    EXPECT_TRUE(Errs.empty()) << "seed " << Seed << ": " << Errs.front();
  }
}

TEST(WellFormed, FlagsEmptyLoopBody) {
  Sym I = Sym::fresh("i");
  Block Body{Stmt::forStmt(I, Expr::constInt(0), Expr::constInt(4), {})};
  Proc P("bad_empty", {}, {}, std::move(Body));
  auto Errs = wellFormednessErrors(P);
  ASSERT_FALSE(Errs.empty());
  EXPECT_FALSE(isWellFormed(P));
}

TEST(WellFormed, FlagsShadowedBinder) {
  // The same Sym bound twice on one path: the analysis keys environments
  // by Sym, so this would silently conflate the two iterators.
  Sym I = Sym::fresh("i");
  Block Inner{Stmt::pass()};
  Block Outer{Stmt::forStmt(
      I, Expr::constInt(0), Expr::constInt(4),
      {Stmt::forStmt(I, Expr::constInt(0), Expr::constInt(4),
                     std::move(Inner))})};
  Proc P("bad_shadow", {}, {}, std::move(Outer));
  EXPECT_FALSE(isWellFormed(P));
}

TEST(WellFormed, FlagsUnresolvableDirtyRegion) {
  Sym I = Sym::fresh("i");
  auto Mk = [&] {
    return std::make_shared<Proc>(
        "bad_dirty", std::vector<FnArg>{}, std::vector<ExprRef>{},
        Block{Stmt::forStmt(I.copy(), Expr::constInt(0), Expr::constInt(4),
                            {Stmt::pass()})});
  };
  {
    std::shared_ptr<Proc> P = Mk();
    DirtyRegion D;
    D.Whole = false;
    D.Path = {{7, false}}; // index out of range at the root block
    P->setDirtyRegion(std::move(D));
    EXPECT_FALSE(isWellFormed(*P));
  }
  {
    std::shared_ptr<Proc> P = Mk();
    DirtyRegion D;
    D.Whole = false;
    D.Path = {{0, false}};
    D.Begin = 5; // replaced range past the end of the loop body
    D.NewCount = 1;
    P->setDirtyRegion(std::move(D));
    EXPECT_FALSE(isWellFormed(*P));
  }
}

//===----------------------------------------------------------------------===//
// DirtyRegion stamps
//===----------------------------------------------------------------------===//

TEST(DirtyRegion, LeafRewriteRecordsANarrowResolvableRegion) {
  frontend::ParseEnv Env;
  ProcRef P = configProc(Env);
  ProcRef Q = must(splitLoop(at(P, "for j in _: _"), 2, "jo", "ji"), "split");
  const auto &D = Q->dirtyRegion();
  ASSERT_TRUE(D.has_value()) << "scheduling ops must stamp a dirty region";
  EXPECT_FALSE(D->Whole) << "a cursored rewrite must not claim the whole proc";
  EXPECT_FALSE(D->Path.empty()) << "the split target is below the root";
  EXPECT_EQ(D->OldCount, 1u);
  // The region resolves in the derived tree (the well-formedness pass
  // checks exactly this invariant).
  EXPECT_TRUE(wellFormednessErrors(*Q).empty());
}

TEST(DirtyRegion, WholeProcRewriteIsMarkedWhole) {
  frontend::ParseEnv Env;
  ProcRef P = configProc(Env);
  ProcRef Q = must(simplify(P), "simplify");
  const auto &D = Q->dirtyRegion();
  ASSERT_TRUE(D.has_value());
  EXPECT_TRUE(D->Whole) << "whole-body walkers cannot claim sharing";
}

//===----------------------------------------------------------------------===//
// Provenance spine across nested rewrites
//===----------------------------------------------------------------------===//

TEST(Provenance, NestedRewritesKeepTheSpine) {
  frontend::ParseEnv Env;
  ProcRef P = configProc(Env);
  ProcRef Q = must(splitLoop(at(P, "for j in _: _"), 2, "jo", "ji"), "split");
  ProcRef R =
      must(splitLoop(at(Q, "for ji in _: _"), 2, "jio", "jii"), "split");
  ProcRef S = must(unrollLoop(at(R, "for jii in _: _")), "unroll");

  // The parent chain of the final procedure walks back to the base.
  unsigned Links = 0;
  bool FoundBase = false;
  for (ProcRef Cur = S; Cur; Cur = Cur->parent()) {
    if (Cur.get() == P.get())
      FoundBase = true;
    ++Links;
  }
  EXPECT_TRUE(FoundBase);
  EXPECT_GE(Links, 4u); // base + three rewrites

  // Pure loop restructuring pollutes no configuration state: the delta is
  // present (the procs are related) and empty.
  auto Delta = equivalenceDelta(P, S);
  ASSERT_TRUE(Delta.has_value());
  EXPECT_TRUE(Delta->empty());
}

TEST(Provenance, ConfigPollutionAccumulatesAlongTheSpine) {
  frontend::ParseEnv Env;
  auto M = frontend::parseModule(R"(
@config
class CfgProv:
    st : stride
)",
                                 Env);
  ASSERT_TRUE(bool(M));
  ProcRef P = parse(R"(
@proc
def prov_p(x: R[16]):
    for i in seq(0, 16):
        x[i] = 0.0
)",
                    &Env);
  ProcRef Q = must(bindConfig(at(P, "for i in _: _"), "16",
                              Env.findConfig("CfgProv"), "st"),
                   "bind_config");
  // A further structural rewrite on top keeps the accumulated delta.
  ProcRef R = must(splitLoop(at(Q, "for i in _: _"), 4, "io", "ii"), "split");
  auto Delta = equivalenceDelta(P, R);
  ASSERT_TRUE(Delta.has_value());
  ASSERT_EQ(Delta->size(), 1u);
  EXPECT_EQ(Delta->begin()->name(), "st");
}

TEST(Provenance, UnrelatedProceduresHaveNoDelta) {
  ProcRef A = parse(R"(
@proc
def prov_a(x: R[4]):
    x[0] = 0.0
)");
  ProcRef B = parse(R"(
@proc
def prov_b(x: R[4]):
    x[1] = 0.0
)");
  EXPECT_FALSE(equivalenceDelta(A, B).has_value());
}

//===----------------------------------------------------------------------===//
// Deep-nesting corpus: replay and random scheduling
//===----------------------------------------------------------------------===//

TEST(DeepCorpus, PinnedDeepNestsReplayAndScheduleWellFormed) {
  // The case_02x_deep* corpus files pin ≥6-level loop nests; their traces
  // must still replay, and random scheduling over the same procedures must
  // land at least one rewrite and leave a well-formed procedure.
  std::string Dir = EXO_SOURCE_DIR "/tests/corpus";
  std::vector<std::string> Files;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().filename().string().find("_deep") != std::string::npos)
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_GE(Files.size(), 5u) << "deep-nesting corpus shrank";

  std::function<unsigned(const Block &)> LoopDepth =
      [&](const Block &B) -> unsigned {
    unsigned Max = 0;
    for (const StmtRef &S : B) {
      unsigned Sub = std::max(LoopDepth(S->body()), LoopDepth(S->orelse()));
      if (S->kind() == StmtKind::For)
        ++Sub;
      Max = std::max(Max, Sub);
    }
    return Max;
  };

  for (const std::string &F : Files) {
    auto Case = exo::testing::readCorpusFile(F);
    ASSERT_TRUE(bool(Case)) << F << ": " << Case.error().str();
    auto OC = exo::testing::materializeCorpus(*Case);
    ASSERT_TRUE(bool(OC)) << F << ": " << OC.error().str();

    ProcRef P = parse(Case->Source.c_str());
    EXPECT_GE(LoopDepth(P->body()), 6u) << F << " lost its deep nest";

    exo::testing::Rng R(Case->Seed);
    exo::testing::ScheduleGenOptions O;
    exo::testing::ScheduleResult SR = exo::testing::generateSchedule(P, R, O);
    EXPECT_GT(SR.Accepted, 0u) << F;
    std::vector<std::string> Errs = wellFormednessErrors(*SR.Scheduled);
    EXPECT_TRUE(Errs.empty()) << F << ": " << Errs.front();
  }
}
