//===- tests/FuzzTest.cpp - Differential fuzzing harness tests -----------===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Unit and regression tests for src/testing/: the deterministic RNG, the
// random program generator, schedule-trace replay, the corpus format, the
// triple oracle, the shrinker, and the two snapshot suites —
// FuzzRegressionTest (tests/corpus/*.fuzz) and GoldenCodeGenTest
// (tests/golden/*.c).
//
//===----------------------------------------------------------------------===//

#include "testing/Fuzzer.h"

#include "driver/CompileSession.h"
#include "driver/KernelSuite.h"
#include "frontend/Parser.h"
#include "frontend/StaticChecks.h"
#include "frontend/TypeCheck.h"
#include "interp/Interp.h"
#include "ir/Builder.h"
#include "ir/Printer.h"
#include "ir/StructuralEq.h"
#include "scheduling/Cursor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace exo;
using namespace exo::ir;
using namespace exo::testing;

#ifndef EXO_SOURCE_DIR
#define EXO_SOURCE_DIR "."
#endif

namespace {

/// Alpha-equivalence for two procs that share argument Syms (same origin).
bool sameBody(const ProcRef &A, const ProcRef &B) {
  return alphaEquivalent(A->body(), B->body(), {});
}

/// Alpha-equivalence for procs from independent constructions (argument
/// Syms are free variables of the bodies, so they must be pre-mapped).
bool equivalentProcs(const ProcRef &A, const ProcRef &B) {
  if (A->args().size() != B->args().size())
    return false;
  std::unordered_map<Sym, Sym> Map;
  for (size_t I = 0; I < A->args().size(); ++I)
    Map[A->args()[I].Name] = B->args()[I].Name;
  return alphaEquivalent(A->body(), B->body(), std::move(Map));
}

bool hasUnsoundStep(const std::vector<ScheduleStep> &Trace) {
  return std::any_of(Trace.begin(), Trace.end(), [](const ScheduleStep &S) {
    return S.Op == "unsound_drop_iter";
  });
}

} // namespace

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(FuzzRng, DeterministicAcrossInstances) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(FuzzRng, RangeStaysInBounds) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    int64_t V = R.range(-3, 5);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 5);
  }
}

TEST(FuzzRng, ForkIsIndependentStream) {
  Rng A(1);
  Rng F = A.fork();
  // The fork must not replay the parent's stream.
  Rng B(1);
  B.next(); // consume the draw that seeded the fork
  EXPECT_NE(F.next(), B.next());
}

//===----------------------------------------------------------------------===//
// ProgramGen
//===----------------------------------------------------------------------===//

TEST(ProgramGen, DeterministicForEqualSeeds) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    auto A = generateProgram(Seed);
    auto B = generateProgram(Seed);
    ASSERT_TRUE(A) << A.error().str();
    ASSERT_TRUE(B) << B.error().str();
    EXPECT_TRUE(equivalentProcs(A->Proc, B->Proc)) << "seed " << Seed;
    EXPECT_EQ(A->Args.size(), B->Args.size());
  }
}

TEST(ProgramGen, GeneratedProgramsAreStaticallyValid) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    auto G = generateProgram(Seed);
    ASSERT_TRUE(G) << "seed " << Seed << ": " << G.error().str();
    auto TC = frontend::typeCheck(G->Proc);
    EXPECT_TRUE(TC) << "seed " << Seed << ": " << TC.error().str();
    auto BC = frontend::boundsCheck(G->Proc);
    EXPECT_TRUE(BC) << "seed " << Seed << ": " << BC.error().str();
  }
}

TEST(ProgramGen, PrintedSourceReparses) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    auto G = generateProgram(Seed);
    ASSERT_TRUE(G) << G.error().str();
    auto P = frontend::parseProc(G->Proc->str());
    ASSERT_TRUE(P) << "seed " << Seed << ": " << P.error().str();
    EXPECT_EQ((*P)->args().size(), G->Proc->args().size());
  }
}

TEST(ProgramGen, ArgSpecsRecomputeFromControls) {
  auto G = generateProgram(3);
  ASSERT_TRUE(G) << G.error().str();
  std::map<std::string, int64_t> Controls;
  for (const ArgSpec &A : G->Args)
    if (A.IsControl)
      Controls[A.Name] = A.Value;
  auto Specs = argSpecsFor(G->Proc, Controls);
  ASSERT_TRUE(Specs) << Specs.error().str();
  ASSERT_EQ(Specs->size(), G->Args.size());
  for (size_t I = 0; I < Specs->size(); ++I) {
    EXPECT_EQ((*Specs)[I].IsControl, G->Args[I].IsControl);
    EXPECT_EQ((*Specs)[I].Dims, G->Args[I].Dims);
  }
}

//===----------------------------------------------------------------------===//
// ScheduleGen
//===----------------------------------------------------------------------===//

TEST(ScheduleGen, StepSerializationRoundTrips) {
  ScheduleStep S{"split", {"i0", "4", "i0o", "i0i", "guard"}};
  auto P = ScheduleStep::parse(S.str());
  ASSERT_TRUE(P) << P.error().str();
  EXPECT_EQ(P->Op, S.Op);
  EXPECT_EQ(P->Args, S.Args);

  ScheduleStep Bare{"simplify", {}};
  auto Q = ScheduleStep::parse(Bare.str());
  ASSERT_TRUE(Q) << Q.error().str();
  EXPECT_EQ(Q->Op, "simplify");
  EXPECT_TRUE(Q->Args.empty());
}

TEST(ScheduleGen, TraceReplayIsDeterministic) {
  unsigned Replayed = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    auto G = generateProgram(Seed);
    ASSERT_TRUE(G) << G.error().str();
    Rng R(Seed * 1000 + 17);
    ScheduleResult SR = generateSchedule(G->Proc, R);
    if (SR.Trace.empty())
      continue;
    auto Replay = applyTrace(G->Proc, SR.Trace);
    ASSERT_TRUE(Replay) << "seed " << Seed << ": " << Replay.error().str();
    EXPECT_TRUE(sameBody(SR.Scheduled, *Replay)) << "seed " << Seed;
    ++Replayed;
  }
  EXPECT_GT(Replayed, 0u) << "no schedule landed on any seed";
}

TEST(ScheduleGen, RejectsUnknownOperator) {
  auto G = generateProgram(1);
  ASSERT_TRUE(G) << G.error().str();
  EXPECT_FALSE(applyStep(G->Proc, ScheduleStep{"no_such_op", {}}));
}

//===----------------------------------------------------------------------===//
// Corpus format
//===----------------------------------------------------------------------===//

TEST(Corpus, RenderParseRoundTrips) {
  auto Case = makeCorpusCase(5, 1, GenOptions{}, ScheduleGenOptions{});
  ASSERT_TRUE(Case) << Case.error().str();
  auto Back = parseCorpus(renderCorpus(*Case));
  ASSERT_TRUE(Back) << Back.error().str();
  EXPECT_EQ(Back->Seed, Case->Seed);
  EXPECT_EQ(Back->InputSeed, Case->InputSeed);
  EXPECT_EQ(Back->Controls, Case->Controls);
  ASSERT_EQ(Back->Trace.size(), Case->Trace.size());
  for (size_t I = 0; I < Back->Trace.size(); ++I)
    EXPECT_EQ(Back->Trace[I].str(), Case->Trace[I].str());
  // The re-parsed case must still materialize into a runnable oracle case.
  auto OC = materializeCorpus(*Back);
  ASSERT_TRUE(OC) << OC.error().str();
}

TEST(Corpus, ParserReportsMalformedInput) {
  EXPECT_FALSE(parseCorpus("seed not-a-number\n"));
  EXPECT_FALSE(parseCorpus("seed 1\n[trace]\nsplit|i\n")); // no [source]
  EXPECT_FALSE(parseCorpus("bogus 1\n[source]\nx\n"));     // unknown key
}

TEST(Corpus, MaterializedCasesAgreeUnderTripleOracle) {
  std::vector<OracleCase> Cases;
  for (uint64_t Seed : {3, 9}) {
    auto Case = makeCorpusCase(Seed, 1, GenOptions{}, ScheduleGenOptions{});
    ASSERT_TRUE(Case) << Case.error().str();
    auto OC = materializeCorpus(*Case);
    ASSERT_TRUE(OC) << OC.error().str();
    Cases.push_back(*OC);
  }
  auto Out = runOracle(Cases, OracleOptions{});
  ASSERT_TRUE(Out) << Out.error().str();
  for (size_t I = 0; I < Out->size(); ++I)
    EXPECT_TRUE((*Out)[I].ok())
        << oracleStatusName((*Out)[I].Status) << ": " << (*Out)[I].Detail;
}

//===----------------------------------------------------------------------===//
// Interp window semantics (regression: interp and generated C must agree
// on the out-of-range point-coordinate edge case)
//===----------------------------------------------------------------------===//

namespace {

// Builds `def f(A: R[4,4], Y: R[4]): w = A[Pt, 0:4]; Y[0] = w[0]` without
// running the static checks, so the interpreter's own bound check is what
// is under test.
ProcRef windowPointProc(int64_t Pt) {
  ProcBuilder B("win_edge");
  Sym A = B.tensorArg("A", ScalarKind::R, {litInt(4), litInt(4)});
  Sym Y = B.tensorArg("Y", ScalarKind::R, {litInt(4)});
  Sym W = B.windowAlias("w", A, {pt(litInt(Pt)), iv(litInt(0), litInt(4))});
  B.assign(Y, {litInt(0)}, B.rd(W, {litInt(0)}));
  return B.result();
}

Expected<bool> runWindowProc(const ProcRef &P) {
  std::vector<double> AD(16, 1.0), YD(4, 0.0);
  std::vector<interp::ArgValue> Args;
  Args.push_back(interp::ArgValue::buffer(
      interp::BufferView::dense(AD.data(), {4, 4})));
  Args.push_back(
      interp::ArgValue::buffer(interp::BufferView::dense(YD.data(), {4})));
  return interp::Interp().run(P, std::move(Args));
}

} // namespace

TEST(InterpWindow, PointCoordinateAtExtentIsRejected) {
  // A point coordinate equal to the dimension extent selects one element
  // past the buffer; the generated C would read out of bounds, so the
  // interpreter must reject it too (it used to accept Lo == extent).
  auto Bad = runWindowProc(windowPointProc(4));
  ASSERT_FALSE(Bad);
  EXPECT_EQ(Bad.error().kind(), Error::Kind::Bounds);
  // The static layer already rejected this program; the two now agree.
  EXPECT_FALSE(frontend::boundsCheck(windowPointProc(4)));
}

TEST(InterpWindow, PointCoordinateInsideExtentRuns) {
  auto Ok = runWindowProc(windowPointProc(3));
  EXPECT_TRUE(Ok) << Ok.error().str();
}

TEST(InterpWindow, EmptyIntervalAtExtentIsStillLegal) {
  // An interval lower bound *may* equal the extent (empty suffix window);
  // only point coordinates must be strictly inside.
  ProcBuilder B("win_empty");
  Sym A = B.tensorArg("A", ScalarKind::R, {litInt(4), litInt(4)});
  B.windowAlias("w", A, {iv(litInt(4), litInt(4)), iv(litInt(0), litInt(4))});
  B.pass();
  ProcRef P = B.result();
  std::vector<double> AD(16, 0.0);
  std::vector<interp::ArgValue> Args;
  Args.push_back(interp::ArgValue::buffer(
      interp::BufferView::dense(AD.data(), {4, 4})));
  auto R = interp::Interp().run(P, std::move(Args));
  EXPECT_TRUE(R) << R.error().str();
}

//===----------------------------------------------------------------------===//
// Unsound-injection acceptance: the oracle must catch a broken rewrite
// and the shrinker must reduce the trace to it.
//===----------------------------------------------------------------------===//

TEST(FuzzAcceptance, OracleCatchesInjectedUnsoundRewrite) {
  std::string ReproDir =
      std::filesystem::temp_directory_path() / "exo_fuzz_accept";
  std::filesystem::remove_all(ReproDir);

  FuzzOptions FO;
  FO.Seed = 1;
  FO.NumPrograms = 12;
  FO.SchedulesPerProgram = 2;
  FO.Sched.InjectUnsound = true;
  FO.Oracle.SkipC = true; // the interpreter pair alone must trip
  FO.ReproDir = ReproDir;

  auto R = runFuzz(FO);
  ASSERT_TRUE(R) << R.error().str();
  ASSERT_FALSE(R->Divergences.empty())
      << "injected unsound rewrite was never caught";

  const FuzzDivergence &D = R->Divergences.front();
  EXPECT_EQ(D.Outcome.Status, OracleStatus::ScheduleDivergence)
      << D.Outcome.Detail;
  // The shrinker must keep the unsound step (it is what breaks the case)
  // and must not grow the trace.
  EXPECT_TRUE(hasUnsoundStep(D.Shrunk.Trace));
  EXPECT_LE(D.Shrunk.Trace.size(), (size_t)D.FullTraceLen);

  // The written reproducer replays to the same failure.
  ASSERT_FALSE(D.ReproBase.empty());
  auto Case = readCorpusFile(D.ReproBase + ".fuzz");
  ASSERT_TRUE(Case) << Case.error().str();
  auto OC = materializeCorpus(*Case);
  ASSERT_TRUE(OC) << OC.error().str();
  OracleOptions OO;
  OO.SkipC = true;
  auto Out = runOracle(*OC, OO);
  ASSERT_TRUE(Out) << Out.error().str();
  EXPECT_FALSE(Out->ok()) << "shrunk reproducer no longer fails";
  EXPECT_TRUE(std::filesystem::exists(D.ReproBase + ".exo"));
  EXPECT_TRUE(std::filesystem::exists(D.ReproBase + ".cpp"));

  std::filesystem::remove_all(ReproDir);
}

TEST(FuzzAcceptance, UnsoundDropIterShrinksTheLoopCursorFindSelects) {
  // Three loops named i; the second is nested, so the ordinal follows
  // Cursor::find's pre-order, not the nesting depth.
  auto P = frontend::parseProc(R"(
@proc
def drop_iter(x: R[8]):
    for i in seq(0, 2):
        x[i] = 1.0
    for j in seq(0, 2):
        for i in seq(0, 3):
            x[i] = 2.0
    for i in seq(0, 4):
        x[i] = 3.0
)");
  ASSERT_TRUE(P) << P.error().str();
  auto loopHi = [](const ProcRef &Q, int Ord) {
    auto C = scheduling::Cursor::find(
        Q, "for i in _: _ #" + std::to_string(Ord));
    EXPECT_TRUE(C) << C.error().str();
    return C ? printExpr(C->stmts()[0]->hi()) : std::string();
  };
  for (int Target = 0; Target < 3; ++Target) {
    auto S = ScheduleStep::parse("unsound_drop_iter|i #" +
                                 std::to_string(Target));
    ASSERT_TRUE(S) << S.error().str();
    auto R = applyStep(*P, *S);
    ASSERT_TRUE(R) << R.error().str();
    for (int Ord = 0; Ord < 3; ++Ord)
      EXPECT_EQ(loopHi(*R, Ord),
                loopHi(*P, Ord) + (Ord == Target ? " - 1" : ""))
          << "target #" << Target << ", loop #" << Ord;
  }
  // A target that selects no loop is rejected, not guessed at.
  auto Miss = applyStep(*P, ScheduleStep{"unsound_drop_iter", {"i #3"}});
  EXPECT_FALSE(Miss);
}

TEST(FuzzAcceptance, CleanRunProducesStatsJson) {
  FuzzOptions FO;
  FO.Seed = 21;
  FO.NumPrograms = 2;
  FO.SchedulesPerProgram = 1;
  FO.Oracle.SkipC = true;
  auto R = runFuzz(FO);
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_TRUE(R->clean());
  EXPECT_EQ(R->Stats.Programs, 2u);
  EXPECT_EQ(R->Stats.Cases, 4u); // identity + 1 schedule per program
  std::string Json = statsJson(*R, FO);
  for (const char *Key : {"\"programs\"", "\"cases\"", "\"schedules\"",
                          "\"steps_accepted\"", "\"divergences\""})
    EXPECT_NE(Json.find(Key), std::string::npos) << Key;
}

//===----------------------------------------------------------------------===//
// Seed-corpus regression replay (tests/corpus/*.fuzz)
//===----------------------------------------------------------------------===//

TEST(FuzzRegression, SeedCorpusReplaysClean) {
  std::string Dir = EXO_SOURCE_DIR "/tests/corpus";
  ASSERT_TRUE(std::filesystem::is_directory(Dir))
      << Dir << " missing; regenerate with exocc-fuzz --emit-corpus";
  std::vector<std::string> Files;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".fuzz")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_GE(Files.size(), 20u) << "seed corpus shrank";

  std::vector<OracleCase> Cases;
  for (const std::string &F : Files) {
    auto Case = readCorpusFile(F);
    ASSERT_TRUE(Case) << F << ": " << Case.error().str();
    auto OC = materializeCorpus(*Case);
    ASSERT_TRUE(OC) << F << ": " << OC.error().str();
    Cases.push_back(*OC);
  }
  auto Out = runOracle(Cases, OracleOptions{});
  ASSERT_TRUE(Out) << Out.error().str();
  for (size_t I = 0; I < Out->size(); ++I)
    EXPECT_TRUE((*Out)[I].ok())
        << Files[I] << ": " << oracleStatusName((*Out)[I].Status) << ": "
        << (*Out)[I].Detail;
}

//===----------------------------------------------------------------------===//
// Golden-file CodeGen snapshots (tests/golden/*.c)
//===----------------------------------------------------------------------===//

TEST(GoldenCodeGen, SuiteKernelsMatchGoldenFiles) {
  driver::CompileSession Session;
  std::vector<driver::CompileJob> Suite = driver::standardKernelSuite();
  ASSERT_EQ(Suite.size(), 7u);
  for (const driver::CompileJob &Job : Suite) {
    driver::JobResult R = Session.run(Job);
    ASSERT_TRUE(R.Ok) << R.Name << ": " << R.ErrorMessage;
    std::string Path =
        std::string(EXO_SOURCE_DIR "/tests/golden/") + R.Name + ".c";
    std::ifstream In(Path);
    ASSERT_TRUE(In.good())
        << Path << " missing; regenerate with exocc-fuzz --update-golden";
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Golden = SS.str();
    if (R.Output != Golden) {
      size_t N = std::min(R.Output.size(), Golden.size());
      size_t At = 0;
      while (At < N && R.Output[At] == Golden[At])
        ++At;
      FAIL() << R.Name << ": generated C drifted from " << Path
             << " (first difference at byte " << At << " of "
             << R.Output.size() << "/" << Golden.size()
             << "); if the change is intended, refresh the snapshot with "
                "exocc-fuzz --update-golden";
    }
  }
}
