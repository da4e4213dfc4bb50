//===- tests/BatchDriverTest.cpp - Batch compilation tests -----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for CompileSession / BatchDriver: parallel batches must produce
/// byte-identical output to serial ones, job failures must be recorded
/// with their structured payload rather than aborting the batch, and
/// per-session solver options must actually reach the solver.
///
//===----------------------------------------------------------------------===//

#include "driver/BatchDriver.h"
#include "driver/KernelSuite.h"

#include "frontend/Parser.h"
#include "scheduling/Schedule.h"
#include "smt/Simplify.h"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

using namespace exo;
using namespace exo::driver;
using namespace exo::ir;
using namespace exo::scheduling;

namespace {

/// Disable the preprocessing pipeline for tests that starve the Cooper
/// literal budget: with the pipeline on, the staging containment proofs
/// are decided without consuming any literals, so a one-literal budget
/// no longer fails. The config is a process-global atomic, so this also
/// covers the BatchDriver worker threads.
struct ScopedSimplifyOff {
  smt::SimplifyConfig Saved = smt::simplifyConfig();
  ScopedSimplifyOff() { smt::setSimplifyEnabled(false); }
  ~ScopedSimplifyOff() { smt::setSimplifyConfig(Saved); }
};

const char *GemmSrc = R"(
@proc
def gemm(A: R[64, 64], B: R[64, 64], C: R[64, 64]):
    for i in seq(0, 64):
        for j in seq(0, 64):
            for k in seq(0, 64):
                C[i, j] += A[i, k] * B[k, j]
)";

/// A cheap job: parse, tile, emit.
CompileJob tiledGemmJob(std::string Name, int Factor) {
  return {std::move(Name),
          [Factor]() -> Expected<std::vector<ProcRef>> {
            auto P = frontend::parseProc(GemmSrc);
            if (!P)
              return P.error();
            Schedule S(*P);
            S.split("i", Factor, "io", "ii", SplitTail::Perfect)
                .split("j", Factor, "jo", "ji", SplitTail::Perfect)
                .reorder("ii")
                .simplify();
            auto Q = S.proc();
            if (!Q)
              return Q.error();
            return std::vector<ProcRef>{*Q};
          },
          /*BuildReference=*/{}};
}

/// A job that fails inside a scheduling operator (bad pattern).
CompileJob failingJob() {
  return {"bad_pattern",
          []() -> Expected<std::vector<ProcRef>> {
            auto P = frontend::parseProc(GemmSrc);
            if (!P)
              return P.error();
            auto Q = Schedule(*P).split("nosuchloop", 8, "o", "i").proc();
            if (!Q)
              return Q.error();
            return std::vector<ProcRef>{*Q};
          },
          /*BuildReference=*/{}};
}

TEST(BatchDriverTest, ParallelOutputBitIdenticalToSerial) {
  std::vector<CompileJob> Jobs;
  for (int F : {4, 8, 16, 32})
    Jobs.push_back(tiledGemmJob("gemm_tile" + std::to_string(F), F));

  BatchResult Serial = BatchDriver(1).run(Jobs);
  BatchResult Par = BatchDriver(4).run(Jobs);

  ASSERT_EQ(Serial.Jobs.size(), Jobs.size());
  ASSERT_EQ(Par.Jobs.size(), Jobs.size());
  EXPECT_TRUE(Serial.AllOk);
  EXPECT_TRUE(Par.AllOk);
  EXPECT_EQ(Par.Threads, 4u);
  for (size_t I = 0; I < Jobs.size(); ++I) {
    EXPECT_EQ(Par.Jobs[I].Name, Serial.Jobs[I].Name) << "order must hold";
    EXPECT_EQ(Par.Jobs[I].Output, Serial.Jobs[I].Output)
        << "job " << Serial.Jobs[I].Name;
    EXPECT_FALSE(Serial.Jobs[I].Output.empty());
  }
}

TEST(BatchDriverTest, FailureIsRecordedNotFatal) {
  std::vector<CompileJob> Jobs;
  Jobs.push_back(tiledGemmJob("ok_before", 8));
  Jobs.push_back(failingJob());
  Jobs.push_back(tiledGemmJob("ok_after", 16));

  BatchResult R = BatchDriver(2).run(Jobs);
  ASSERT_EQ(R.Jobs.size(), 3u);
  EXPECT_FALSE(R.AllOk);
  EXPECT_TRUE(R.Jobs[0].Ok);
  EXPECT_TRUE(R.Jobs[2].Ok);

  const JobResult &Bad = R.Jobs[1];
  EXPECT_FALSE(Bad.Ok);
  EXPECT_FALSE(Bad.ErrorKind.empty());
  EXPECT_FALSE(Bad.ErrorMessage.empty());
  // The facade stamps the structured payload: which operator, with which
  // (expanded) pattern.
  EXPECT_EQ(Bad.ErrorOp, "split");
  EXPECT_EQ(Bad.ErrorPattern, "for nosuchloop in _: _");
}

TEST(BatchDriverTest, SessionBudgetReachesSolver) {
  // With a one-literal budget the staging containment proof cannot
  // complete; the job must fail with the budget-exhausted verdict in its
  // payload. The preprocessing pipeline would decide these queries
  // without spending literals, so switch it off to keep Cooper on the
  // hook.
  ScopedSimplifyOff Off;
  std::vector<CompileJob> Jobs;
  Jobs.push_back({"starved",
                  []() -> Expected<std::vector<ProcRef>> {
                    auto P = frontend::parseProc(GemmSrc);
                    if (!P)
                      return P.error();
                    auto Q = Schedule(*P)
                                 .split("i", 8, "io", "ii",
                                        SplitTail::Perfect)
                                 .stage("for j in _: _", 1,
                                        "A[8 * io : 8 * io + 8, 0 : 64]",
                                        "a_tile")
                                 .proc();
                    if (!Q)
                      return Q.error();
                    return std::vector<ProcRef>{*Q};
                  },
                  /*BuildReference=*/{}});

  SessionOptions Starved;
  Starved.MaxLiterals = 1;
  BatchResult R = BatchDriver(1, Starved).run(Jobs);
  ASSERT_EQ(R.Jobs.size(), 1u);
  EXPECT_FALSE(R.Jobs[0].Ok);
  EXPECT_EQ(R.Jobs[0].ErrorVerdict,
            scheduleVerdictName(ScheduleErrorInfo::Verdict::UnknownBudget));

  // The same job under default options succeeds — the scoped defaults did
  // not leak out of the starved session.
  BatchResult Ok = BatchDriver(1).run(Jobs);
  EXPECT_TRUE(Ok.AllOk) << Ok.Jobs[0].ErrorMessage;
}

TEST(BatchDriverTest, DrainCompletesEveryJobExactlyOnceUnderWatchdog) {
  // Two workers, six jobs: fast jobs queued behind Build lambdas that
  // sleep well past the deadline without ever polling it. Cooperative
  // cancellation can't see the sleepers — the watchdog must. The drain
  // contract under test: run() returns only after every job (queued,
  // in-flight, or overdue) reached a terminal result, in input order,
  // exactly once, and the pool survives to run another batch.
  auto sleepyJob = [](std::string Name, int Millis) {
    return CompileJob{std::move(Name),
                      [Millis]() -> Expected<std::vector<ProcRef>> {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(Millis));
                        auto P = frontend::parseProc(GemmSrc);
                        if (!P)
                          return P.error();
                        return std::vector<ProcRef>{*P};
                      },
                      /*BuildReference=*/{}};
  };
  std::vector<CompileJob> Jobs;
  Jobs.push_back(sleepyJob("overdue_a", 900));
  Jobs.push_back(tiledGemmJob("fast_1", 4));
  Jobs.push_back(sleepyJob("overdue_b", 900));
  Jobs.push_back(tiledGemmJob("fast_2", 8));
  Jobs.push_back(tiledGemmJob("fast_3", 16));
  Jobs.push_back(tiledGemmJob("fast_4", 32));

  SessionOptions SO;
  SO.DeadlineMillis = 400; // per job, measured from job start
  BatchResult R = BatchDriver(2, SO).run(Jobs);

  ASSERT_EQ(R.Jobs.size(), Jobs.size());
  std::set<std::string> Names;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    EXPECT_EQ(R.Jobs[I].Name, Jobs[I].Name) << "order must hold";
    EXPECT_TRUE(Names.insert(R.Jobs[I].Name).second);
    // Terminal exactly once: success carries output, failure a diagnosis.
    if (R.Jobs[I].Ok)
      EXPECT_FALSE(R.Jobs[I].Output.empty()) << R.Jobs[I].Name;
    else
      EXPECT_FALSE(R.Jobs[I].ErrorKind.empty()) << R.Jobs[I].Name;
  }

  EXPECT_FALSE(R.AllOk);
  EXPECT_GE(R.NumDeadlineMiss, 2u);
  for (size_t I : {size_t(0), size_t(2)}) {
    EXPECT_FALSE(R.Jobs[I].Ok) << R.Jobs[I].Name;
    EXPECT_TRUE(R.Jobs[I].DeadlineMiss) << R.Jobs[I].Name;
  }
  for (size_t I : {size_t(1), size_t(3), size_t(4), size_t(5)})
    EXPECT_TRUE(R.Jobs[I].Ok)
        << R.Jobs[I].Name << ": " << R.Jobs[I].ErrorMessage;

  // The overdue jobs were reported, not killed; the same configuration
  // runs a clean follow-up batch.
  BatchResult Again = BatchDriver(2, SO).run({tiledGemmJob("after", 8)});
  EXPECT_TRUE(Again.AllOk)
      << (Again.Jobs.empty() ? "" : Again.Jobs[0].ErrorMessage);
}

TEST(BatchDriverTest, SecondCompileOfSameKernelHitsAcrossJobs) {
  // Compiling the same kernel twice in one process must give the same C:
  // the second compile parses fresh IR (new Syms, new VarIds) and runs
  // after the first has left the process-wide term interner warm, which is
  // what exocc-serve and exocc-tune do on every request and candidate.

  std::vector<CompileJob> Suite = standardKernelSuite();
  std::vector<CompileJob> One;
  for (CompileJob &J : Suite)
    if (J.Name == "fig4a_gemmini_matmul")
      One.push_back(J);
  ASSERT_EQ(One.size(), 1u);

  BatchResult Cold = BatchDriver(1).run(One);
  ASSERT_TRUE(Cold.AllOk) << Cold.Jobs[0].ErrorMessage;

  BatchResult Warm = BatchDriver(1).run(One);
  ASSERT_TRUE(Warm.AllOk) << Warm.Jobs[0].ErrorMessage;

  EXPECT_EQ(Warm.Jobs[0].Output, Cold.Jobs[0].Output)
      << "warm compile must be byte-identical to cold";
}

TEST(BatchDriverTest, StandardSuiteIsWellFormed) {
  std::vector<CompileJob> Jobs = standardKernelSuite();
  EXPECT_GE(Jobs.size(), 6u);
  std::set<std::string> Names;
  for (const CompileJob &J : Jobs) {
    EXPECT_TRUE(J.Build != nullptr);
    EXPECT_TRUE(J.BuildReference != nullptr)
        << J.Name << " has no --fallback-reference target";
    EXPECT_TRUE(Names.insert(J.Name).second) << "duplicate " << J.Name;
  }
}

} // namespace
