//===- tests/ResilienceTest.cpp - Failure-model tests ----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the failure model end to end (DESIGN.md, "Failure model"):
/// deadlines and cooperative cancellation, deterministic fault injection,
/// the retry policy's budget-vs-structural Unknown split, graceful
/// degradation to reference C, and the Gemmini runtime's trap bridge.
/// This suite lives in its own binary so it can be rebuilt with
/// -DEXO_ENABLE_ASAN=ON and run via `ctest -L asan`.
///
//===----------------------------------------------------------------------===//

#include "driver/BatchDriver.h"
#include "support/Deadline.h"
#include "support/FaultInjector.h"

#include "frontend/Parser.h"
#include "gemmini_sim.h"
#include "scheduling/Schedule.h"
#include "smt/Simplify.h"
#include "smt/Solver.h"

#include <gtest/gtest.h>

#include <thread>

using namespace exo;
using namespace exo::driver;
using namespace exo::ir;
using namespace exo::scheduling;
using support::Deadline;
using support::Fault;
using support::FaultInjector;
using support::ScopedDeadline;

namespace {

//===----------------------------------------------------------------------===
// Deadlines
//===----------------------------------------------------------------------===

TEST(DeadlineTest, NeverNeverExpires) {
  Deadline D = Deadline::never();
  EXPECT_FALSE(D.isFinite());
  EXPECT_FALSE(D.expired());
  EXPECT_EQ(D.remainingMillis(), -1);
}

TEST(DeadlineTest, NonPositiveMillisAlreadyExpired) {
  EXPECT_TRUE(Deadline::afterMillis(0).expired());
  EXPECT_TRUE(Deadline::afterMillis(-5).expired());
  EXPECT_FALSE(Deadline::afterMillis(60000).expired());
}

TEST(DeadlineTest, EarlierPicksTheTighterOne) {
  Deadline Inf = Deadline::never();
  Deadline Soon = Deadline::afterMillis(1);
  Deadline Late = Deadline::afterMillis(60000);
  EXPECT_EQ(Deadline::earlier(Inf, Soon).remainingMillis(),
            Soon.remainingMillis());
  EXPECT_FALSE(Deadline::earlier(Inf, Inf).isFinite());
  EXPECT_LE(Deadline::earlier(Soon, Late).remainingMillis(),
            Soon.remainingMillis());
}

TEST(DeadlineTest, ScopesNestAndOnlyTighten) {
  EXPECT_FALSE(support::currentThreadDeadline().isFinite());
  {
    ScopedDeadline Outer(Deadline::afterMillis(50));
    int64_t OuterLeft = support::threadDeadlineRemainingMillis();
    ASSERT_GE(OuterLeft, 0);
    {
      // An inner scope asking for *more* time must not get it.
      ScopedDeadline Inner(Deadline::afterMillis(60000));
      EXPECT_LE(support::threadDeadlineRemainingMillis(), OuterLeft);
    }
    {
      // An inner scope asking for less tightens.
      ScopedDeadline Inner(Deadline::afterMillis(1));
      EXPECT_LE(support::threadDeadlineRemainingMillis(), 1);
    }
    EXPECT_TRUE(support::currentThreadDeadline().isFinite());
  }
  EXPECT_FALSE(support::currentThreadDeadline().isFinite());
}

TEST(DeadlineTest, ExpiryIsObservedOnTheThread) {
  ScopedDeadline Scope(Deadline::afterMillis(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(support::threadDeadlineExpired());
}

//===----------------------------------------------------------------------===
// Fault injector
//===----------------------------------------------------------------------===

class FaultInjectorTest : public ::testing::Test {
protected:
  void TearDown() override { FaultInjector::instance().reset(); }
};

TEST_F(FaultInjectorTest, OffByDefaultAndAfterReset) {
  FaultInjector &I = FaultInjector::instance();
  I.reset();
  EXPECT_FALSE(I.enabled());
  EXPECT_FALSE(I.shouldFire(Fault::SolverTimeout));
}

TEST_F(FaultInjectorTest, MalformedSpecsRejected) {
  FaultInjector &I = FaultInjector::instance();
  EXPECT_FALSE(bool(I.configure("no-such-kind", 1)));
  EXPECT_FALSE(bool(I.configure("solver-timeout@nan", 1)));
  EXPECT_FALSE(bool(I.configure("solver-timeout@2.0", 1)));
  EXPECT_FALSE(bool(I.configure("solver-timeout*", 1)));
  EXPECT_FALSE(I.enabled()) << "failed configure must not arm injection";
}

TEST_F(FaultInjectorTest, CountLimitedPlanFiresExactly) {
  FaultInjector &I = FaultInjector::instance();
  ASSERT_TRUE(bool(I.configure("alloc-fail*2", 7)));
  int Fired = 0;
  for (int K = 0; K < 10; ++K)
    Fired += I.shouldFire(Fault::AllocFail) ? 1 : 0;
  EXPECT_EQ(Fired, 2);
  EXPECT_EQ(I.fireCount(Fault::AllocFail), 2u);
  EXPECT_EQ(I.checkCount(Fault::AllocFail), 10u);
  // Other kinds stay silent.
  EXPECT_FALSE(I.shouldFire(Fault::RuntimeTrap));
}

TEST_F(FaultInjectorTest, ProbabilisticPlanIsSeedDeterministic) {
  FaultInjector &I = FaultInjector::instance();
  auto sequence = [&](uint64_t Seed) {
    EXPECT_TRUE(bool(I.configure("runtime-trap@0.5", Seed)));
    std::vector<bool> S;
    for (int K = 0; K < 64; ++K)
      S.push_back(I.shouldFire(Fault::RuntimeTrap));
    return S;
  };
  std::vector<bool> A = sequence(42), B = sequence(42), C = sequence(43);
  EXPECT_EQ(A, B) << "same seed, same fault sequence";
  EXPECT_NE(A, C) << "different seed should diverge (64 draws)";
}

//===----------------------------------------------------------------------===
// Retry policy: budget vs structural vs timeout Unknowns
//===----------------------------------------------------------------------===

const char *GemmSrc = R"(
@proc
def gemm(A: R[64, 64], B: R[64, 64], C: R[64, 64]):
    for i in seq(0, 64):
        for j in seq(0, 64):
            for k in seq(0, 64):
                C[i, j] += A[i, k] * B[k, j]
)";

const char *SymLoopSrc = R"(
@proc
def symloop(n: size, A: R[n]):
    for i in seq(0, n):
        A[i] = 0.0
)";

/// Needs a real containment proof: starved budgets report Unknown{budget},
/// comfortable ones succeed. This is the retry policy's bread and butter.
CompileJob stagedGemmJob() {
  return {"staged_gemm",
          []() -> Expected<std::vector<ProcRef>> {
            auto P = frontend::parseProc(GemmSrc);
            if (!P)
              return P.error();
            auto Q = Schedule(*P)
                         .split("i", 8, "io", "ii", SplitTail::Perfect)
                         .stage("for j in _: _", 1,
                                "A[8 * io : 8 * io + 8, 0 : 64]", "a_tile")
                         .proc();
            if (!Q)
              return Q.error();
            return std::vector<ProcRef>{*Q};
          },
          /*BuildReference=*/{}};
}

/// Splitting a symbolic-bound loop by 4099 (> the solver's MaxPeriod cap
/// of 4096) forces the divisibility proof outside the decidable budget:
/// a *structural* Unknown that no budget increase can fix.
CompileJob structuralUnknownJob() {
  return {"structural_split",
          []() -> Expected<std::vector<ProcRef>> {
            auto P = frontend::parseProc(SymLoopSrc);
            if (!P)
              return P.error();
            auto Q = Schedule(*P)
                         .split("i", 4099, "io", "ii", SplitTail::Perfect)
                         .proc();
            if (!Q)
              return Q.error();
            return std::vector<ProcRef>{*Q};
          },
          /*BuildReference=*/
          []() -> Expected<std::vector<ProcRef>> {
            auto P = frontend::parseProc(SymLoopSrc);
            if (!P)
              return P.error();
            return std::vector<ProcRef>{*P};
          }};
}

/// Pins the preprocessing pipeline off for one test so MaxLiterals = 1
/// genuinely starves Cooper — with the pipeline on, the staged-gemm
/// containment queries are decided before any literal is charged and the
/// budget never runs out.
struct ScopedSimplifyOff {
  smt::SimplifyConfig Saved = smt::simplifyConfig();
  ScopedSimplifyOff() { smt::setSimplifyEnabled(false); }
  ~ScopedSimplifyOff() { smt::setSimplifyConfig(Saved); }
};

TEST(RetryPolicyTest, BudgetUnknownRetriedWithEscalatedBudgetSucceeds) {
  ScopedSimplifyOff Off;
  SessionOptions Opts;
  Opts.MaxLiterals = 1; // starve the first attempt
  Opts.MaxRetries = 1;
  Opts.RetryBudgetFactor = smt::defaultMaxLiterals();
  JobResult R = CompileSession(Opts).run(stagedGemmJob());
  EXPECT_TRUE(R.Ok) << R.ErrorMessage;
  EXPECT_EQ(R.Retries, 1u);
  EXPECT_EQ(R.FinalMaxLiterals, smt::defaultMaxLiterals());
  EXPECT_FALSE(R.Degraded);
  EXPECT_TRUE(R.ErrorVerdict.empty())
      << "a retried-then-successful job must not carry stale error state";
}

TEST(RetryPolicyTest, EscalationProbesFailedQueryBeforeFullRerun) {
  // The retry loop must first re-prove only the recorded failed query
  // under the escalated budget (cheap probe) and re-run the whole job
  // only once the probe's verdict changes. With the pipeline off and a
  // one-literal budget, the staging containment query goes
  // budget-Unknown; one escalation to the default budget flips it, so
  // exactly one probe runs and the full re-run succeeds.
  ScopedSimplifyOff Off;
  SessionOptions Opts;
  Opts.MaxLiterals = 1;
  Opts.MaxRetries = 1;
  Opts.RetryBudgetFactor = smt::defaultMaxLiterals();
  JobResult R = CompileSession(Opts).run(stagedGemmJob());
  EXPECT_TRUE(R.Ok) << R.ErrorMessage;
  EXPECT_EQ(R.RetryProbes, 1u);
  EXPECT_EQ(R.RetryPath, "probe");
}

TEST(RetryPolicyTest, ProbeExhaustionSkipsFullRerun) {
  // When every escalation step still leaves the probe Unknown, the full
  // job is never re-run: the session fails with the probe-exhausted
  // path recorded and only the initial attempt's verdict.
  ScopedSimplifyOff Off;
  SessionOptions Opts;
  Opts.MaxLiterals = 1;
  Opts.MaxRetries = 3;
  Opts.RetryBudgetFactor = 1; // escalation that never actually grows
  JobResult R = CompileSession(Opts).run(stagedGemmJob());
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Retries, 0u)
      << "a full re-run must not happen while probes stay Unknown";
  EXPECT_EQ(R.RetryProbes, 3u);
  EXPECT_EQ(R.RetryPath, "probe-exhausted");
  EXPECT_EQ(R.ErrorVerdict,
            scheduleVerdictName(ScheduleErrorInfo::Verdict::UnknownBudget));
}

TEST(RetryPolicyTest, PipelineDecidesStarvedQueriesOutright) {
  // The flip side of the starvation tests above: with the preprocessing
  // pipeline ON, the same staged-gemm containment proofs are decided
  // during preprocessing and the one-literal session succeeds with no
  // retries at all. (This schedule was a budget-Unknown before the
  // pipeline existed.)
  SessionOptions Opts;
  Opts.MaxLiterals = 1;
  JobResult R = CompileSession(Opts).run(stagedGemmJob());
  EXPECT_TRUE(R.Ok) << R.ErrorMessage;
  EXPECT_EQ(R.Retries, 0u);
  EXPECT_GT(R.SimplifyDecided + R.FastPathHits, 0u);
}

TEST(RetryPolicyTest, BudgetUnknownWithoutRetriesStaysFailed) {
  ScopedSimplifyOff Off;
  SessionOptions Opts;
  Opts.MaxLiterals = 1;
  JobResult R = CompileSession(Opts).run(stagedGemmJob());
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Retries, 0u);
  EXPECT_EQ(R.ErrorVerdict,
            scheduleVerdictName(ScheduleErrorInfo::Verdict::UnknownBudget));
}

TEST(RetryPolicyTest, StructuralUnknownNeverRetried) {
  SessionOptions Opts;
  Opts.MaxRetries = 5; // plenty of retries on offer; none may be taken
  JobResult R = CompileSession(Opts).run(structuralUnknownJob());
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Retries, 0u)
      << "structural Unknowns are final (conservative rejection); retrying "
         "with a bigger budget is wasted work";
  EXPECT_EQ(R.ErrorVerdict, scheduleVerdictName(
                                ScheduleErrorInfo::Verdict::UnknownStructural))
      << R.ErrorMessage;
}

TEST(RetryPolicyTest, FallbackReferenceDegradesStructuralFailure) {
  SessionOptions Opts;
  Opts.FallbackReference = true;
  JobResult R = CompileSession(Opts).run(structuralUnknownJob());
  EXPECT_TRUE(R.Ok);
  EXPECT_TRUE(R.Degraded);
  EXPECT_FALSE(R.Output.empty()) << "degraded job still emits reference C";
  // The schedule's failure stays visible on the result.
  EXPECT_EQ(R.ErrorVerdict, scheduleVerdictName(
                                ScheduleErrorInfo::Verdict::UnknownStructural));
}

//===----------------------------------------------------------------------===
// Fault injection through the whole driver stack
//===----------------------------------------------------------------------===

class InjectionTest : public ::testing::Test {
protected:
  void TearDown() override { FaultInjector::instance().reset(); }
};

TEST_F(InjectionTest, SolverTimeoutFailsOneJobAtDeadlineSiblingsComplete) {
  // One injected wedged query: the victim job burns its deadline and
  // fails with the timeout verdict; the sibling compiles untouched. One
  // worker makes the victim deterministic (first job, first query).
  ASSERT_TRUE(bool(
      FaultInjector::instance().configure("solver-timeout*1", 1234)));
  std::vector<CompileJob> Jobs;
  Jobs.push_back(stagedGemmJob());
  Jobs.push_back(stagedGemmJob());
  Jobs[1].Name = "sibling";

  SessionOptions Opts;
  Opts.DeadlineMillis = 200;
  BatchResult R = BatchDriver(1, Opts).run(Jobs);
  ASSERT_EQ(R.Jobs.size(), 2u);

  const JobResult &Victim = R.Jobs[0], &Sibling = R.Jobs[1];
  EXPECT_FALSE(Victim.Ok);
  EXPECT_TRUE(Victim.DeadlineMiss);
  EXPECT_GE(Victim.WallMillis, 190.0) << "must fail at the deadline, "
                                         "not instantly";
  EXPECT_EQ(Victim.ErrorVerdict,
            scheduleVerdictName(ScheduleErrorInfo::Verdict::UnknownTimeout));
  EXPECT_EQ(Victim.Retries, 0u) << "timeouts are not retryable";

  EXPECT_TRUE(Sibling.Ok) << Sibling.ErrorMessage;
  EXPECT_FALSE(Sibling.DeadlineMiss);

  EXPECT_FALSE(R.AllOk);
  EXPECT_EQ(R.NumFailed, 1u);
  EXPECT_EQ(R.NumDeadlineMiss, 1u);
}

TEST_F(InjectionTest, InjectedBudgetUnknownRetriedAndSucceeds) {
  // The injected verdict hits the first query of attempt #1; the retry
  // (injection budget spent) re-solves cleanly under the escalated
  // budget. Unknown results are never cached, so the retry really does
  // re-run the query.
  ASSERT_TRUE(
      bool(FaultInjector::instance().configure("budget-unknown*1", 99)));
  SessionOptions Opts;
  Opts.MaxRetries = 1;
  JobResult R = CompileSession(Opts).run(stagedGemmJob());
  EXPECT_TRUE(R.Ok) << R.ErrorMessage;
  EXPECT_EQ(R.Retries, 1u);
  EXPECT_FALSE(R.Degraded);
}

TEST_F(InjectionTest, InjectedBudgetUnknownWithoutRetryFails) {
  ASSERT_TRUE(
      bool(FaultInjector::instance().configure("budget-unknown*1", 99)));
  JobResult R = CompileSession().run(stagedGemmJob());
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrorVerdict,
            scheduleVerdictName(ScheduleErrorInfo::Verdict::UnknownBudget));
}

TEST_F(InjectionTest, AllocFailureSurfacesAsBackendError) {
  ASSERT_TRUE(bool(FaultInjector::instance().configure("alloc-fail*1", 5)));
  JobResult R = CompileSession().run(stagedGemmJob());
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.ErrorMessage.find("injected allocation failure"),
            std::string::npos)
      << R.ErrorMessage;
}

//===----------------------------------------------------------------------===
// Gemmini runtime trap bridge
//===----------------------------------------------------------------------===

namespace trap_log {
int Code = GEMMINI_TRAP_NONE;
void record(int C, const char *) { Code = C; }
} // namespace trap_log

TEST_F(InjectionTest, RuntimeTrapBridgesIntoGemminiSim) {
  // The runtime-trap kind reaches the (C, compiler-independent) simulator
  // through the gemmini_set_fault_fn hook; a firing check raises a
  // structured GEMMINI_TRAP_INJECTED through the trap handler, skipping
  // the instruction — all deterministic under the fixed seed.
  ASSERT_TRUE(
      bool(FaultInjector::instance().configure("runtime-trap*1", 2024)));
  gemmini_reset(EXO_GEMMINI_MODE_SW);
  gemmini_clear_traps();
  trap_log::Code = GEMMINI_TRAP_NONE;
  gemmini_trap_fn Prev = gemmini_set_trap_handler(trap_log::record);
  gemmini_set_fault_fn(+[]() -> int {
    auto &I = FaultInjector::instance();
    return I.enabled() && I.shouldFire(Fault::RuntimeTrap) ? 1 : 0;
  });

  float Src[16] = {0}, Spad[16] = {0};
  gemmini_config_ld(16);
  gemmini_mvin(Src, Spad, 16, 1, 16); // first data op: injected trap
  EXPECT_EQ(trap_log::Code, GEMMINI_TRAP_INJECTED);
  EXPECT_EQ(gemmini_trap_count(), 1u);
  gemmini_mvin(Src, Spad, 16, 1, 16); // plan spent: runs clean
  EXPECT_EQ(gemmini_trap_count(), 1u);

  gemmini_set_fault_fn(nullptr);
  gemmini_set_trap_handler(Prev);
  gemmini_clear_traps();
}

//===----------------------------------------------------------------------===
// Batch-level reporting
//===----------------------------------------------------------------------===

TEST(BatchReportTest, CountersCoverFailureModes) {
  std::vector<CompileJob> Jobs;
  Jobs.push_back(stagedGemmJob());
  Jobs.push_back(structuralUnknownJob());

  SessionOptions Opts;
  Opts.FallbackReference = true;
  BatchResult R = BatchDriver(2, Opts).run(Jobs);
  ASSERT_EQ(R.Jobs.size(), 2u);
  EXPECT_TRUE(R.AllOk) << "degradation counts as success under fallback";
  EXPECT_EQ(R.NumFailed, 0u);
  EXPECT_EQ(R.NumDegraded, 1u);
  EXPECT_TRUE(R.Jobs[1].Degraded);
  EXPECT_FALSE(R.Jobs[0].Degraded);
}

} // namespace
