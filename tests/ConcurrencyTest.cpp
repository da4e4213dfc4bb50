//===- tests/ConcurrencyTest.cpp - Thread-safety stress tests --*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hammers every shared compiler structure — the sharded term interner,
/// the striped solver query cache, the symbol table, the thread pool
/// itself, the autotuner's concurrent module
/// builds and executions, and JIT modules split into translation units
/// built side by side — from many threads at once, and asserts the
/// results are bit-identical to a serial run. Built as its
/// own binary so it can also be compiled with -DEXO_ENABLE_TSAN=ON
/// (ctest label: tsan) to turn every latent data race into a hard
/// failure.
///
//===----------------------------------------------------------------------===//

#include "WideModule.h"
#include "analysis/Effects.h"
#include "backend/Backend.h"
#include "frontend/Parser.h"
#include "scheduling/Schedule.h"
#include "smt/Simplify.h"
#include "smt/Solver.h"
#include "support/ThreadPool.h"
#include "tuning/Tuner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace exo;
using namespace exo::ir;
using namespace exo::scheduling;

namespace {

constexpr unsigned NumThreads = 8;
constexpr unsigned Reps = 32;

/// Runs \p Fn on NumThreads threads, passing each its index.
template <typename Fn> void onThreads(Fn &&F) {
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < NumThreads; ++T)
    Ts.emplace_back([&F, T] { F(T); });
  for (std::thread &T : Ts)
    T.join();
}

const char *GemmSrc = R"(
@proc
def gemm(A: R[32, 32], B: R[32, 32], C: R[32, 32]):
    for i in seq(0, 32):
        for j in seq(0, 32):
            for k in seq(0, 32):
                C[i, j] += A[i, k] * B[k, j]
)";

ProcRef parseGemm() {
  auto P = frontend::parseProc(GemmSrc);
  if (!P)
    fatalError("test parse failed: " + P.error().str());
  return *P;
}

/// A deterministic term recipe over shared variables, parameterized so
/// different indices produce different shapes.
smt::TermRef recipe(const std::vector<smt::TermVar> &Vars, unsigned K) {
  using namespace exo::smt;
  TermRef T = intConst(static_cast<int64_t>(K % 5));
  for (unsigned I = 0; I < Vars.size(); ++I)
    T = add(T, mul(static_cast<int64_t>(1 + (K + I) % 4), mkVar(Vars[I])));
  return le(T, intConst(static_cast<int64_t>(K)));
}

TEST(ConcurrencyTest, InternerCanonicalizesAcrossThreads) {
  using namespace exo::smt;
  std::vector<TermVar> Vars = {freshVar("x", Sort::Int),
                               freshVar("y", Sort::Int),
                               freshVar("z", Sort::Int)};
  // Serial canonical nodes first...
  std::vector<TermRef> Serial;
  for (unsigned K = 0; K < Reps; ++K)
    Serial.push_back(recipe(Vars, K));

  // ...then every thread rebuilds the same recipes concurrently. Hash
  // consing must hand back the very same node (pointer identity), no
  // matter which shard lock each thread hits.
  std::vector<std::vector<TermRef>> PerThread(NumThreads);
  onThreads([&](unsigned T) {
    for (unsigned K = 0; K < Reps; ++K)
      PerThread[T].push_back(recipe(Vars, K));
  });
  for (unsigned T = 0; T < NumThreads; ++T)
    for (unsigned K = 0; K < Reps; ++K)
      EXPECT_EQ(PerThread[T][K].get(), Serial[K].get())
          << "thread " << T << " recipe " << K;
}

/// The split-safety obligation every splitLoop(Perfect) poses, with fresh
/// variables per call.
smt::SolverResult tileQuery(int64_t Factor) {
  using namespace exo::smt;
  Solver S;
  TermVar Io = freshVar("io", Sort::Int), Io2 = freshVar("io2", Sort::Int);
  TermVar Ii = freshVar("ii", Sort::Int), Ii2 = freshVar("ii2", Sort::Int);
  TermRef Bounds =
      mkAnd({le(intConst(0), mkVar(Ii)), lt(mkVar(Ii), intConst(Factor)),
             le(intConst(0), mkVar(Ii2)), lt(mkVar(Ii2), intConst(Factor)),
             ne(mkVar(Io), mkVar(Io2))});
  TermRef Distinct = ne(add(mul(Factor, mkVar(Io)), mkVar(Ii)),
                        add(mul(Factor, mkVar(Io2)), mkVar(Ii2)));
  return S.checkValid(implies(Bounds, Distinct));
}

TEST(ConcurrencyTest, EffectCacheParallelExtraction) {
  // Each thread extracts in contexts of its own; they share no solver
  // variables and no analysis state, only the term interner.
  ProcRef P = parseGemm();

  std::atomic<unsigned> Failures{0};
  onThreads([&](unsigned T) {
    for (unsigned R = 0; R < Reps; ++R) {
      analysis::AnalysisCtx Ctx;
      analysis::FlowState FS;
      analysis::EffectSets E = analysis::extractBlock(Ctx, FS, P->body());
      if (!E.WrG || !E.RdG)
        Failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(Failures.load(), 0u);
}

TEST(ConcurrencyTest, ParallelSchedulingEmitsBitIdenticalC) {
  // The end-to-end determinism claim: compile the same schedule on every
  // thread — each from its own freshly parsed proc, all banging the same
  // term interner — and the generated C must be
  // byte-for-byte the serial result.
  auto Compile = []() -> std::string {
    ProcRef P = parseGemm();
    ProcRef Q = Schedule(P)
                    .split("i", 8, "io", "ii", SplitTail::Perfect)
                    .split("j", 8, "jo", "ji", SplitTail::Perfect)
                    .reorder("ii")
                    .simplify()
                    .take("concurrency schedule");
    return backend::generateC(Q).take("concurrency codegen");
  };
  std::string Serial = Compile();
  ASSERT_FALSE(Serial.empty());

  std::vector<std::string> PerThread(NumThreads);
  onThreads([&](unsigned T) { PerThread[T] = Compile(); });
  for (unsigned T = 0; T < NumThreads; ++T)
    EXPECT_EQ(PerThread[T], Serial) << "thread " << T;
}

TEST(ConcurrencyTest, ScopedSolverDefaultsAreThreadLocal) {
  uint64_t MainBudget = smt::defaultMaxLiterals();
  std::atomic<unsigned> Wrong{0};
  onThreads([&](unsigned T) {
    uint64_t Mine = 100 + T;
    smt::ScopedSolverDefaults Defaults(Mine);
    for (unsigned R = 0; R < Reps; ++R) {
      if (smt::defaultMaxLiterals() != Mine)
        Wrong.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });
  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_EQ(smt::defaultMaxLiterals(), MainBudget)
      << "scoped defaults must not leak across threads";
}

TEST(ConcurrencyTest, ThreadPoolRunsEverySubmission) {
  support::ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::atomic<unsigned> Count{0};
  constexpr unsigned N = 1000;
  for (unsigned I = 0; I < N; ++I)
    Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  Pool.waitIdle();
  EXPECT_EQ(Count.load(), N);

  // And again after idling — the pool must be reusable.
  for (unsigned I = 0; I < N; ++I)
    Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
  Pool.waitIdle();
  EXPECT_EQ(Count.load(), 2 * N);
}

TEST(ConcurrencyTest, ThreadPoolInlineModeRunsOnCaller) {
  support::ThreadPool Pool(0);
  EXPECT_EQ(Pool.numThreads(), 0u);
  std::thread::id Caller = std::this_thread::get_id();
  std::thread::id Ran;
  Pool.submit([&Ran] { Ran = std::this_thread::get_id(); });
  Pool.waitIdle();
  EXPECT_EQ(Ran, Caller);
}

TEST(ConcurrencyTest, SimplifyConfigTogglesAreRaceFree) {
  // The preprocessing pipeline's stage toggles are a process-global
  // atomic read by every solve. Hammer solves on N threads while a
  // toggler thread flips stages: TSan must stay quiet, and because every
  // stage is verdict-preserving, the tile-disjointness query must answer
  // Yes under every configuration it happens to observe.
  using namespace exo::smt;
  SimplifyConfig Saved = simplifyConfig();
  std::atomic<bool> Done{false};
  std::atomic<unsigned> Wrong{0};

  std::thread Toggler([&] {
    unsigned I = 0;
    while (!Done.load(std::memory_order_relaxed)) {
      SimplifyConfig C;
      C.ConstFold = I & 1;
      C.EqSubst = I & 2;
      C.IntervalProp = I & 4;
      C.CheapVarOrder = I & 8;
      C.EffectFastPath = I & 16;
      setSimplifyConfig(C);
      ++I;
      std::this_thread::yield();
    }
  });

  onThreads([&](unsigned T) {
    for (unsigned R = 0; R < Reps; ++R)
      if (tileQuery(static_cast<int64_t>(2 + (R % 8))) != SolverResult::Yes)
        Wrong.fetch_add(1, std::memory_order_relaxed);
  });
  Done.store(true);
  Toggler.join();
  setSimplifyConfig(Saved);
  EXPECT_EQ(Wrong.load(), 0u);
}

TEST(ConcurrencyTest, GlobalSolverStatsAggregateAtomically) {
  // Measure one thread's worth of counter traffic serially, then run the
  // same workload on N threads: with atomic counters the totals must be
  // exactly N times the serial deltas (lost updates would undercount).
  using namespace exo::smt;
  auto Workload = [] {
    for (unsigned R = 0; R < Reps; ++R)
      (void)tileQuery(static_cast<int64_t>(2 + (R % 8)));
  };
  resetSolverGlobalStats();
  Workload();
  Solver::Stats Serial = solverGlobalStats();
  ASSERT_GT(Serial.NumQueries, 0u);

  resetSolverGlobalStats();
  onThreads([&](unsigned T) { Workload(); });
  Solver::Stats S = solverGlobalStats();
  EXPECT_EQ(S.NumQueries, NumThreads * Serial.NumQueries);
  EXPECT_EQ(S.SimplifyDecided, NumThreads * Serial.SimplifyDecided);
  EXPECT_EQ(S.SimplifyConstFoldHits + S.SimplifyConstFoldMisses,
            NumThreads * (Serial.SimplifyConstFoldHits +
                          Serial.SimplifyConstFoldMisses));
}

TEST(ConcurrencyTest, TunerBuildsAndRunsModulesConcurrently) {
  // Each generation is built as up to four JIT modules at once, and the
  // modules' entries then run on four threads at once, each module in
  // its own simulator copy. The verdicts must match a one-thread run.
  using namespace exo::tuning;
  TuneOptions O;
  O.Population = 8;
  O.Generations = 2;
  O.Beam = 3;
  O.Seed = 3;
  O.Threads = 4;
  TuneResult Par = tune(O);
  O.Threads = 1;
  TuneResult Ser = tune(O);
  ASSERT_TRUE(Par.Ok) << Par.Error;
  ASSERT_TRUE(Ser.Ok) << Ser.Error;
  EXPECT_EQ(Par.Stats.Tried, Ser.Stats.Tried);
  EXPECT_EQ(Par.Stats.Ok, Ser.Stats.Ok);
  EXPECT_EQ(Par.Best.Eval.Score, Ser.Best.Eval.Score);
  EXPECT_EQ(Par.Best.Eval.SimCycles, Ser.Best.Eval.SimCycles);
}

TEST(ConcurrencyTest, SplitModulesBuildFromTwoThreadsAtOnce) {
  // The tuner's shape: two evaluation threads each compile their own
  // module at the same time. Both modules are large enough for the JIT to
  // split into translation units, so their unit compiles overlap too.
  using namespace exo::backend;
  std::vector<std::vector<ProcRef>> Modules = {testhelp::wideProcs("left_"),
                                               testhelp::wideProcs("right_")};
  std::vector<std::vector<float>> Out(Modules.size());
  std::vector<std::string> Errors(Modules.size());
  std::vector<std::thread> Ts;
  for (size_t T = 0; T < Modules.size(); ++T)
    Ts.emplace_back([&, T] {
      auto M = jitBackend().lower(Modules[T]);
      if (!M) {
        Errors[T] = M.error().str();
        return;
      }
      for (const EntryInfo &E : (*M)->entries()) {
        std::vector<float> A(16, 1.0f), B(16, 0.0f);
        BufferSet Args = {RunArg::buffer(A.data(), A.size() * sizeof(float)),
                          RunArg::buffer(B.data(), B.size() * sizeof(float))};
        ExecStatus S = jitBackend().execute(**M, E.Name, Args);
        if (!S.ok())
          Errors[T] = E.Name + ": " + S.Detail;
        Out[T].push_back(B[0]);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  for (size_t T = 0; T < Modules.size(); ++T) {
    ASSERT_TRUE(Errors[T].empty()) << Errors[T];
    ASSERT_EQ(Out[T].size(), 8u);
    for (size_t K = 0; K < Out[T].size(); ++K) // 120 lines of K + L % 5
      EXPECT_EQ(Out[T][K], 120.0f * K + 240.0f) << "module " << T;
  }
}

} // namespace
