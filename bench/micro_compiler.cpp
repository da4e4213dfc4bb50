//===- bench/micro_compiler.cpp - google-benchmark micro suite -*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmarks of the compiler itself (not of generated code): how
/// fast are the scheduling operators, their SMT safety checks, effect
/// extraction, parsing, and code generation? The paper's §3.3 argues the
/// rewrite architecture keeps each operator simple — these numbers show
/// the operators are also cheap enough for interactive use.
///
//===----------------------------------------------------------------------===//

#include "analysis/Checks.h"
#include "analysis/EffectCache.h"
#include "apps/Sgemm.h"
#include "backend/CodeGen.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "scheduling/Schedule.h"

#include <benchmark/benchmark.h>

using namespace exo;
using namespace exo::ir;
using namespace exo::scheduling;

namespace {

const char *GemmSrc = R"(
@proc
def gemm(A: R[128, 128], B: R[128, 128], C: R[128, 128]):
    for i in seq(0, 128):
        for j in seq(0, 128):
            for k in seq(0, 128):
                C[i, j] += A[i, k] * B[k, j]
)";

ProcRef gemm() {
  static ProcRef P = *frontend::parseProc(GemmSrc);
  return P;
}

void BM_ParseGemm(benchmark::State &State) {
  for (auto _ : State) {
    auto P = frontend::parseProc(GemmSrc);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_ParseGemm);

void BM_SplitLoop(benchmark::State &State) {
  Cursor I = *Cursor::find(gemm(), "for i in _: _");
  for (auto _ : State) {
    auto Q = splitLoop(I, 16, "io", "ii", SplitTail::Guard);
    benchmark::DoNotOptimize(Q);
  }
}
BENCHMARK(BM_SplitLoop);

void BM_SplitLoopPerfect(benchmark::State &State) {
  // Includes the divisibility proof.
  Cursor I = *Cursor::find(gemm(), "for i in _: _");
  for (auto _ : State) {
    auto Q = splitLoop(I, 16, "io", "ii", SplitTail::Perfect);
    benchmark::DoNotOptimize(Q);
  }
}
BENCHMARK(BM_SplitLoopPerfect);

void BM_ReorderLoops(benchmark::State &State) {
  // Includes the full commutativity check (two effect extractions plus
  // an SMT validity query over the flipped iteration pairs).
  Cursor J = *Cursor::find(gemm(), "for j in _: _");
  for (auto _ : State) {
    auto Q = reorderLoops(J);
    benchmark::DoNotOptimize(Q);
  }
}
BENCHMARK(BM_ReorderLoops);

void BM_StageMem(benchmark::State &State) {
  static Cursor Ki = [] {
    ProcRef Tiled = *Schedule(gemm())
                         .split("i", 16, "io", "ii", SplitTail::Perfect)
                         .split("k", 16, "ko", "ki", SplitTail::Perfect)
                         .proc();
    return *Cursor::find(Tiled, "for ki in _: _");
  }();
  for (auto _ : State) {
    auto Q = stageMem(
        Ki, "A[16 * io : 16 * io + 16, 16 * ko : 16 * ko + 16]", "a_tile");
    benchmark::DoNotOptimize(Q);
  }
}
BENCHMARK(BM_StageMem);

void BM_EffectExtraction(benchmark::State &State) {
  // Cold: the effect cache is cleared every iteration so this keeps
  // measuring the raw extraction recursion (cf. BM_EffectExtractionWarm).
  ProcRef P = gemm();
  for (auto _ : State) {
    analysis::clearEffectCache();
    analysis::AnalysisCtx Ctx;
    analysis::FlowState FS;
    auto E = analysis::extractBlock(Ctx, FS, P->body());
    benchmark::DoNotOptimize(E);
  }
}
BENCHMARK(BM_EffectExtraction);

void BM_SolverTileDisjointness(benchmark::State &State) {
  using namespace exo::smt;
  for (auto _ : State) {
    Solver S;
    TermVar Io = freshVar("io", Sort::Int), Io2 = freshVar("io2", Sort::Int);
    TermVar Ii = freshVar("ii", Sort::Int), Ii2 = freshVar("ii2", Sort::Int);
    TermRef Bounds =
        mkAnd({le(intConst(0), mkVar(Ii)), lt(mkVar(Ii), intConst(16)),
               le(intConst(0), mkVar(Ii2)), lt(mkVar(Ii2), intConst(16)),
               ne(mkVar(Io), mkVar(Io2))});
    TermRef Distinct = ne(add(mul(16, mkVar(Io)), mkVar(Ii)),
                          add(mul(16, mkVar(Io2)), mkVar(Ii2)));
    auto R = S.checkValid(implies(Bounds, Distinct));
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_SolverTileDisjointness);

void BM_EffectExtractionWarm(benchmark::State &State) {
  // Same workload as BM_EffectExtraction, but without clearing the effect
  // cache: every statement summary after the first iteration is a hit.
  ProcRef P = gemm();
  for (auto _ : State) {
    analysis::AnalysisCtx Ctx;
    analysis::FlowState FS;
    auto E = analysis::extractBlock(Ctx, FS, P->body());
    benchmark::DoNotOptimize(E);
  }
  auto ES = analysis::effectCacheStats();
  State.counters["effect_hits"] = static_cast<double>(ES.Hits);
}
BENCHMARK(BM_EffectExtractionWarm);

void BM_Fig5aScheduleReplay(benchmark::State &State) {
  // Replays the full fig5a SGEMM schedule (split/reorder/stage/vectorize
  // pipeline) end to end — the "same schedule, re-run" interactive
  // workload. Each replay builds a fresh proc with fresh symbols.
  smt::Solver::Stats Before = smt::solverGlobalStats();
  for (auto _ : State) {
    auto K = apps::buildSgemm(48, 128, 64);
    benchmark::DoNotOptimize(K);
  }
  smt::Solver::Stats After = smt::solverGlobalStats();
  State.counters["solver_queries"] =
      static_cast<double>(After.NumQueries - Before.NumQueries);
}
BENCHMARK(BM_Fig5aScheduleReplay);

void BM_CodeGenGemm(benchmark::State &State) {
  ProcRef P = gemm();
  for (auto _ : State) {
    auto C = backend::generateC(P);
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_CodeGenGemm);

void BM_InterpGemm16(benchmark::State &State) {
  static ProcRef P = *frontend::parseProc(R"(
@proc
def gemm16(A: R[16, 16], B: R[16, 16], C: R[16, 16]):
    for i in seq(0, 16):
        for j in seq(0, 16):
            for k in seq(0, 16):
                C[i, j] += A[i, k] * B[k, j]
)");
  std::vector<double> A(256, 1.0), B(256, 2.0), C(256, 0.0);
  for (auto _ : State) {
    interp::Interp I;
    auto R = I.run(
        P, {interp::ArgValue::buffer(
                interp::BufferView::dense(A.data(), {16, 16})),
            interp::ArgValue::buffer(
                interp::BufferView::dense(B.data(), {16, 16})),
            interp::ArgValue::buffer(
                interp::BufferView::dense(C.data(), {16, 16}))});
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_InterpGemm16);

} // namespace

BENCHMARK_MAIN();
