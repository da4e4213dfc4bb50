//===- examples/quickstart.cpp - Five-minute tour of ExoCC -----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fastest possible tour: write an algorithm in the Exo surface
/// syntax, schedule it with a couple of rewrites, check that both
/// versions compute the same thing, and emit C.
///
///   ./quickstart
///
//===----------------------------------------------------------------------===//

#include "backend/CodeGen.h"
#include "frontend/Parser.h"
#include "interp/Interp.h"
#include "ir/Printer.h"
#include "scheduling/Procedures.h"

#include <cstdio>
#include <vector>

using namespace exo;
using namespace exo::ir;
using namespace exo::scheduling;

int main() {
  // 1. The algorithm: a plain matrix-matrix multiply, written once.
  auto Parsed = frontend::parseProc(R"(
@proc
def gemm(A: f32[64, 64], B: f32[64, 64], C: f32[64, 64]):
    for i in seq(0, 64):
        for j in seq(0, 64):
            for k in seq(0, 64):
                C[i, j] += A[i, k] * B[k, j]
)");
  if (!Parsed) {
    std::fprintf(stderr, "parse error: %s\n", Parsed.error().str().c_str());
    return 1;
  }
  ProcRef Gemm = *Parsed;
  std::printf("=== the algorithm ===\n%s\n", printProc(Gemm).c_str());

  // 2. Scheduling: each operator is an independent, safety-checked
  //    rewrite; the first failure reports an error instead of wrong
  //    code. A Cursor is a stable handle into the tree — resolve it
  //    once, then rewrite through it; named procedures like tile2D
  //    compose the primitives (split/split/reorder*3/simplify here).
  //    Cursor::find is the one place a pattern string becomes a cursor;
  //    the fluent Schedule facade calls it for you (Schedule(Gemm)
  //    .tile2d("i", 8, 8, ...) is the same rewrite).
  Cursor I = Cursor::find(Gemm, "for i in _: _").take("find i");
  ProcRef Tiled =
      tile2D(I, 8, 8, "io", "ii", "jo", "ji").take("tiling schedule");
  std::printf("=== after tile2D ===\n%s\n", printProc(Tiled).c_str());

  // Cursors survive rewrites by *forwarding* — and a rewrite that
  // consumed one invalidates it with a structured reason instead of
  // leaving a dangling handle. The tiling rebuilt everything under the
  // i loop, so forwarding the pre-tiling k cursor reports exactly that:
  auto K =
      Cursor::find(Gemm, "for k in _: _").take("find k").forwardTo(Tiled);
  std::printf("=== forwarding the old k cursor across the tiling ===\n%s\n\n",
              K ? K->str().c_str() : K.error().str().c_str());

  // 3. Equivalence: run both on the same inputs through the reference
  //    interpreter. Scheduling guarantees this can never differ — trust,
  //    but verify.
  std::vector<double> A(64 * 64), B(64 * 64), C0(64 * 64, 0.0),
      C1(64 * 64, 0.0);
  for (int I = 0; I < 64 * 64; ++I) {
    A[I] = (I % 13) * 0.25 - 1.5;
    B[I] = (I % 7) * 0.5 - 1.0;
  }
  interp::Interp In;
  auto mk = [](std::vector<double> &V) {
    return interp::ArgValue::buffer(
        interp::BufferView::dense(V.data(), {64, 64}));
  };
  In.run(Gemm, {mk(A), mk(B), mk(C0)}).take("run gemm");
  In.run(Tiled, {mk(A), mk(B), mk(C1)}).take("run tiled");
  double MaxDiff = 0;
  for (int I = 0; I < 64 * 64; ++I)
    MaxDiff = std::max(MaxDiff, std::abs(C0[I] - C1[I]));
  std::printf("=== max |difference| between the two versions: %g ===\n\n",
              MaxDiff);

  // 4. Code generation: human-readable C.
  std::string CCode = backend::generateC(Tiled).take("codegen");
  std::printf("=== generated C ===\n%s", CCode.c_str());
  return MaxDiff == 0.0 ? 0 : 1;
}
