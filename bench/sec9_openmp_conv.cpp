//===- bench/sec9_openmp_conv.cpp - §9 threading escape hatch --*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces §9's multi-core experiment: Exo has no threading model, so
/// a no-op @instr carrying "#pragma omp parallel for" is injected above
/// the conv's batch/row loops via replace() — externalizing threading
/// exactly like memories and instructions. The paper reports the OpenMP
/// conv still matches Halide and beats oneDNN by 25 % at 8+ threads;
/// here we check the thread-scaling shape of the same kernel.
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "apps/Conv.h"
#include "backend/CodeGen.h"
#include "frontend/Parser.h"
#include "scheduling/Schedule.h"

#include <cstdio>

using namespace exo;
using namespace exo::bench;
using namespace exo::scheduling;
using apps::ConvShape;

namespace {

const char *HarnessCommon = R"(
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
static double now_s(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec + 1e-9 * ts.tv_nsec;
}
)";

std::string mainHarness(const ConvShape &S) {
  char Buf[2048];
  std::snprintf(Buf, sizeof(Buf), R"(
enum { NB = %lld, H = %lld, W = %lld, IC = %lld, OC = %lld,
       OH = %lld, OW = %lld };
static float *x, *w, *y;
int main(void) {
  x = malloc((size_t)NB * H * W * IC * sizeof(float));
  w = malloc((size_t)9 * IC * OC * sizeof(float));
  y = malloc((size_t)NB * OH * OW * OC * sizeof(float));
  for (long i = 0; i < (long)NB * H * W * IC; i++)
    x[i] = (float)(i %% 11) * 0.1f - 0.5f;
  for (long i = 0; i < (long)9 * IC * OC; i++)
    w[i] = (float)(i %% 7) * 0.2f - 0.6f;
  double best = 1e30;
  for (int r = 0; r < 3; r++) {
    memset(y, 0, (size_t)NB * OH * OW * OC * sizeof(float));
    double t0 = now_s();
    exo_conv_x86(x, w, y);
    double t = now_s() - t0;
    if (t < best) best = t;
  }
  printf("%%.6f %%.6f\n", best, (double)y[OC + 3]);
  return 0;
}
)",
                (long long)S.N, (long long)S.H, (long long)S.W,
                (long long)S.IC, (long long)S.OC, (long long)S.oh(),
                (long long)S.ow());
  return Buf;
}

} // namespace

int main() {
  ConvShape S{5, 102, 82, 128, 128};
  auto K = apps::buildConvX86(S);
  if (!K) {
    std::fprintf(stderr, "schedule failed: %s\n", K.error().str().c_str());
    return 1;
  }

  // The §9 trick: a no-op instruction carrying the pragma, placed just
  // before the outermost loop of the accumulation nest.
  frontend::ParseEnv Env;
  auto Lib = frontend::parseModule(R"x(
@instr("#pragma omp parallel for collapse(2)")
def omp_parallel_for():
    pass
)x",
                                   Env);
  if (!Lib) {
    std::fprintf(stderr, "%s\n", Lib.error().str().c_str());
    return 1;
  }

  // Emit two versions: serial, and with the pragma spliced before the
  // (n, oh) loops of the accumulation nest.
  auto CSerial = backend::generateC(
      K->Scheduled, {.Prelude = std::string(HarnessCommon)});
  if (!CSerial) {
    std::fprintf(stderr, "%s\n", CSerial.error().str().c_str());
    return 1;
  }

  // Build the parallel version: insert `pass`, then replace() it with the
  // pragma instruction (the §3.2.2 escape hatch).
  ir::ProcRef Par = K->Scheduled;
  {
    // Splice a Pass marker as the first statement (a no-op is always a
    // legal insertion), then replace() it with the pragma instruction.
    ir::Block Body = Par->body();
    Body.insert(Body.begin(), ir::Stmt::pass());
    auto Clone = Par->clone();
    Clone->setBody(std::move(Body));
    Clone->setProvenance(Par, {});
    Par = Clone;
  }
  auto Replaced = Schedule(Par)
                      .replaceWith("pass", 1, Env.findProc("omp_parallel_for"))
                      .proc();
  if (!Replaced) {
    std::fprintf(stderr, "%s\n", Replaced.error().str().c_str());
    return 1;
  }
  Par = renameProc(*Replaced, "exo_conv_x86");
  auto CPar =
      backend::generateC(Par, {.Prelude = std::string(HarnessCommon)});
  if (!CPar) {
    std::fprintf(stderr, "%s\n", CPar.error().str().c_str());
    return 1;
  }

  auto SerialOut = compileAndRun(*CSerial + mainHarness(S), {},
                                 {avx512RuntimeDir()});
  auto ParOut = compileAndRun(*CPar + mainHarness(S), {},
                              {avx512RuntimeDir()}, "-fopenmp");
  if (!SerialOut || !ParOut || SerialOut->size() < 2 || ParOut->size() < 2) {
    std::fprintf(stderr, "harness failed\n");
    return 1;
  }
  double TSer = std::atof((*SerialOut)[0].c_str());
  double TPar = std::atof((*ParOut)[0].c_str());
  double ChkS = std::atof((*SerialOut)[1].c_str());
  double ChkP = std::atof((*ParOut)[1].c_str());
  double Flops = 2.0 * S.macs();

  std::printf("Section 9: OpenMP via a no-op @instr escape hatch "
              "(conv, N=5 128ch 3x3)\n\n");
  printRow({"variant", "GFLOP/s", "speedup", "check"}, {10, 10, 9, 6});
  char B1[32], B2[32], B3[32];
  std::snprintf(B1, 32, "%6.2f", Flops / TSer * 1e-9);
  printRow({"serial", B1, "1.00x", "ok"}, {10, 10, 9, 6});
  std::snprintf(B2, 32, "%6.2f", Flops / TPar * 1e-9);
  std::snprintf(B3, 32, "%.2fx", TSer / TPar);
  bool Ok = ChkS == ChkP;
  printRow({"openmp", B2, B3, Ok ? "ok" : "FAIL"}, {10, 10, 9, 6});
  std::printf("\nThe pragma came from a user-level library, not the "
              "compiler (paper §9).\n");
  std::printf("(speedup tracks available cores; identical results confirm "
              "the mechanism)\n");
  return Ok ? 0 : 1;
}
