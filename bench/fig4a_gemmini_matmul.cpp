//===- bench/fig4a_gemmini_matmul.cpp - Fig. 4a reproduction ---*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 4a: MATMUL utilization on the Gemmini accelerator
/// (as a percentage of peak MACs) for ResNet-50-derived shapes, comparing
///
///   Old-lib  — the handwritten-library schedule (configuration
///              instructions re-issued for every tile),
///   Exo-lib  — the Exo schedule with configuration hoisted,
///   Hardware — the same instruction stream on the dynamically-scheduled
///              hardware loop unrollers (simulator HW mode).
///
/// Paper: Exo ≈ 3.5x Old-lib on average, and ≈ 67 % of Hardware.
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "apps/GemminiMatmul.h"
#include "backend/CodeGen.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

using namespace exo;
using namespace exo::bench;

namespace {

struct Shape {
  int64_t N, M, K;
};

/// ResNet-50 (batch 4) GEMM shapes rounded to multiples of 16 — the
/// paper's Fig. 4a x-axis (N x M x K).
const Shape Shapes[] = {
    {12544, 64, 64},  {3136, 64, 256},  {3136, 128, 512},
    {784, 256, 512},  {784, 512, 1024}, {192, 512, 2048},
    {192, 1024, 256}, {3136, 256, 64},
};

std::string mainHarness(const Shape &S) {
  char Buf[4096];
  std::snprintf(Buf, sizeof(Buf), R"(
#include <stdio.h>
#include "gemmini_sim.h"
enum { N = %lld, M = %lld, K = %lld };
static float A[N * K], B[K * M], C[N * M], Ref[N * M];
int main(void) {
  unsigned s = 1u;
  for (long i = 0; i < (long)N * K; i++) {
    s = s * 1103515245u + 12345u;
    A[i] = (float)((s >> 16) %% 7) - 3.0f;
  }
  for (long i = 0; i < (long)K * M; i++) {
    s = s * 1103515245u + 12345u;
    B[i] = (float)((s >> 16) %% 5) - 2.0f;
  }
  /* reference on a K-slice sample for correctness */
  for (long i = 0; i < 16; i++)
    for (long j = 0; j < 16; j++) {
      float acc = 0.0f;
      for (long k = 0; k < K; k++)
        acc += A[i * K + k] * B[k * M + j];
      Ref[i * M + j] = acc;
    }

  for (long i = 0; i < (long)N * M; i++) C[i] = 0.0f;
  gemmini_reset(EXO_GEMMINI_MODE_SW);
  gemmini_matmul_old(A, B, C);
  unsigned long long old_cyc = gemmini_cycles();
  int ok = 1;
  for (long i = 0; i < 16 && ok; i++)
    for (long j = 0; j < 16; j++)
      if (C[i * M + j] < Ref[i * M + j] - 1e-2f ||
          C[i * M + j] > Ref[i * M + j] + 1e-2f) { ok = 0; break; }

  for (long i = 0; i < (long)N * M; i++) C[i] = 0.0f;
  gemmini_reset(EXO_GEMMINI_MODE_SW);
  gemmini_matmul_exo(A, B, C);
  unsigned long long exo_cyc = gemmini_cycles();
  for (long i = 0; i < 16 && ok; i++)
    for (long j = 0; j < 16; j++)
      if (C[i * M + j] < Ref[i * M + j] - 1e-2f ||
          C[i * M + j] > Ref[i * M + j] + 1e-2f) { ok = 0; break; }

  for (long i = 0; i < (long)N * M; i++) C[i] = 0.0f;
  gemmini_reset(EXO_GEMMINI_MODE_HW);
  gemmini_matmul_exo(A, B, C);
  unsigned long long hw_cyc = gemmini_cycles();

  printf("%%d %%llu %%llu %%llu\n", ok, old_cyc, exo_cyc, hw_cyc);
  return 0;
}
)",
                (long long)S.N, (long long)S.M, (long long)S.K);
  return Buf;
}

} // namespace

int main() {
  std::printf("Figure 4a: Gemmini MATMUL utilization (%% of peak MACs)\n");
  std::printf("paper shape: Old-lib 14-20%%, Exo-lib 40-79%%, Hardware "
              "62-98%%; Exo ~3.5x Old-lib, ~67%% of Hardware\n\n");
  printRow({"N x M x K", "Old-lib", "Exo-lib", "Hardware", "Exo/Old",
            "Exo/HW", "check"},
           {18, 9, 9, 9, 9, 9, 6});

  double GeoSpeedup = 1.0, GeoFrac = 1.0;
  int Count = 0;
  for (const Shape &S : Shapes) {
    auto K = apps::buildGemminiMatmul(S.N, S.M, S.K);
    if (!K) {
      std::fprintf(stderr, "schedule failed: %s\n", K.error().str().c_str());
      return 1;
    }
    auto CSrc = backend::generateC({K->OldLib, K->ExoLib});
    if (!CSrc) {
      std::fprintf(stderr, "codegen failed: %s\n",
                   CSrc.error().str().c_str());
      return 1;
    }
    auto Out = compileAndRun(*CSrc + mainHarness(S),
                             {gemminiSimObject()},
                             {gemminiRuntimeDir()});
    if (!Out || Out->size() < 4) {
      std::fprintf(stderr, "harness failed: %s\n",
                   Out ? "bad output" : Out.error().str().c_str());
      return 1;
    }
    bool Ok = (*Out)[0] == "1";
    double OldCyc = std::atof((*Out)[1].c_str());
    double ExoCyc = std::atof((*Out)[2].c_str());
    double HwCyc = std::atof((*Out)[3].c_str());
    double Macs = double(S.N) * S.M * S.K;
    auto Util = [&](double Cyc) { return 100.0 * Macs / (256.0 * Cyc); };
    char Row[7][32];
    std::snprintf(Row[0], 32, "%lldx%lldx%lld", (long long)S.N,
                  (long long)S.M, (long long)S.K);
    std::snprintf(Row[1], 32, "%5.1f%%", Util(OldCyc));
    std::snprintf(Row[2], 32, "%5.1f%%", Util(ExoCyc));
    std::snprintf(Row[3], 32, "%5.1f%%", Util(HwCyc));
    std::snprintf(Row[4], 32, "%4.2fx", OldCyc / ExoCyc);
    std::snprintf(Row[5], 32, "%4.0f%%", 100.0 * HwCyc / ExoCyc);
    printRow({Row[0], Row[1], Row[2], Row[3], Row[4], Row[5],
              Ok ? "ok" : "FAIL"},
             {18, 9, 9, 9, 9, 9, 6});
    GeoSpeedup *= OldCyc / ExoCyc;
    GeoFrac *= HwCyc / ExoCyc;
    ++Count;
    if (!Ok)
      return 1;
  }
  std::printf("\ngeomean Exo-lib speedup over Old-lib: %.2fx (paper: "
              "~3.5x)\n",
              std::pow(GeoSpeedup, 1.0 / Count));
  std::printf("geomean Exo-lib fraction of Hardware:  %.0f%% (paper: "
              "~67%%)\n",
              100.0 * std::pow(GeoFrac, 1.0 / Count));
  return 0;
}
