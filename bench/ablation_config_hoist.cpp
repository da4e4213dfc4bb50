//===- bench/ablation_config_hoist.cpp - Hoisting ablation -----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the §2 headline optimization: identical instruction
/// streams except for configuration-hoisting, with the simulator's
/// flush statistics alongside the cycle counts. This isolates how much
/// of the Fig. 4 gap is pipeline flushing (all of it, by construction).
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "apps/GemminiMatmul.h"
#include "backend/CodeGen.h"

#include <cstdio>

using namespace exo;
using namespace exo::bench;

int main() {
  const int64_t N = 512, M = 512, K = 512;
  auto Kernels = apps::buildGemminiMatmul(N, M, K);
  if (!Kernels) {
    std::fprintf(stderr, "%s\n", Kernels.error().str().c_str());
    return 1;
  }
  auto CSrc = backend::generateC({Kernels->OldLib, Kernels->ExoLib});
  if (!CSrc) {
    std::fprintf(stderr, "%s\n", CSrc.error().str().c_str());
    return 1;
  }
  std::string Main = R"(
#include <stdio.h>
#include "gemmini_sim.h"
enum { N = 512, M = 512, K = 512 };
static float A[N * K], B[K * M], C[N * M];
int main(void) {
  for (long i = 0; i < (long)N * K; i++) A[i] = (float)(i % 7) - 3.0f;
  for (long i = 0; i < (long)K * M; i++) B[i] = (float)(i % 5) - 2.0f;

  gemmini_reset(EXO_GEMMINI_MODE_SW);
  gemmini_matmul_old(A, B, C);
  printf("%llu %llu\n", (unsigned long long)gemmini_cycles(),
         (unsigned long long)gemmini_stat_config_writes());

  gemmini_reset(EXO_GEMMINI_MODE_SW);
  gemmini_matmul_exo(A, B, C);
  printf("%llu %llu\n", (unsigned long long)gemmini_cycles(),
         (unsigned long long)gemmini_stat_config_writes());
  return 0;
}
)";
  auto Out = compileAndRun(*CSrc + Main,
                           {gemminiSimObject()},
                           {gemminiRuntimeDir()});
  if (!Out || Out->size() < 4) {
    std::fprintf(stderr, "harness failed\n");
    return 1;
  }
  double OldCyc = std::atof((*Out)[0].c_str());
  double OldCfg = std::atof((*Out)[1].c_str());
  double ExoCyc = std::atof((*Out)[2].c_str());
  double ExoCfg = std::atof((*Out)[3].c_str());
  std::printf("Ablation: configuration hoisting on a 512^3 Gemmini "
              "matmul\n\n");
  printRow({"variant", "cycles", "config writes", "flush cycles"},
           {12, 12, 14, 13});
  char B1[4][32];
  std::snprintf(B1[0], 32, "%.0f", OldCyc);
  std::snprintf(B1[1], 32, "%.0f", OldCfg);
  std::snprintf(B1[2], 32, "%.0f", OldCfg * 70);
  printRow({"per-tile", B1[0], B1[1], B1[2]}, {12, 12, 14, 13});
  std::snprintf(B1[0], 32, "%.0f", ExoCyc);
  std::snprintf(B1[1], 32, "%.0f", ExoCfg);
  std::snprintf(B1[2], 32, "%.0f", ExoCfg * 70);
  printRow({"hoisted", B1[0], B1[1], B1[2]}, {12, 12, 14, 13});
  std::printf("\nspeedup from hoisting alone: %.2fx; flush share of the "
              "gap: %.0f%%\n",
              OldCyc / ExoCyc,
              100.0 * (OldCfg - ExoCfg) * 70 / (OldCyc - ExoCyc));
  return 0;
}
