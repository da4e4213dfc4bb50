//===- bench/fig4b_gemmini_conv.cpp - Fig. 4b reproduction -----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 4b: CONV utilization on Gemmini (% of peak MACs)
/// for the paper's three ResNet-50 layer shapes (output dim x output
/// channels x input channels, 3x3 kernels, batch 4).
///
/// Paper: Old-lib ~25-27 %, Exo ~71-78 %, Hardware ~91-95 %;
/// Exo ≈ 2.9x Old-lib, ≈ 79 % of Hardware.
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "apps/Conv.h"
#include "backend/CodeGen.h"

#include <cmath>
#include <cstdio>

using namespace exo;
using namespace exo::bench;
using apps::ConvShape;

namespace {

struct Case {
  ConvShape Shape;
  int64_t RowTile;
};

// out x OC x IC from the paper's x-axis; H = W = out + 2 (3x3, no pad).
const Case Cases[] = {
    {{4, 58, 58, 64, 64}, 14},
    {{4, 30, 30, 128, 128}, 14},
    {{4, 16, 16, 256, 256}, 14},
};

std::string mainHarness(const ConvShape &S) {
  char Buf[8192];
  std::snprintf(Buf, sizeof(Buf), R"(
#include <stdio.h>
#include <stdlib.h>
#include "gemmini_sim.h"
enum { N = %lld, H = %lld, W = %lld, IC = %lld, OC = %lld,
       OH = %lld, OW = %lld };
int main(void) {
  float *x = malloc((size_t)N * H * W * IC * sizeof(float));
  float *w = malloc((size_t)9 * IC * OC * sizeof(float));
  float *y = malloc((size_t)N * OH * OW * OC * sizeof(float));
  unsigned s = 1u;
  for (long i = 0; i < (long)N * H * W * IC; i++) {
    s = s * 1103515245u + 12345u;
    x[i] = (float)((s >> 16) %% 5) - 2.0f;
  }
  for (long i = 0; i < (long)9 * IC * OC; i++) {
    s = s * 1103515245u + 12345u;
    w[i] = (float)((s >> 16) %% 3) - 1.0f;
  }

  /* spot-check reference: one output pixel row */
  float ref[OC];
  for (long oc = 0; oc < OC; oc++) {
    float acc = 0.0f;
    for (long kh = 0; kh < 3; kh++)
      for (long kw = 0; kw < 3; kw++)
        for (long ic = 0; ic < IC; ic++)
          acc += x[((0 * H + kh) * W + kw) * IC + ic] *
                 w[((kh * 3 + kw) * IC + ic) * OC + oc];
    ref[oc] = acc;
  }

  for (long i = 0; i < (long)N * OH * OW * OC; i++) y[i] = 0.0f;
  gemmini_reset(EXO_GEMMINI_MODE_SW);
  gemmini_conv_old(x, w, y);
  unsigned long long old_cyc = gemmini_cycles();
  int ok = 1;
  for (long oc = 0; oc < OC; oc++)
    if (y[oc] < ref[oc] - 1e-1f || y[oc] > ref[oc] + 1e-1f) { ok = 0; break; }

  for (long i = 0; i < (long)N * OH * OW * OC; i++) y[i] = 0.0f;
  gemmini_reset(EXO_GEMMINI_MODE_SW);
  gemmini_conv_exo(x, w, y);
  unsigned long long exo_cyc = gemmini_cycles();
  for (long oc = 0; oc < OC; oc++)
    if (y[oc] < ref[oc] - 1e-1f || y[oc] > ref[oc] + 1e-1f) { ok = 0; break; }

  for (long i = 0; i < (long)N * OH * OW * OC; i++) y[i] = 0.0f;
  gemmini_reset(EXO_GEMMINI_MODE_HW);
  gemmini_conv_exo(x, w, y);
  unsigned long long hw_cyc = gemmini_cycles();

  printf("%%d %%llu %%llu %%llu\n", ok, old_cyc, exo_cyc, hw_cyc);
  free(x); free(w); free(y);
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
  std::printf("Figure 4b: Gemmini CONV utilization (%% of peak MACs)\n");
  std::printf("paper shape: Old-lib ~25%%, Exo ~71-78%%, Hardware ~91-95%%; "
              "Exo ~2.9x Old-lib, ~79%% of Hardware\n\n");
  printRow({"out x OC x IC", "Old-lib", "Exo", "Hardware", "Exo/Old",
            "Exo/HW", "check"},
           {16, 9, 9, 9, 9, 9, 6});

  double GeoSpeedup = 1.0, GeoFrac = 1.0;
  int Count = 0;
  for (const Case &C : Cases) {
    auto K = apps::buildConvGemmini(C.Shape, C.RowTile);
    if (!K) {
      std::fprintf(stderr, "schedule failed: %s\n", K.error().str().c_str());
      return 1;
    }
    auto CSrc = backend::generateC({K->OldLib, K->Scheduled});
    if (!CSrc) {
      std::fprintf(stderr, "codegen failed: %s\n",
                   CSrc.error().str().c_str());
      return 1;
    }
    auto Out = compileAndRun(*CSrc + mainHarness(C.Shape),
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
    double Macs = C.Shape.macs();
    auto Util = [&](double Cyc) { return 100.0 * Macs / (256.0 * Cyc); };
    char Row[6][32];
    std::snprintf(Row[0], 32, "%lldx%lldx%lld", (long long)C.Shape.oh(),
                  (long long)C.Shape.OC, (long long)C.Shape.IC);
    std::snprintf(Row[1], 32, "%5.1f%%", Util(OldCyc));
    std::snprintf(Row[2], 32, "%5.1f%%", Util(ExoCyc));
    std::snprintf(Row[3], 32, "%5.1f%%", Util(HwCyc));
    std::snprintf(Row[4], 32, "%4.2fx", OldCyc / ExoCyc);
    std::snprintf(Row[5], 32, "%4.0f%%", 100.0 * HwCyc / ExoCyc);
    printRow({Row[0], Row[1], Row[2], Row[3], Row[4], Row[5],
              Ok ? "ok" : "FAIL"},
             {16, 9, 9, 9, 9, 9, 6});
    GeoSpeedup *= OldCyc / ExoCyc;
    GeoFrac *= HwCyc / ExoCyc;
    ++Count;
    if (!Ok)
      return 1;
  }
  std::printf("\ngeomean Exo speedup over Old-lib: %.2fx (paper: ~2.9x)\n",
              std::pow(GeoSpeedup, 1.0 / Count));
  std::printf("geomean Exo fraction of Hardware: %.0f%% (paper: ~79%%)\n",
              100.0 * std::pow(GeoFrac, 1.0 / Count));
  return 0;
}
