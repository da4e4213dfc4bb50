//===- apps/GemminiMatmul.h - Gemmini MATMUL kernels -----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §7.1 MATMUL case study: from one naive three-loop algorithm,
/// scheduling derives
///
///   * OldLib — the shape of Gemmini's handwritten C library: tiled and
///     mapped to instructions, but configuration instructions issued
///     next to every load/store (pipeline flush per tile);
///   * ExoLib — the paper's Exo schedule: identical structure with all
///     configuration writes hoisted to the top of the kernel.
///
/// Both come from the shared accelerator-matmul schedule (AccelMatmul.h)
/// with the Gemmini library's objects filled into its hardware table.
/// The "Hardware" bars of Fig. 4a run the ExoLib instruction stream with
/// the simulator's dynamically-scheduled (perfect-overlap) mode.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_APPS_GEMMINIMATMUL_H
#define EXO_APPS_GEMMINIMATMUL_H

#include "apps/AccelMatmul.h"

namespace exo {
namespace apps {

struct GemminiMatmulKernels {
  ir::ProcRef Algorithm; ///< the naive three-loop matmul
  ir::ProcRef OldLib;    ///< per-tile configuration (handwritten-lib model)
  ir::ProcRef ExoLib;    ///< hoisted configuration (the paper's schedule)
  unsigned AlgStmts = 0;     ///< algorithm statement count (Fig. 7)
  unsigned OldLibSteps = 0;  ///< scheduling directives to reach OldLib
  unsigned ExoLibSteps = 0;  ///< scheduling directives to reach ExoLib
};

/// Builds and schedules the kernels for a C[N,M] += A[N,K]·B[K,M]
/// workload. N, M, K must be positive multiples of 16.
Expected<GemminiMatmulKernels> buildGemminiMatmul(int64_t N, int64_t M,
                                                  int64_t K);

/// Gemmini's mvin-1, mvin-2 and mvout configuration channels (shared with
/// the Gemmini conv's configuration hoist).
ConfigChannels gemminiConfigChannels();

/// Parses just the unscheduled algorithm (no scheduling, no solver
/// queries) — the --fallback-reference degradation target.
Expected<ir::ProcRef> buildGemminiMatmulAlgorithm(int64_t N, int64_t M,
                                                  int64_t K);

} // namespace apps
} // namespace exo

#endif // EXO_APPS_GEMMINIMATMUL_H
