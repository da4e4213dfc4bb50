//===- apps/AmxMatmul.h - AMX tile-engine MATMUL kernels -------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The same MATMUL case study retargeted to the second accelerator
/// library (the AMX-style tile engine) — the paper's §3.2 retargeting
/// claim made concrete: one naive three-loop algorithm, the same
/// accelerator-matmul schedule as Gemmini's (AccelMatmul.h) with AMX
/// library objects in its hardware table, and zero core-compiler changes.
/// Produces the per-tile-config shape and the config-hoisted shape.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_APPS_AMXMATMUL_H
#define EXO_APPS_AMXMATMUL_H

#include "ir/Proc.h"
#include "support/Error.h"

namespace exo {
namespace apps {

struct AmxMatmulKernels {
  ir::ProcRef Algorithm; ///< the naive three-loop matmul
  ir::ProcRef PerTile;   ///< configuration re-issued per tile
  ir::ProcRef Hoisted;   ///< all configuration hoisted to the top
  unsigned AlgStmts = 0;
  unsigned PerTileSteps = 0; ///< scheduling directives to reach PerTile
  unsigned HoistedSteps = 0; ///< scheduling directives to reach Hoisted
};

/// Builds and schedules the kernels for a C[N,M] += A[N,K]·B[K,M]
/// workload. N, M, K must be positive multiples of 16.
Expected<AmxMatmulKernels> buildAmxMatmul(int64_t N, int64_t M, int64_t K);

/// Parses just the unscheduled algorithm (no scheduling, no solver
/// queries) — the --fallback-reference degradation target.
Expected<ir::ProcRef> buildAmxMatmulAlgorithm(int64_t N, int64_t M,
                                              int64_t K);

} // namespace apps
} // namespace exo

#endif // EXO_APPS_AMXMATMUL_H
