//===- apps/AccelMatmul.h - The accelerator-matmul schedule ----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §7.1 MATMUL schedule written once, as a library procedure over the
/// Schedule facade: retargeting it means filling in another hardware
/// table, not writing another schedule (§3.2). AccelMatmul.cpp also fills
/// Gemmini's and AMX's tables (GemminiMatmul.h, AmxMatmul.h); Conv reuses
/// the configuration pieces.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_APPS_ACCELMATMUL_H
#define EXO_APPS_ACCELMATMUL_H

#include "frontend/Parser.h"
#include "scheduling/Schedule.h"

#include <array>

namespace exo {
namespace apps {

/// One configuration channel of an accelerator library: the config
/// struct, the field a schedule writes, and the @instr that writes it.
struct ConfigChannel {
  ir::ConfigRef Config;
  std::string Field;
  ir::ProcRef Instr;
};

/// The load-A, load-B and store channels, in that order.
using ConfigChannels = std::array<ConfigChannel, 3>;

/// The library objects the accelerator-matmul schedule names.
struct AccelMatmulHW {
  std::string StageMem; ///< where the A panel and B tile are staged
  std::string AccMem;   ///< where the C tile accumulates
  ir::ProcRef LoadA, LoadB, Zero, Matmul, Store;
  ConfigChannels Configs;
};

/// The two kernels the schedule passes through.
struct AccelMatmul {
  ir::ProcRef PerTile; ///< configuration instructions re-issued per tile
  ir::ProcRef Hoisted; ///< all configuration hoisted to the top
  unsigned PerTileSteps = 0, HoistedSteps = 0; ///< directives, with renames
};

/// Parses the naive C[N,M] += A[N,K]·B[K,M] over \p Elem ("R", "f32")
/// as \p Name against a copy of \p Env, so the library's names resolve.
/// Every matmul app (Gemmini, AMX, AVX-512 sgemm) starts from it.
Expected<ir::ProcRef> parseMatmul(const std::string &Name,
                                  const std::string &Elem,
                                  frontend::ParseEnv Env, int64_t N,
                                  int64_t M, int64_t K);

/// Runs the accelerator-matmul schedule on \p Sch, which holds a
/// parseMatmul algorithm with reduction extent \p K (every extent a
/// multiple of 16): tile by 16, stage the A panel, C tile and B tile,
/// select the five instructions, then replaceConfigWrites — the per-tile
/// kernel, snapshot as \p PerTileName — and hoistConfigs, renamed
/// \p HoistedName. \p Sch is left at the hoisted kernel; on failure it
/// holds the error returned.
Expected<AccelMatmul> scheduleAccelMatmul(scheduling::Schedule &Sch,
                                          const AccelMatmulHW &HW, int64_t K,
                                          const std::string &PerTileName,
                                          const std::string &HoistedName);

/// Replaces each channel's raw configuration write by its instruction.
scheduling::Schedule &replaceConfigWrites(scheduling::Schedule &Sch,
                                          const ConfigChannels &Channels);

/// Hoists each channel's configuration instruction to the top of the
/// kernel (the hoist composite: reorder/fission/remove, all checked).
scheduling::Schedule &hoistConfigs(scheduling::Schedule &Sch,
                                   const ConfigChannels &Channels);

} // namespace apps
} // namespace exo

#endif // EXO_APPS_ACCELMATMUL_H
