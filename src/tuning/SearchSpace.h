//===- tuning/SearchSpace.h - Tuner kernels and seed traces ----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the autotuner searches over, per kernel: the unscheduled
/// algorithm (every candidate trace is applied to it from scratch), a set
/// of seed traces (parameterized variants of known-good schedule
/// skeletons — the population's generation zero), and, when one exists, a
/// hand-written expert schedule to benchmark the search against.
///
/// Seeds are *templates with the knobs varied*, not the answer: for the
/// Gemmini matmul they enumerate tile factors {8, 16, 32} and toggle the
/// staging/hoisting stages, so only one point of the seeded space is the
/// paper's Fig. 4/5 schedule and the search has to find it (or something
/// faster) on merit. Mutation and crossover then move the population off
/// the seeded manifold entirely.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_TUNING_SEARCHSPACE_H
#define EXO_TUNING_SEARCHSPACE_H

#include "ir/Proc.h"
#include "support/Error.h"
#include "testing/ScheduleGen.h"

namespace exo {
namespace tuning {

struct KernelShape {
  int64_t N = 128, M = 128, K = 128;
};

/// One tunable kernel: its algorithm, its seeds, and its expert baseline.
struct SearchSpace {
  std::string Kernel;
  KernelShape Shape;
  ir::ProcRef Algorithm; ///< candidates schedule this from scratch
  /// Generation-zero traces (always includes the empty trace, so the
  /// unscheduled algorithm is a scored member of every population).
  std::vector<std::vector<testing::ScheduleStep>> Seeds;
  /// The hand-written schedule to beat, when the kernel has one (null
  /// otherwise). For "gemmini_matmul" this is the paper's ExoLib, named
  /// like Algorithm.
  ir::ProcRef Handwritten;
};

/// Kernels the tuner knows: "gemmini_matmul" (scored by simulated
/// accelerator cycles) and "sgemm" (AVX-512, scored by wall clock).
std::vector<std::string> tunableKernels();

/// Builds the search space for \p Kernel at \p Shape. Shape dimensions
/// must satisfy the kernel's own constraints (gemmini: multiples of 16).
Expected<SearchSpace> buildSearchSpace(const std::string &Kernel,
                                       const KernelShape &Shape);

} // namespace tuning
} // namespace exo

#endif // EXO_TUNING_SEARCHSPACE_H
