//===- bench/BenchHarness.h - Figure-reproduction helpers ------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the per-figure benchmark binaries: each harness
/// generates C from the scheduled Exo procedures, compiles it together
/// with the simulator runtimes using the system C compiler, runs the
/// resulting program, and parses the numbers it prints back.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_BENCH_BENCHHARNESS_H
#define EXO_BENCH_BENCHHARNESS_H

#include "support/Error.h"

#include <string>
#include <vector>

namespace exo {
namespace bench {

/// Compiles \p CSource (already containing any #includes it needs) plus
/// \p ExtraSources and runs the binary; returns the whitespace-separated
/// tokens it printed to stdout.
Expected<std::vector<std::string>>
compileAndRun(const std::string &CSource,
              const std::vector<std::string> &ExtraSources,
              const std::vector<std::string> &IncludeDirs,
              const std::string &ExtraCFlags = "");

/// Repository-relative runtime directories (set via compile definitions).
std::string gemminiRuntimeDir();
std::string avx512RuntimeDir();

/// Pretty table-row printing: pads each cell to the column width.
void printRow(const std::vector<std::string> &Cells,
              const std::vector<int> &Widths);

/// A JSON object snapshotting the solver/caching instrumentation: the
/// process-wide aggregate Solver::Stats and the term-interner counters.
/// Bench harnesses append this to their output so the bench trajectory
/// records cache behaviour alongside timings.
std::string solverStatsJson();

/// Writes solverStatsJson() to \p Path; returns false on I/O failure.
bool writeSolverStatsJson(const std::string &Path);

} // namespace bench
} // namespace exo

#endif // EXO_BENCH_BENCHHARNESS_H
