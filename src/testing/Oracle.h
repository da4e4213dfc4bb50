//===- testing/Oracle.h - Triple differential oracle -----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The triple oracle of the differential fuzzing harness. For every case
/// it executes three pipelines on identical pseudo-random inputs:
///
///   1. the reference interpreter on the *original* procedure,
///   2. the reference interpreter on the *scheduled* procedure,
///   3. the generated C of the scheduled procedure, lowered and executed
///      through a pluggable execution backend (backend/Backend.h) — the
///      in-process JIT by default, or the process-isolated csource
///      backend on request,
///
/// and requires the three output states to agree bit-identically (the
/// generator keeps every intermediate an exact small integer — see
/// ProgramGen.h — so float/double/int32 all represent results exactly; a
/// ULP tolerance knob exists for non-integer modes).
///
/// Cases are batched: one lowered module (one compile) covers a whole
/// batch, and with the JIT backend a replayed batch is a cache hit
/// — no compile, no process spawn — which is what makes the smoke target
/// cheap enough for tier-1.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_TESTING_ORACLE_H
#define EXO_TESTING_ORACLE_H

#include "ir/Proc.h"
#include "support/Error.h"
#include "testing/ProgramGen.h"

namespace exo {
namespace testing {

/// One differential case: an original procedure, its scheduled form (may
/// be the same proc when no step landed), the argument shapes, and the
/// seed of the LCG input fill.
struct OracleCase {
  ir::ProcRef Reference;
  ir::ProcRef Scheduled;
  std::vector<ArgSpec> Args;
  uint64_t InputSeed = 1;
};

enum class OracleStatus {
  Agree,               ///< all three pipelines produced identical state
  ScheduleDivergence,  ///< interp(scheduled) != interp(original)
  CodegenDivergence,   ///< C(scheduled) != interp(original)
  ReferenceError,      ///< the interpreter rejected the *original* program
  ScheduledInterpError,///< the interpreter rejected only the scheduled form
  CodegenError,        ///< generateC rejected the scheduled procedure
  CompileError,        ///< the host C compiler rejected the generated file
  RunError,            ///< the compiled binary crashed or misbehaved
};

const char *oracleStatusName(OracleStatus S);

/// Per-phase wall-clock accumulators, filled (+=) when a caller wires
/// them into OracleOptions::Timings. ExecMillis covers lowering plus
/// execution — the part whose cost depends on the chosen backend — so
/// backend benchmarks can subtract the interpreter phase both backends
/// share.
struct OracleTimings {
  double InterpMillis = 0;
  double ExecMillis = 0;
};

struct OracleOutcome {
  OracleStatus Status = OracleStatus::Agree;
  std::string Detail; ///< human-readable divergence site / error text

  bool ok() const { return Status == OracleStatus::Agree; }
};

struct OracleOptions {
  /// Scratch directory for the generated C, binary, and output capture.
  /// Empty: a fresh directory under the system temp dir, removed
  /// afterwards (kept when KeepFiles is set or a batch-level error needs
  /// the evidence).
  std::string WorkDir;
  bool KeepFiles = false;
  std::string Compiler = "cc";
  /// Execution backend for pipeline 3 (backend::findBackend name). The
  /// default in-process JIT makes a replayed batch a pure cache hit; the
  /// "csource" backend trades speed for child-process isolation.
  std::string Backend = "jit";
  /// 0 demands bit-identical agreement (the integer-data default);
  /// otherwise the maximum tolerated absolute difference.
  double Tolerance = 0.0;
  /// Skip pipeline 3 (used by the shrinker's inner loop, where the
  /// interpreter disagreement alone is what is being minimized).
  bool SkipC = false;
  /// Optional phase-timing accumulator (not owned; may be null).
  OracleTimings *Timings = nullptr;
};

/// Runs the triple oracle over a batch. The returned vector has one
/// outcome per case, in order. A batch-level Expected failure means the
/// harness itself broke (no scratch dir, unparsable run output, ...) —
/// per-case trouble, including compile errors, is reported in the
/// outcome so one bad case never hides the rest of the batch.
Expected<std::vector<OracleOutcome>> runOracle(std::vector<OracleCase> Cases,
                                               const OracleOptions &O = {});

/// Convenience single-case form.
Expected<OracleOutcome> runOracle(const OracleCase &Case,
                                  const OracleOptions &O = {});

} // namespace testing
} // namespace exo

#endif // EXO_TESTING_ORACLE_H
