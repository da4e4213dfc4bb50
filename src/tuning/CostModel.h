//===- tuning/CostModel.h - Candidate scoring for the autotuner -*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scores scheduled candidates end to end: lower through the JIT
/// backend, execute on fixed pseudo-random inputs, verify the output
/// against a host-side reference (a wrong answer is a dead candidate, not
/// a fast one), and read the cost out of the module's own simulator copy.
///
/// Two metrics:
///
///  * SimCycles (gemmini): the module-local `gemmini_cycles()` counter
///    after the call, plus a scalar-MAC penalty for the multiplies the
///    schedule left *outside* accelerator instructions —
///    max(0, N*M*K - matmuls*16^3). The simulator only meters work routed
///    through its instructions, so without the penalty a pure-C loop nest
///    would score zero cycles and beat every real schedule. A candidate
///    that maps nothing scores exactly N*M*K.
///
///  * WallClock (avx512 sgemm): best-of-reps wall time of the in-process
///    call, in milliseconds.
///
/// Lower is better in both.
///
/// Evaluation works on batches: one tuner generation at a time. Each
/// candidate is lowered once, which gives its lower/unsupported verdict
/// and its C source. The source is the run-local key: a source this
/// CostModel already compiled runs again in the module that holds it.
/// New sources are dealt round-robin into at most one module per pool
/// thread (several sources in one module get unique entry names); the
/// modules build concurrently, and each module's entries then run in
/// order on one pool thread. Every call starts clean: fresh copies of the
/// inputs, a simulator reset, and (in the backend) cleared traps and an
/// empty region registry. Every module links its own simulator copy, so
/// SimCycles candidates in different modules execute at the same time;
/// WallClock execution stays serialized on one mutex, since wall-clock
/// numbers mean nothing when candidates time each other's cache
/// pressure. A shared module that fails to build falls back to one
/// module per candidate, so no verdict depends on which candidates
/// shared a module.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_TUNING_COSTMODEL_H
#define EXO_TUNING_COSTMODEL_H

#include "backend/Backend.h"
#include "support/ThreadPool.h"
#include "tuning/SearchSpace.h"

#include <map>
#include <mutex>

namespace exo {
namespace tuning {

enum class Metric {
  SimCycles, ///< simulated accelerator cycles + scalar-MAC penalty
  WallClock, ///< best-of-reps in-process wall time (milliseconds)
};

const char *metricName(Metric M);

/// The verdict on one candidate. Score is comparable only within one
/// CostModel (same kernel, shape, metric); lower is better.
struct EvalResult {
  bool Ok = false;
  /// Which stage killed the candidate: "lower", "unsupported",
  /// "execute", or "verify". Empty when Ok.
  std::string FailStage;
  std::string Detail;
  uint64_t SimCycles = 0;  ///< gemmini_cycles() (SimCycles metric)
  uint64_t SimMatmuls = 0; ///< gemmini_stat_matmuls() (SimCycles metric)
  double WallMillis = 0;   ///< call wall time (WallClock metric)
  double Score = 0;        ///< the number the tuner ranks by
};

/// Holds the fixed inputs, the host reference, and the modules compiled
/// so far for one kernel shape. One CostModel serves one search: the
/// modules it compiled live as long as it does. Thread-safe: concurrent
/// evaluate() calls run one after another.
class CostModel {
public:
  CostModel(const KernelShape &Shape, Metric M);

  Metric metric() const { return TheMetric; }

  /// Scores every candidate (scheduled clones of the search space's
  /// algorithm; the signature must still be the three R/f32 matrices),
  /// building and running modules on \p Pool. Returns one verdict per
  /// candidate, in order. The module count is \p Pool's thread count
  /// (at least one).
  std::vector<EvalResult> evaluate(const std::vector<ir::ProcRef> &Candidates,
                                   support::ThreadPool &Pool);

  /// The one-candidate batch, on the calling thread.
  EvalResult evaluate(const ir::ProcRef &Candidate);

  /// Where this CostModel compiled \p Candidate's source: the module and
  /// the entry name. The module is null when the source was never
  /// compiled here. Callers reach that module's simulator copy through
  /// it (tests install fault hooks this way).
  struct Placement {
    backend::LoweredModuleRef Module;
    std::string Entry;
  };
  Placement placement(const ir::ProcRef &Candidate);

private:
  EvalResult run(backend::LoweredModule &M, const std::string &Entry);

  KernelShape Shape;
  Metric TheMetric;
  std::vector<float> InA, InB, RefC;
  std::string Salt; ///< keeps this search's modules out of other searches
  std::mutex BatchMu; ///< one batch at a time
  std::mutex ExecMu;  ///< serializes WallClock execution
  /// Run-local key: candidate source -> where it was compiled.
  std::map<std::string, Placement> Compiled;
};

} // namespace tuning
} // namespace exo

#endif // EXO_TUNING_COSTMODEL_H
