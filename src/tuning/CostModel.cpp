//===- tuning/CostModel.cpp ------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "tuning/CostModel.h"

#include "backend/Backend.h"
#include "support/Deadline.h"

#include <cmath>
#include <cstring>

using namespace exo;
using namespace exo::backend;
using namespace exo::ir;
using namespace exo::tuning;

namespace {

/// The benchmark harnesses' input distribution (bench/fig4a_*.cpp):
/// small integers, so float accumulation is exact and verification can
/// demand near-equality.
void fillInputs(std::vector<float> &A, std::vector<float> &B) {
  uint32_t S = 1;
  for (float &V : A) {
    S = S * 1103515245u + 12345u;
    V = static_cast<float>((S >> 16) % 7) - 3.0f;
  }
  for (float &V : B) {
    S = S * 1103515245u + 12345u;
    V = static_cast<float>((S >> 16) % 5) - 2.0f;
  }
}

/// Scheduling never changes a procedure's signature, but a mutated trace
/// may retune precision; the marshalling below assumes three 4-byte-elem
/// rank-2 tensors, so anything else is an unsupported candidate.
bool signatureIsThreeMatrices(const EntryInfo &E) {
  if (E.Args.size() != 3)
    return false;
  for (const FnArg &A : E.Args) {
    const Type &T = A.Ty;
    if (!T.isTensor() || T.isWindow() || T.rank() != 2)
      return false;
    if (T.elem() != ScalarKind::R && T.elem() != ScalarKind::F32)
      return false;
  }
  return true;
}

} // namespace

const char *exo::tuning::metricName(Metric M) {
  return M == Metric::SimCycles ? "sim_cycles" : "wall_clock";
}

CostModel::CostModel(const KernelShape &S, Metric M) : Shape(S), TheMetric(M) {
  InA.resize(static_cast<size_t>(S.N * S.K));
  InB.resize(static_cast<size_t>(S.K * S.M));
  RefC.resize(static_cast<size_t>(S.N * S.M), 0.0f);
  fillInputs(InA, InB);
  // Host reference: C[N,M] += A[N,K] * B[K,M], same loop order as the
  // unscheduled algorithm.
  for (int64_t I = 0; I < S.N; ++I)
    for (int64_t Kk = 0; Kk < S.K; ++Kk) {
      float Av = InA[static_cast<size_t>(I * S.K + Kk)];
      if (Av == 0.0f)
        continue;
      for (int64_t J = 0; J < S.M; ++J)
        RefC[static_cast<size_t>(I * S.M + J)] +=
            Av * InB[static_cast<size_t>(Kk * S.M + J)];
    }
}

EvalResult CostModel::evaluate(const ProcRef &Candidate) {
  EvalResult R;
  JitBackend &BE = jitBackend();

  auto Mod = BE.lower(Candidate);
  if (!Mod) {
    R.FailStage = "lower";
    R.Detail = Mod.error().message();
    return R;
  }
  LoweredModule &M = **Mod;
  const EntryInfo *E = M.findEntry(Candidate->name());
  if (!E || !E->Executable || !signatureIsThreeMatrices(*E)) {
    R.FailStage = "unsupported";
    R.Detail = "candidate signature cannot be marshalled";
    return R;
  }

  // Force compilation now, outside ExecMu: cc is the expensive part and
  // candidates on other threads must compile concurrently. A failed build
  // surfaces again (with its diagnosis) from execute() below.
  (void)BE.moduleSymbol(M, "exo_rt_" + Candidate->name());

  std::vector<float> C(RefC.size(), 0.0f);
  BufferSet Args = {
      RunArg::buffer(InA.data(), InA.size() * sizeof(float)),
      RunArg::buffer(InB.data(), InB.size() * sizeof(float)),
      RunArg::buffer(C.data(), C.size() * sizeof(float)),
  };

  using ResetFn = void (*)(int);
  using StatFn = uint64_t (*)();
  std::lock_guard<std::mutex> Lock(ExecMu);

  auto Reset = reinterpret_cast<ResetFn>(BE.moduleSymbol(M, "gemmini_reset"));
  auto Cycles = reinterpret_cast<StatFn>(BE.moduleSymbol(M, "gemmini_cycles"));
  auto Matmuls =
      reinterpret_cast<StatFn>(BE.moduleSymbol(M, "gemmini_stat_matmuls"));
  if (Reset)
    Reset(0); // EXO_GEMMINI_MODE_SW: functional + cycle model

  unsigned Reps = TheMetric == Metric::WallClock ? 3 : 1;
  double BestMillis = 0;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    std::memset(C.data(), 0, C.size() * sizeof(float));
    double T0 = support::nowMillisPrecise();
    ExecStatus St = BE.execute(M, Candidate->name(), Args);
    double Dt = support::nowMillisPrecise() - T0;
    if (!St.ok()) {
      R.FailStage = St.Kind == ExecKind::Unsupported ? "unsupported"
                                                     : "execute";
      R.Detail = St.Detail;
      return R;
    }
    if (Rep == 0 || Dt < BestMillis)
      BestMillis = Dt;
  }
  R.WallMillis = BestMillis;

  for (size_t I = 0; I < C.size(); ++I) {
    if (std::fabs(C[I] - RefC[I]) > 1e-3f) {
      R.FailStage = "verify";
      R.Detail = "output[" + std::to_string(I) + "] = " +
                 std::to_string(C[I]) + ", expected " +
                 std::to_string(RefC[I]);
      return R;
    }
  }

  R.Ok = true;
  if (TheMetric == Metric::SimCycles) {
    // Modules with no accelerator calls carry no simulator copy: every
    // MAC ran on the host, so the candidate prices as all-scalar work.
    R.SimCycles = Cycles ? Cycles() : 0;
    R.SimMatmuls = Matmuls ? Matmuls() : 0;
    double TotalMacs =
        static_cast<double>(Shape.N) * Shape.M * Shape.K;
    double MappedMacs = static_cast<double>(R.SimMatmuls) * 16 * 16 * 16;
    double ScalarPenalty = TotalMacs - MappedMacs;
    if (ScalarPenalty < 0)
      ScalarPenalty = 0;
    R.Score = static_cast<double>(R.SimCycles) + ScalarPenalty;
  } else {
    R.Score = R.WallMillis;
  }
  return R;
}
