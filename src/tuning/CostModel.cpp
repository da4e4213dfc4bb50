//===- tuning/CostModel.cpp ------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "tuning/CostModel.h"

#include "scheduling/Schedule.h"
#include "support/Deadline.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
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
  static std::atomic<uint64_t> NextId{0};
  Salt = "tune" + std::to_string(NextId++);
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

namespace {

/// Lowers \p P alone; a lowered module that cannot run as a cost-model
/// candidate becomes an "unsupported" verdict in \p R.
Expected<LoweredModuleRef> lowerCandidate(const ProcRef &P,
                                          const LowerOptions &LO,
                                          EvalResult &R) {
  auto Mod = jitBackend().lower(P, LO);
  if (!Mod) {
    R.FailStage = "lower";
    R.Detail = Mod.error().message();
    return Mod;
  }
  const EntryInfo *E = (*Mod)->findEntry(P->name());
  if (!E || !E->Executable || !signatureIsThreeMatrices(*E)) {
    R.FailStage = "unsupported";
    R.Detail = "candidate signature cannot be marshalled";
  }
  return Mod;
}

/// One module's share of a batch: the sources it holds, in run order, and
/// their verdicts. Procs holds the candidates of a module this batch
/// builds; until it is built, each source is placed in its own lowering.
struct ModuleJob {
  std::vector<std::string> Keys;
  std::vector<CostModel::Placement> Where;
  std::vector<ProcRef> Procs;
  std::vector<EvalResult> Results;
};

} // namespace

std::vector<EvalResult>
CostModel::evaluate(const std::vector<ProcRef> &Candidates,
                    support::ThreadPool &Pool) {
  std::lock_guard<std::mutex> BatchLock(BatchMu);
  LowerOptions LO;
  LO.CacheSalt = Salt;

  // Lower every candidate once, in parallel: its own verdict when it
  // cannot lower or run, its source as the key otherwise.
  std::vector<EvalResult> Out(Candidates.size());
  std::vector<LoweredModuleRef> Lowered(Candidates.size());
  for (size_t I = 0; I < Candidates.size(); ++I)
    Pool.submit([&, I] {
      auto Mod = lowerCandidate(Candidates[I], LO, Out[I]);
      if (Mod && Out[I].FailStage.empty())
        Lowered[I] = *Mod;
    });
  Pool.waitIdle();

  // Each distinct source gets one slot (job, index). Sources an earlier
  // batch compiled rerun in their module; new ones are dealt round-robin
  // into at most one module per thread.
  std::vector<ModuleJob> Jobs;
  std::map<std::string, std::pair<size_t, size_t>> SlotOf;
  std::map<const LoweredModule *, size_t> JobOfModule;
  std::vector<size_t> New;
  auto place = [&](size_t J, const std::string &Key, const Placement &W) {
    SlotOf[Key] = {J, Jobs[J].Keys.size()};
    Jobs[J].Keys.push_back(Key);
    Jobs[J].Where.push_back(W);
  };
  for (size_t I = 0; I < Candidates.size(); ++I) {
    if (!Lowered[I] || SlotOf.count(Lowered[I]->source()))
      continue;
    const std::string &Key = Lowered[I]->source();
    auto It = Compiled.find(Key);
    if (It == Compiled.end()) {
      SlotOf[Key] = {}; // placed below
      New.push_back(I);
      continue;
    }
    auto [J, Fresh] =
        JobOfModule.emplace(It->second.Module.get(), Jobs.size());
    if (Fresh)
      Jobs.emplace_back();
    place(J->second, Key, It->second);
  }
  size_t NumModules =
      std::min<size_t>(std::max(1u, Pool.numThreads()), New.size());
  size_t FirstNew = Jobs.size();
  Jobs.resize(FirstNew + NumModules);
  for (size_t N = 0; N < New.size(); ++N) {
    size_t I = New[N], J = FirstNew + N % NumModules;
    place(J, Lowered[I]->source(), {Lowered[I], Candidates[I]->name()});
    Jobs[J].Procs.push_back(Candidates[I]);
  }

  // One pool task per module: build it if new, then run its entries in
  // order. A lone source runs in its own lowering. Several share one
  // module under unique entry names (C allows one definition per name);
  // if that module fails to build, each falls back to its own lowering.
  for (ModuleJob &J : Jobs)
    Pool.submit([this, &J, &LO] {
      if (J.Procs.size() > 1) {
        std::vector<ProcRef> Renamed;
        for (size_t K = 0; K < J.Procs.size(); ++K)
          Renamed.push_back(scheduling::renameProc(
              J.Procs[K], J.Procs[K]->name() + "__exo_t" + std::to_string(K)));
        auto Mod = jitBackend().lower(Renamed, LO);
        if (Mod && jitBackend().moduleSymbol(
                       **Mod, "exo_rt_" + Renamed[0]->name()))
          for (size_t K = 0; K < J.Procs.size(); ++K)
            J.Where[K] = {*Mod, Renamed[K]->name()};
      }
      for (const CostModel::Placement &W : J.Where)
        J.Results.push_back(run(*W.Module, W.Entry));
    });
  Pool.waitIdle();

  for (ModuleJob &J : Jobs)
    for (size_t K = 0; K < J.Keys.size(); ++K)
      Compiled.emplace(J.Keys[K], J.Where[K]);
  for (size_t I = 0; I < Candidates.size(); ++I)
    if (Lowered[I]) {
      auto [J, K] = SlotOf[Lowered[I]->source()];
      Out[I] = Jobs[J].Results[K];
    }
  return Out;
}

EvalResult CostModel::evaluate(const ProcRef &Candidate) {
  support::ThreadPool Inline(0);
  return evaluate(std::vector<ProcRef>{Candidate}, Inline)[0];
}

CostModel::Placement CostModel::placement(const ProcRef &Candidate) {
  EvalResult R;
  LowerOptions LO;
  LO.CacheSalt = Salt;
  auto Mod = lowerCandidate(Candidate, LO, R);
  std::lock_guard<std::mutex> BatchLock(BatchMu);
  if (!Mod)
    return {};
  auto It = Compiled.find((*Mod)->source());
  return It == Compiled.end() ? Placement{} : It->second;
}

EvalResult CostModel::run(LoweredModule &M, const std::string &Entry) {
  EvalResult R;
  JitBackend &BE = jitBackend();
  // Fresh inputs per call: no candidate sees another's writes.
  std::vector<float> A = InA, B = InB;
  std::vector<float> C(RefC.size(), 0.0f);
  BufferSet Args = {
      RunArg::buffer(A.data(), A.size() * sizeof(float)),
      RunArg::buffer(B.data(), B.size() * sizeof(float)),
      RunArg::buffer(C.data(), C.size() * sizeof(float)),
  };

  using ResetFn = void (*)(int);
  using StatFn = uint64_t (*)();
  // The first symbol lookup builds the module, outside ExecMu.
  auto Reset = reinterpret_cast<ResetFn>(BE.moduleSymbol(M, "gemmini_reset"));
  auto Cycles = reinterpret_cast<StatFn>(BE.moduleSymbol(M, "gemmini_cycles"));
  auto Matmuls =
      reinterpret_cast<StatFn>(BE.moduleSymbol(M, "gemmini_stat_matmuls"));
  // A module is only ever run by one thread at a time, so simulator
  // reads need no lock; wall-clock timing still runs alone.
  std::unique_lock<std::mutex> Lock(ExecMu, std::defer_lock);
  if (TheMetric == Metric::WallClock)
    Lock.lock();
  if (Reset)
    Reset(0); // EXO_GEMMINI_MODE_SW: functional + cycle model

  unsigned Reps = TheMetric == Metric::WallClock ? 3 : 1;
  double BestMillis = 0;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    std::memset(C.data(), 0, C.size() * sizeof(float));
    double T0 = support::nowMillisPrecise();
    ExecStatus St = BE.execute(M, Entry, Args);
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
    // A candidate with no accelerator calls meters no cycles (its module
    // may carry no simulator copy at all): every MAC ran on the host, so
    // it prices as all-scalar work.
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
