//===- tuning/Tuner.cpp ----------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "tuning/Tuner.h"

#include "backend/Backend.h"
#include "support/Deadline.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <set>

using namespace exo;
using namespace exo::testing;
using namespace exo::tuning;

namespace {

std::atomic<uint64_t> GRunsStarted{0}, GRunsFinished{0}, GGenerationsDone{0},
    GCandidatesTried{0}, GCandidatesOk{0};

/// Dedup key and deterministic tie-break: the proposed trace, one step
/// per line.
std::string keyOf(const std::vector<ScheduleStep> &Trace) {
  std::string K;
  for (const ScheduleStep &S : Trace) {
    K += S.str();
    K += '\n';
  }
  return K;
}

/// Evaluates one generation: the traces are applied in parallel on
/// \p Pool, then the cost model scores the whole generation as one batch
/// on the same pool. Results land in the candidates themselves; no draw
/// of the search RNG happens here, so the fan-out cannot perturb
/// determinism. The already scheduled \p Extra procedures ride in the
/// same batch; their verdicts come back in order and are not candidates.
std::vector<EvalResult> evaluateAll(std::vector<Candidate> &Pop,
                                    const SearchSpace &Space, CostModel &CM,
                                    support::ThreadPool &Pool,
                                    const std::vector<ir::ProcRef> &Extra) {
  std::vector<ir::ProcRef> Procs(Pop.size());
  for (size_t I = 0; I < Pop.size(); ++I)
    Pool.submit([&, I] {
      LenientApplyResult A = applyTraceLenient(Space.Algorithm, Pop[I].Trace);
      Pop[I].Applied = std::move(A.Applied);
      Pop[I].Rejected = A.Rejected;
      Procs[I] = A.Final;
    });
  Pool.waitIdle();
  Procs.insert(Procs.end(), Extra.begin(), Extra.end());

  std::vector<EvalResult> Evals = CM.evaluate(Procs, Pool);
  for (size_t I = 0; I < Pop.size(); ++I) {
    Pop[I].Eval = std::move(Evals[I]);
    ++GCandidatesTried;
    if (Pop[I].Eval.Ok)
      ++GCandidatesOk;
  }
  return {Evals.begin() + static_cast<std::ptrdiff_t>(Pop.size()),
          Evals.end()};
}

bool betterThan(const Candidate &A, const Candidate &B) {
  if (A.Eval.Score != B.Eval.Score)
    return A.Eval.Score < B.Eval.Score;
  return keyOf(A.Trace) < keyOf(B.Trace); // deterministic tie-break
}

} // namespace

TuneResult exo::tuning::tune(const TuneOptions &O) {
  TuneResult Out;
  auto Space = buildSearchSpace(O.Kernel, O.Shape);
  if (!Space) {
    Out.Error = Space.error().str();
    return Out;
  }
  if (O.Population == 0 || O.Generations == 0 || O.Beam == 0) {
    Out.Error = "population, generations, and beam must all be positive";
    return Out;
  }

  ++GRunsStarted;
  double T0 = support::nowMillisPrecise();
  backend::JitBackend::CacheStats Jit0 = backend::JitBackend::cacheStats();

  CostModel CM(O.Shape, O.Score);
  support::ThreadPool Pool(O.Threads == 0
                               ? support::ThreadPool::hardwareThreads()
                               : (O.Threads <= 1 ? 0 : O.Threads));

  Rng R(O.Seed);
  std::set<std::string> Seen;
  std::vector<Candidate> Population, Survivors;
  bool HaveBest = false;

  // Generation zero: the seeds, padded to Population with seed mutants.
  for (const auto &T : Space->Seeds) {
    if (!Seen.insert(keyOf(T)).second)
      continue;
    Candidate C;
    C.Trace = T;
    Population.push_back(std::move(C));
  }
  unsigned PadAttempts = 0;
  while (Population.size() < O.Population && PadAttempts++ < O.Population * 8) {
    const auto &Seed = Space->Seeds[R.next() % Space->Seeds.size()];
    std::vector<ScheduleStep> T = mutateTrace(Space->Algorithm, Seed, R);
    if (!Seen.insert(keyOf(T)).second)
      continue;
    Candidate C;
    C.Trace = std::move(T);
    Population.push_back(std::move(C));
  }

  for (unsigned Gen = 0; Gen < O.Generations; ++Gen) {
    if (O.MaxCandidates &&
        Out.Stats.Tried + Population.size() > O.MaxCandidates)
      Population.resize(O.MaxCandidates > Out.Stats.Tried
                            ? O.MaxCandidates - Out.Stats.Tried
                            : 0);
    if (Population.empty())
      break;
    for (Candidate &C : Population)
      C.Generation = Gen;

    // The expert baseline is the bar the report compares against, and
    // its verdict does not depend on the search. It rides in generation
    // zero's batch (never empty: every space has a seed), where the seed
    // that spells it generates the same C, so it costs no module round of
    // its own.
    std::vector<EvalResult> Extra = evaluateAll(
        Population, *Space, CM, Pool,
        Gen == 0 && Space->Handwritten
            ? std::vector<ir::ProcRef>{Space->Handwritten}
            : std::vector<ir::ProcRef>{});
    if (!Extra.empty()) {
      Out.Handwritten = Extra[0];
      Out.HaveHandwritten = Out.Handwritten.Ok;
    }
    ++GGenerationsDone;
    ++Out.Stats.GenerationsRun;

    for (Candidate &C : Population) {
      ++Out.Stats.Tried;
      if (!C.Eval.Ok)
        continue;
      ++Out.Stats.Ok;
      Survivors.push_back(C);
      if (!HaveBest || betterThan(C, Out.Best)) {
        Out.Best = C;
        HaveBest = true;
      }
    }
    std::sort(Survivors.begin(), Survivors.end(), betterThan);
    if (Survivors.size() > O.Beam)
      Survivors.resize(O.Beam);

    GenerationEntry E;
    E.Gen = Gen;
    E.BestScore = HaveBest ? Out.Best.Eval.Score : 0;
    E.Tried = Out.Stats.Tried;
    E.Ok = Out.Stats.Ok;
    Out.Log.push_back(E);

    if (Gen + 1 == O.Generations)
      break;
    if (O.MaxCandidates && Out.Stats.Tried >= O.MaxCandidates)
      break;
    if (O.DeadlineMillis &&
        support::nowMillisPrecise() - T0 >= (double)O.DeadlineMillis)
      break;

    // Children: mutants of survivors, crossovers between survivors, and
    // a trickle of fresh seed mutants to keep diversity when the beam
    // collapses onto one basin. All draws happen here, serially.
    Population.clear();
    unsigned Attempts = 0;
    while (Population.size() < O.Population &&
           Attempts++ < O.Population * 10) {
      std::vector<ScheduleStep> T;
      unsigned Roll = R.range(0, 9);
      if (Survivors.empty() || Roll < 2) {
        const auto &Seed = Space->Seeds[R.next() % Space->Seeds.size()];
        T = mutateTrace(Space->Algorithm, Seed, R);
      } else if (Roll < 8 || Survivors.size() < 2) {
        const Candidate &P = Survivors[R.next() % Survivors.size()];
        T = mutateTrace(Space->Algorithm, P.Applied, R);
      } else {
        size_t IA = R.next() % Survivors.size();
        size_t IB = R.next() % (Survivors.size() - 1);
        if (IB >= IA)
          ++IB; // two distinct parents
        T = crossoverTraces(Survivors[IA].Applied, Survivors[IB].Applied, R);
      }
      if (!Seen.insert(keyOf(T)).second)
        continue;
      Candidate C;
      C.Trace = std::move(T);
      Population.push_back(std::move(C));
    }
  }

  backend::JitBackend::CacheStats Jit1 = backend::JitBackend::cacheStats();
  Out.Stats.JitCompiles = Jit1.Compiles - Jit0.Compiles;
  Out.Stats.JitHits = Jit1.Hits - Jit0.Hits;
  Out.Stats.WallMillis = support::nowMillisPrecise() - T0;
  Out.Stats.CandidatesPerSec =
      Out.Stats.WallMillis > 0
          ? 1000.0 * (double)Out.Stats.Tried / Out.Stats.WallMillis
          : 0;
  Out.Ok = HaveBest;
  if (!HaveBest)
    Out.Error = "no candidate executed and verified";
  ++GRunsFinished;
  return Out;
}

TunerProgress exo::tuning::tunerProgress() {
  TunerProgress P;
  P.RunsStarted = GRunsStarted.load();
  P.RunsFinished = GRunsFinished.load();
  P.GenerationsDone = GGenerationsDone.load();
  P.CandidatesTried = GCandidatesTried.load();
  P.CandidatesOk = GCandidatesOk.load();
  return P;
}
