//===- smt/Solver.cpp ------------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"

#include "smt/Prenex.h"
#include "smt/Simplify.h"

#include "support/Deadline.h"
#include "support/FaultInjector.h"

#include <atomic>
#include <chrono>
#include <thread>

using namespace exo;
using namespace exo::smt;

namespace {
std::atomic<uint64_t> &defaultBudgetStorage() {
  static std::atomic<uint64_t> Budget{2'000'000};
  return Budget;
}

/// Thread-scoped default overrides (see ScopedSolverDefaults).
struct ThreadDefaults {
  bool Active = false;
  uint64_t Budget = 0;
};
thread_local ThreadDefaults TLDefaults;

/// Process-wide aggregate as lock-free atomics: every solver on every
/// session thread bumps these on the query hot path, so a mutex here would
/// both serialize the batch driver and (worse) undercount if skipped.
/// Snapshot reads are per-counter relaxed loads — counters are mutually
/// consistent only at quiescence, which is when benchmarks read them.
struct GlobalStats {
  std::atomic<uint64_t> NumQueries{0};
  std::atomic<uint64_t> NumUnknown{0};
  std::atomic<uint64_t> NumUnknownBudget{0};
  std::atomic<uint64_t> NumUnknownStructural{0};
  std::atomic<uint64_t> NumUnknownTimeout{0};
  std::atomic<uint64_t> NumLiterals{0};
  std::atomic<uint64_t> SimplifyConstFoldHits{0};
  std::atomic<uint64_t> SimplifyConstFoldMisses{0};
  std::atomic<uint64_t> SimplifyEqSubstHits{0};
  std::atomic<uint64_t> SimplifyEqSubstMisses{0};
  std::atomic<uint64_t> SimplifyIntervalHits{0};
  std::atomic<uint64_t> SimplifyIntervalMisses{0};
  std::atomic<uint64_t> SimplifyDecided{0};
  std::atomic<uint64_t> CooperReorders{0};
  std::atomic<uint64_t> CooperEarlyExits{0};
  std::atomic<uint64_t> FastPathHits{0};
  std::atomic<uint64_t> FastPathMisses{0};

  static GlobalStats &get() {
    static GlobalStats G;
    return G;
  }
};

/// Per-thread mirror of the counters (see solverThreadStats()).
thread_local Solver::Stats TLStats;

/// The last budget-Unknown query observed on this thread (see
/// lastBudgetUnknownQuery()).
thread_local TermRef TLLastBudgetUnknown;
} // namespace

namespace {
/// Applies \p Fn to every (snapshot-field, atomic-counter) pair so the
/// snapshot/reset functions cannot drift out of sync with the counter
/// list as stats grow.
template <typename FnT> void forEachCounter(GlobalStats &G, FnT Fn) {
  Fn(&Solver::Stats::NumQueries, G.NumQueries);
  Fn(&Solver::Stats::NumUnknown, G.NumUnknown);
  Fn(&Solver::Stats::NumUnknownBudget, G.NumUnknownBudget);
  Fn(&Solver::Stats::NumUnknownStructural, G.NumUnknownStructural);
  Fn(&Solver::Stats::NumUnknownTimeout, G.NumUnknownTimeout);
  Fn(&Solver::Stats::NumLiterals, G.NumLiterals);
  Fn(&Solver::Stats::SimplifyConstFoldHits, G.SimplifyConstFoldHits);
  Fn(&Solver::Stats::SimplifyConstFoldMisses, G.SimplifyConstFoldMisses);
  Fn(&Solver::Stats::SimplifyEqSubstHits, G.SimplifyEqSubstHits);
  Fn(&Solver::Stats::SimplifyEqSubstMisses, G.SimplifyEqSubstMisses);
  Fn(&Solver::Stats::SimplifyIntervalHits, G.SimplifyIntervalHits);
  Fn(&Solver::Stats::SimplifyIntervalMisses, G.SimplifyIntervalMisses);
  Fn(&Solver::Stats::SimplifyDecided, G.SimplifyDecided);
  Fn(&Solver::Stats::CooperReorders, G.CooperReorders);
  Fn(&Solver::Stats::CooperEarlyExits, G.CooperEarlyExits);
  Fn(&Solver::Stats::FastPathHits, G.FastPathHits);
  Fn(&Solver::Stats::FastPathMisses, G.FastPathMisses);
}
} // namespace

Solver::Stats exo::smt::solverGlobalStats() {
  GlobalStats &G = GlobalStats::get();
  Solver::Stats S;
  forEachCounter(G, [&S](uint64_t Solver::Stats::*M,
                         std::atomic<uint64_t> &C) {
    S.*M = C.load(std::memory_order_relaxed);
  });
  return S;
}

void exo::smt::resetSolverGlobalStats() {
  GlobalStats &G = GlobalStats::get();
  forEachCounter(G, [](uint64_t Solver::Stats::*M,
                       std::atomic<uint64_t> &C) {
    (void)M;
    C.store(0, std::memory_order_relaxed);
  });
}

Solver::Stats exo::smt::solverThreadStats() { return TLStats; }

void exo::smt::noteEffectFastPath(bool Hit) {
  GlobalStats &G = GlobalStats::get();
  if (Hit) {
    ++TLStats.FastPathHits;
    G.FastPathHits.fetch_add(1, std::memory_order_relaxed);
  } else {
    ++TLStats.FastPathMisses;
    G.FastPathMisses.fetch_add(1, std::memory_order_relaxed);
  }
}

TermRef exo::smt::lastBudgetUnknownQuery() { return TLLastBudgetUnknown; }

void exo::smt::clearLastBudgetUnknownQuery() {
  TLLastBudgetUnknown = nullptr;
}

uint64_t exo::smt::defaultMaxLiterals() {
  if (TLDefaults.Active)
    return TLDefaults.Budget;
  return defaultBudgetStorage().load(std::memory_order_relaxed);
}

void exo::smt::setDefaultMaxLiterals(uint64_t Budget) {
  defaultBudgetStorage().store(Budget == 0 ? 1 : Budget,
                               std::memory_order_relaxed);
}

ScopedSolverDefaults::ScopedSolverDefaults(uint64_t MaxLiterals)
    : PrevActive(TLDefaults.Active), PrevBudget(TLDefaults.Budget) {
  TLDefaults.Active = true;
  TLDefaults.Budget = MaxLiterals == 0 ? 1 : MaxLiterals;
}

ScopedSolverDefaults::~ScopedSolverDefaults() {
  TLDefaults.Active = PrevActive;
  TLDefaults.Budget = PrevBudget;
}

/// Closes the free variables of \p F with the given quantifier; boolean
/// variables are restricted to {0, 1}.
static TermRef closeFreeVars(TermRef F, bool Universally) {
  std::vector<TermVar> Free;
  collectFreeVars(F, Free);
  for (auto It = Free.rbegin(); It != Free.rend(); ++It) {
    TermVar V = *It;
    if (V.VarSort == Sort::Bool) {
      // Reinterpret the variable as an integer (the eliminator maps bool
      // vars onto int vars with the same Id) and bound it to {0, 1}.
      TermVar IntV{V.Id, V.Name, Sort::Int};
      TermRef X = mkVar(IntV);
      TermRef Range = mkAnd(le(intConst(0), X), le(X, intConst(1)));
      F = Universally ? forall(IntV, implies(Range, F))
                      : exists(IntV, mkAnd(Range, F));
    } else {
      F = Universally ? forall(V, F) : exists(V, F);
    }
  }
  return F;
}

SolverResult Solver::decide(TermRef Closed) {
  GlobalStats &G = GlobalStats::get();
  // Every counter bump lands in three places: this instance, the
  // process-wide aggregate, and the per-thread mirror.
  auto Bump = [&](uint64_t Solver::Stats::*M, std::atomic<uint64_t> &Counter,
                  uint64_t N = 1) {
    TheStats.*M += N;
    TLStats.*M += N;
    Counter.fetch_add(N, std::memory_order_relaxed);
  };
  Bump(&Stats::NumQueries, G.NumQueries);

  // Fault-injection sites, ahead of any solving. An injected timeout
  // models a wedged query: it cooperatively burns the thread's deadline
  // (bounded when there is none) before reporting Unknown{timeout}; an
  // injected budget-Unknown returns immediately with the budget verdict
  // so retry policies can be exercised deterministically.
  support::FaultInjector &Inj = support::FaultInjector::instance();
  if (Inj.enabled()) {
    if (Inj.shouldFire(support::Fault::SolverTimeout)) {
      auto SpinStart = std::chrono::steady_clock::now();
      while (!support::threadDeadlineExpired()) {
        // Without a deadline, stay "wedged" only briefly — injection must
        // never turn into the very hang it exists to test for.
        if (!support::currentThreadDeadline().isFinite() &&
            std::chrono::steady_clock::now() - SpinStart >
                std::chrono::milliseconds(25))
          break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      Bump(&Stats::NumUnknown, G.NumUnknown);
      Bump(&Stats::NumUnknownTimeout, G.NumUnknownTimeout);
      return SolverResult::Unknown;
    }
    if (Inj.shouldFire(support::Fault::SolverBudgetUnknown)) {
      Bump(&Stats::NumUnknown, G.NumUnknown);
      Bump(&Stats::NumUnknownBudget, G.NumUnknownBudget);
      TLLastBudgetUnknown = Closed;
      return SolverResult::Unknown;
    }
  }

  // Preprocessing pipeline: a query decided here costs no budget.
  SimplifyConfig Cfg = simplifyConfig();
  SimplifyOutcome SO = simplifyQuery(Closed);
  if (Cfg.ConstFold)
    Bump(SO.ConstFoldHit ? &Stats::SimplifyConstFoldHits
                         : &Stats::SimplifyConstFoldMisses,
         SO.ConstFoldHit ? G.SimplifyConstFoldHits
                         : G.SimplifyConstFoldMisses);
  if (Cfg.EqSubst)
    Bump(SO.EqSubstHit ? &Stats::SimplifyEqSubstHits
                       : &Stats::SimplifyEqSubstMisses,
         SO.EqSubstHit ? G.SimplifyEqSubstHits : G.SimplifyEqSubstMisses);
  if (Cfg.IntervalProp)
    Bump(SO.IntervalHit ? &Stats::SimplifyIntervalHits
                        : &Stats::SimplifyIntervalMisses,
         SO.IntervalHit ? G.SimplifyIntervalHits
                        : G.SimplifyIntervalMisses);
  if (SO.decided()) {
    Bump(&Stats::SimplifyDecided, G.SimplifyDecided);
    return SO.Simplified->boolValue() ? SolverResult::Yes : SolverResult::No;
  }

  Budget B(Opts.MaxLiterals);
  QFormRef Ground = eliminateQuantifiers(SO.Simplified, B);
  if (B.spent())
    Bump(&Stats::NumLiterals, G.NumLiterals, B.spent());
  if (B.reorders())
    Bump(&Stats::CooperReorders, G.CooperReorders, B.reorders());
  if (B.earlyExits())
    Bump(&Stats::CooperEarlyExits, G.CooperEarlyExits, B.earlyExits());
  if (!B.exceeded() && Ground->isTrue())
    return SolverResult::Yes;
  if (!B.exceeded() && Ground->isFalse())
    return SolverResult::No;
  // Out of budget, or a non-ground residue (the query was not closed).
  Bump(&Stats::NumUnknown, G.NumUnknown);
  if (B.timedOut()) {
    Bump(&Stats::NumUnknownTimeout, G.NumUnknownTimeout);
  } else if (B.structuralOverflow()) {
    Bump(&Stats::NumUnknownStructural, G.NumUnknownStructural);
  } else {
    Bump(&Stats::NumUnknownBudget, G.NumUnknownBudget);
    // Remember the (pre-simplification) query so a retry policy can
    // re-prove just this one under an escalated budget.
    TLLastBudgetUnknown = Closed;
  }
  return SolverResult::Unknown;
}

SolverResult Solver::checkValid(const TermRef &F) {
  return decide(closeFreeVars(F, /*Universally=*/true));
}

SolverResult Solver::checkSat(const TermRef &F) {
  return decide(closeFreeVars(F, /*Universally=*/false));
}
