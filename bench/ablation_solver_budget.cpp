//===- bench/ablation_solver_budget.cpp - Solver budget ablation -*- C++-*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the SMT-lite solver's literal budget (DESIGN.md): the
/// paper relies on Z3; our in-tree Cooper-elimination solver degrades to
/// *Unknown* when its budget runs out, and every scheduling operator
/// fails safe on Unknown. This sweep shows at which budget the full
/// Gemmini matmul pipeline starts succeeding and how scheduling time
/// scales with the budget, with the Unknown verdicts broken down into
/// budget exhaustion (a bigger budget may fix it) vs structural overflow
/// (genuine non-quasi-affine fallout no budget will fix). Each row runs
/// with cleared caches so the per-budget numbers are comparable.
///
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "apps/GemminiMatmul.h"
#include "smt/Simplify.h"
#include "smt/Solver.h"

#include <chrono>
#include <cstdio>

using namespace exo;
using namespace exo::bench;

int main() {
  std::printf("Ablation: solver literal budget vs scheduling success "
              "(Gemmini matmul 128^3 pipeline)\n");
  const uint64_t Budgets[] = {100,     1000,    10'000,   50'000,
                              200'000, 500'000, 2'000'000};
  // Two sweeps: preprocessing pipeline off, then on. The success
  // threshold shifts left with the pipeline enabled because most
  // containment/disjointness obligations are decided before Cooper ever
  // charges a literal (see EXPERIMENTS.md).
  for (bool Pipeline : {false, true}) {
  std::printf("\n--- preprocessing pipeline %s ---\n\n",
              Pipeline ? "ON" : "OFF");
  smt::SimplifyConfig Cfg;
  if (!Pipeline) {
    Cfg.ConstFold = Cfg.EqSubst = Cfg.IntervalProp = false;
    Cfg.CheapVarOrder = Cfg.EffectFastPath = false;
  }
  smt::setSimplifyConfig(Cfg);
  printRow({"budget", "pipeline", "time (ms)", "unk(budget)", "unk(struct)",
            "first failing step"},
           {10, 9, 10, 11, 11, 40});
  for (uint64_t Budget : Budgets) {
    smt::setDefaultMaxLiterals(Budget);
    smt::resetSolverGlobalStats();
    auto T0 = std::chrono::steady_clock::now();
    auto K = apps::buildGemminiMatmul(128, 128, 128);
    auto T1 = std::chrono::steady_clock::now();
    double Ms =
        std::chrono::duration<double, std::milli>(T1 - T0).count();
    smt::Solver::Stats S = smt::solverGlobalStats();
    char BBuf[32], TBuf[32], UB[32], US[32];
    std::snprintf(BBuf, 32, "%llu", (unsigned long long)Budget);
    std::snprintf(TBuf, 32, "%.1f", Ms);
    std::snprintf(UB, 32, "%llu", (unsigned long long)S.NumUnknownBudget);
    std::snprintf(US, 32, "%llu", (unsigned long long)S.NumUnknownStructural);
    printRow({BBuf, K ? "ok" : "FAILS", TBuf, UB, US,
              K ? "-" : K.error().message().substr(0, 40)},
             {10, 9, 10, 11, 11, 40});
  }
  }
  smt::setSimplifyConfig(smt::SimplifyConfig());
  smt::setDefaultMaxLiterals(2'000'000);
  std::printf("\nSafety is preserved at every budget: an exhausted solver "
              "rejects the rewrite\ninstead of admitting it (§5: analyses "
              "may approximate, but only toward 'no').\n");
  std::printf("\nInstrumentation snapshot (last row):\n%s",
              solverStatsJson().c_str());
  return 0;
}
