//===- bench/BenchHarness.cpp ----------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "analysis/EffectCache.h"
#include "smt/Solver.h"
#include "smt/Term.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unistd.h>
#include <sstream>

using namespace exo;
using namespace exo::bench;

#ifndef EXO_SOURCE_DIR
#define EXO_SOURCE_DIR "."
#endif

std::string exo::bench::gemminiRuntimeDir() {
  return std::string(EXO_SOURCE_DIR) + "/src/hwlibs/gemmini/runtime";
}

std::string exo::bench::avx512RuntimeDir() {
  return std::string(EXO_SOURCE_DIR) + "/src/hwlibs/avx512/runtime";
}

Expected<std::vector<std::string>>
exo::bench::compileAndRun(const std::string &CSource,
                          const std::vector<std::string> &ExtraSources,
                          const std::vector<std::string> &IncludeDirs,
                          const std::string &ExtraCFlags) {
  static int Counter = 0;
  std::string Dir = "/tmp/exocc_bench";
  (void)std::system(("mkdir -p " + Dir).c_str());
  std::string Tag = std::to_string(getpid()) + "_" + std::to_string(Counter++);
  std::string CPath = Dir + "/gen_" + Tag + ".c";
  std::string Bin = Dir + "/gen_" + Tag + ".bin";
  std::string OutPath = Dir + "/gen_" + Tag + ".out";
  std::string ErrPath = Dir + "/gen_" + Tag + ".err";
  {
    std::ofstream F(CPath);
    F << CSource;
  }
  std::string Cmd = "cc -O2 -march=native -std=gnu11 " + ExtraCFlags + " ";
  for (const std::string &I : IncludeDirs)
    Cmd += "-I" + I + " ";
  Cmd += CPath + " ";
  for (const std::string &S : ExtraSources)
    Cmd += S + " ";
  Cmd += "-lm -o " + Bin + " 2> " + ErrPath;
  if (std::system(Cmd.c_str()) != 0) {
    std::ifstream E(ErrPath);
    std::stringstream SS;
    SS << E.rdbuf();
    return makeError(Error::Kind::Internal,
                     "C compilation failed:\n" + SS.str());
  }
  if (std::system((Bin + " > " + OutPath).c_str()) != 0)
    return makeError(Error::Kind::Internal, "generated binary failed");
  std::ifstream In(OutPath);
  std::vector<std::string> Tokens;
  std::string T;
  while (In >> T)
    Tokens.push_back(T);
  return Tokens;
}

std::string exo::bench::solverStatsJson() {
  smt::Solver::Stats S = smt::solverGlobalStats();
  analysis::EffectCacheStats E = analysis::effectCacheStats();
  smt::TermInternerStats T = smt::termInternerStats();
  std::ostringstream O;
  O << "{\n"
    << "  \"solver\": {\"queries\": " << S.NumQueries
    << ", \"unknown\": " << S.NumUnknown
    << ", \"unknown_budget\": " << S.NumUnknownBudget
    << ", \"unknown_structural\": " << S.NumUnknownStructural
    << ", \"unknown_timeout\": " << S.NumUnknownTimeout
    << ", \"cooper_literals\": " << S.NumLiterals
    << ", \"cooper_reorders\": " << S.CooperReorders
    << ", \"cooper_early_exits\": " << S.CooperEarlyExits << "},\n"
    << "  \"simplify\": {\"decided\": " << S.SimplifyDecided
    << ", \"const_fold_hits\": " << S.SimplifyConstFoldHits
    << ", \"const_fold_misses\": " << S.SimplifyConstFoldMisses
    << ", \"eq_subst_hits\": " << S.SimplifyEqSubstHits
    << ", \"eq_subst_misses\": " << S.SimplifyEqSubstMisses
    << ", \"interval_hits\": " << S.SimplifyIntervalHits
    << ", \"interval_misses\": " << S.SimplifyIntervalMisses
    << ", \"fastpath_hits\": " << S.FastPathHits
    << ", \"fastpath_misses\": " << S.FastPathMisses << "},\n"
    << "  \"effect_cache\": {\"hits\": " << E.Hits
    << ", \"misses\": " << E.Misses << ", \"uncacheable\": " << E.Uncacheable
    << ", \"evictions\": " << E.Evictions << ", \"size\": " << E.Size
    << "},\n"
    << "  \"term_interner\": {\"hits\": " << T.Hits
    << ", \"misses\": " << T.Misses << ", \"flushes\": " << T.Flushes
    << ", \"live\": " << T.Live << "}\n"
    << "}\n";
  return O.str();
}

bool exo::bench::writeSolverStatsJson(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << solverStatsJson();
  return static_cast<bool>(Out);
}

void exo::bench::printRow(const std::vector<std::string> &Cells,
                          const std::vector<int> &Widths) {
  std::string Line;
  for (size_t I = 0; I < Cells.size(); ++I) {
    int W = I < Widths.size() ? Widths[I] : 12;
    std::string C = Cells[I];
    if (static_cast<int>(C.size()) < W)
      C += std::string(W - C.size(), ' ');
    Line += C + " ";
  }
  std::printf("%s\n", Line.c_str());
}
