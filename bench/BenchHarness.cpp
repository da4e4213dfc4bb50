//===- bench/BenchHarness.cpp ----------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "smt/Solver.h"
#include "smt/Term.h"
#include "support/Process.h"
#include "support/TempDir.h"

#include <cstdio>
#include <fstream>
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

std::string exo::bench::gemminiSimObject() { return EXO_GEMMINI_SIM_OBJ; }

Expected<std::vector<std::string>>
exo::bench::compileAndRun(const std::string &CSource,
                          const std::vector<std::string> &ExtraSources,
                          const std::vector<std::string> &IncludeDirs,
                          const std::string &ExtraCFlags) {
  support::TempDir Dir("bench_");
  if (!Dir.valid())
    return makeError(Error::Kind::Internal, "cannot create a scratch dir");
  std::string CPath = Dir.file("gen.c"), Bin = Dir.file("gen.bin");
  std::string OutPath = Dir.file("gen.out"), ErrPath = Dir.file("gen.err");
  {
    std::ofstream F(CPath);
    F << CSource;
  }
  std::vector<std::string> Cc{"cc", "-O2", "-march=native", "-std=gnu11"};
  std::istringstream Flags(ExtraCFlags);
  for (std::string Flag; Flags >> Flag;)
    Cc.push_back(Flag);
  for (const std::string &I : IncludeDirs)
    Cc.push_back("-I" + I);
  Cc.push_back(CPath);
  Cc.insert(Cc.end(), ExtraSources.begin(), ExtraSources.end());
  Cc.insert(Cc.end(), {"-lm", "-o", Bin});
  auto Stderr = [&ErrPath] {
    std::ifstream E(ErrPath);
    std::stringstream SS;
    SS << E.rdbuf();
    return SS.str();
  };
  if (support::runCommands({{Cc, ErrPath}})[0] != 0)
    return makeError(Error::Kind::Internal,
                     "C compilation failed:\n" + Stderr());
  if (support::runCommands({{{Bin}, ErrPath, OutPath}})[0] != 0)
    return makeError(Error::Kind::Internal,
                     "generated binary failed:\n" + Stderr());
  std::ifstream In(OutPath);
  std::vector<std::string> Tokens;
  std::string T;
  while (In >> T)
    Tokens.push_back(T);
  return Tokens;
}

std::string exo::bench::solverStatsJson() {
  smt::Solver::Stats S = smt::solverGlobalStats();
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
