//===- testing/Fuzzer.cpp - Differential fuzzing loop ----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "testing/Fuzzer.h"

#include "backend/Backend.h"
#include "frontend/Parser.h"
#include "smt/Solver.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace exo;
using namespace exo::ir;
using namespace exo::testing;

namespace {

std::map<std::string, int64_t> controlsOf(const std::vector<ArgSpec> &Args) {
  std::map<std::string, int64_t> M;
  for (const ArgSpec &A : Args)
    if (A.IsControl)
      M[A.Name] = A.Value;
  return M;
}

/// Everything needed to diagnose one oracle case after the batch runs.
struct CaseMeta {
  uint64_t ProgramSeed = 0;
  std::string Source;
  std::map<std::string, int64_t> Controls;
  std::vector<ScheduleStep> Trace;
};

} // namespace

Rng exo::testing::scheduleRng(uint64_t Seed, unsigned Variant) {
  return Rng(Seed * 7919 + static_cast<uint64_t>(Variant) * 104729 + 1);
}

driver::CompileJob exo::testing::fuzzCompileJob(uint64_t Seed) {
  driver::CompileJob J;
  J.Name = "fuzz_p" + std::to_string(Seed);
  J.Build = [Seed]() -> Expected<std::vector<ir::ProcRef>> {
    auto G = generateProgram(Seed);
    if (!G)
      return G.error();
    Rng R = scheduleRng(Seed, 1);
    return std::vector<ir::ProcRef>{generateSchedule(G->Proc, R).Scheduled};
  };
  J.BuildReference = [Seed]() -> Expected<std::vector<ir::ProcRef>> {
    auto G = generateProgram(Seed);
    if (!G)
      return G.error();
    return std::vector<ir::ProcRef>{G->Proc};
  };
  return J;
}

Expected<CorpusCase> exo::testing::makeCorpusCase(uint64_t Seed,
                                                  unsigned Variant,
                                                  const GenOptions &GO,
                                                  const ScheduleGenOptions &SO) {
  auto G = generateProgram(Seed, GO);
  if (!G)
    return G.error();
  CorpusCase Case;
  Case.Seed = Seed;
  Case.InputSeed = Seed;
  Case.Controls = controlsOf(G->Args);
  Case.Source = G->Proc->str();
  if (Variant > 0) {
    Rng R = scheduleRng(Seed, Variant);
    Case.Trace = generateSchedule(G->Proc, R, SO).Trace;
  }
  return Case;
}

Expected<CorpusCase> exo::testing::shrinkCase(const CorpusCase &Full,
                                              const OracleOutcome &Observed,
                                              const OracleOptions &O) {
  auto P = frontend::parseProc(Full.Source);
  if (!P)
    return makeError(Error::Kind::Parse,
                     "shrink: source no longer parses: " + P.error().message());
  auto Args = argSpecsFor(*P, Full.Controls);
  if (!Args)
    return Args.error();

  // When the interpreter alone already witnesses the failure, shrink
  // against it and skip the C pipeline's compile cycles.
  OracleOptions ShrinkO = O;
  ShrinkO.SkipC = Observed.Status == OracleStatus::ScheduleDivergence ||
                  Observed.Status == OracleStatus::ScheduledInterpError;

  auto stillFails = [&](const std::vector<ScheduleStep> &Trace,
                        bool &Fails) -> Expected<bool> {
    auto Sched = applyTrace(*P, Trace);
    if (!Sched) {
      // The dropped step was a dependency of a later one; not a
      // candidate, but not a harness error either.
      Fails = false;
      return true;
    }
    auto Out = runOracle({*P, *Sched, *Args, Full.InputSeed}, ShrinkO);
    if (!Out)
      return Out.error();
    Fails = !Out->ok();
    return true;
  };

  CorpusCase Best = Full;
  bool Improved = true;
  while (Improved && Best.Trace.size() > 0) {
    Improved = false;
    for (size_t Drop = 0; Drop < Best.Trace.size(); ++Drop) {
      std::vector<ScheduleStep> Cand;
      for (size_t I = 0; I < Best.Trace.size(); ++I)
        if (I != Drop)
          Cand.push_back(Best.Trace[I]);
      bool Fails = false;
      auto R = stillFails(Cand, Fails);
      if (!R)
        return R.error();
      if (Fails) {
        Best.Trace = std::move(Cand);
        Improved = true;
        break;
      }
    }
  }
  return Best;
}

Expected<std::string>
exo::testing::writeReproducer(const std::string &Dir,
                              const FuzzDivergence &D) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC)
    return makeError(Error::Kind::Internal,
                     "cannot create repro dir " + Dir + ": " + EC.message());
  std::string Base = Dir + "/repro_" + std::to_string(D.ProgramSeed);
  for (unsigned N = 2; std::filesystem::exists(Base + ".fuzz"); ++N)
    Base = Dir + "/repro_" + std::to_string(D.ProgramSeed) + "_" +
           std::to_string(N);

  auto W = writeCorpusFile(Base + ".fuzz", D.Shrunk);
  if (!W)
    return W.error();
  {
    std::ofstream Exo(Base + ".exo");
    Exo << D.Shrunk.Source;
  }
  {
    std::ofstream Cpp(Base + ".cpp");
    Cpp << "// Standalone reproducer for a differential-fuzzing divergence.\n"
        << "//   status: " << oracleStatusName(D.Outcome.Status) << "\n"
        << "//   detail: " << D.Outcome.Detail << "\n"
        << "//\n"
        << "// Build (from the repository root, after building the\n"
        << "// libraries):\n"
        << "//   c++ -std=c++20 -I src " << Base << ".cpp \\\n"
        << "//     build/src/libexo_testing.a build/src/libexo_driver.a \\\n"
        << "//     build/src/libexo_apps.a build/src/libexo_hwlibs.a \\\n"
        << "//     build/src/libexo_scheduling.a build/src/libexo_interp.a \\\n"
        << "//     build/src/libexo_backend.a build/src/libexo_frontend.a \\\n"
        << "//     build/src/libexo_analysis.a build/src/libexo_smt.a \\\n"
        << "//     build/src/libexo_ir.a build/src/libexo_support.a \\\n"
        << "//     -lpthread -o repro && ./repro\n"
        << "// Exits 1 while the divergence reproduces.\n"
        << "#include \"testing/Corpus.h\"\n"
        << "#include <cstdio>\n"
        << "static const char *CaseText = R\"EXOFUZZ(\n"
        << renderCorpus(D.Shrunk) << ")EXOFUZZ\";\n"
        << "int main() {\n"
        << "  using namespace exo::testing;\n"
        << "  auto Case = parseCorpus(CaseText + 1); // skip leading newline\n"
        << "  if (!Case) { std::printf(\"corpus: %s\\n\", "
           "Case.error().str().c_str()); return 2; }\n"
        << "  auto OC = materializeCorpus(*Case);\n"
        << "  if (!OC) { std::printf(\"materialize: %s\\n\", "
           "OC.error().str().c_str()); return 2; }\n"
        << "  auto Out = runOracle(*OC, {});\n"
        << "  if (!Out) { std::printf(\"oracle: %s\\n\", "
           "Out.error().str().c_str()); return 2; }\n"
        << "  std::printf(\"%s: %s\\n\", oracleStatusName(Out->Status),\n"
        << "              Out->Detail.c_str());\n"
        << "  return Out->ok() ? 0 : 1;\n"
        << "}\n";
  }
  return Base;
}

Expected<FuzzReport> exo::testing::runFuzz(const FuzzOptions &O) {
  auto Start = std::chrono::steady_clock::now();
  smt::Solver::Stats Solver0 = smt::solverGlobalStats();
  FuzzReport Report;
  FuzzStats &S = Report.Stats;

  std::vector<OracleCase> Cases;
  std::vector<CaseMeta> Metas;

  for (unsigned PI = 0; PI < O.NumPrograms; ++PI) {
    uint64_t Seed = O.Seed + PI;
    auto G = generateProgram(Seed, O.Gen);
    if (!G) {
      // A generator failure is itself a finding (the generator promises
      // statically valid programs); it fails the run via clean().
      ++S.GenFailures;
      continue;
    }
    ++S.Programs;
    std::string Source = G->Proc->str();
    std::map<std::string, int64_t> Controls = controlsOf(G->Args);

    Cases.push_back({G->Proc, G->Proc, G->Args, Seed});
    Metas.push_back({Seed, Source, Controls, {}});

    for (unsigned V = 1; V <= O.SchedulesPerProgram; ++V) {
      Rng R = scheduleRng(Seed, V);
      ScheduleResult SR = generateSchedule(G->Proc, R, O.Sched);
      ++S.Schedules;
      S.StepsProposed += SR.Proposed;
      S.StepsAccepted += SR.Accepted;
      S.CursorChecks += SR.CursorChecks;
      S.CursorInvalidated += SR.CursorInvalidated;
      S.CursorMismatches += SR.CursorMismatches;
      for (std::string &N : SR.CursorNotes)
        Report.CursorNotes.push_back("seed " + std::to_string(Seed) +
                                     " variant " + std::to_string(V) + ": " +
                                     std::move(N));
      for (const auto &[Op, PA] : SR.OpStats) {
        S.OpStats[Op].first += PA.first;
        S.OpStats[Op].second += PA.second;
      }
      Cases.push_back({G->Proc, SR.Scheduled, G->Args, Seed});
      Metas.push_back({Seed, Source, Controls, SR.Trace});
    }
  }

  // Run the oracle in batches; with the JIT backend each batch is one
  // shared-object compile (or a cache hit on replay).
  backend::JitBackend::resetCacheStats();
  OracleTimings MainTimings;
  OracleOptions MainOracle = O.Oracle;
  MainOracle.Timings = &MainTimings;
  std::vector<OracleOutcome> AllOut(Cases.size());
  unsigned Batch = O.OracleBatch ? O.OracleBatch : 64;
  for (size_t Lo = 0; Lo < Cases.size(); Lo += Batch) {
    size_t Hi = std::min(Cases.size(), Lo + Batch);
    std::vector<OracleCase> Slice(Cases.begin() + Lo, Cases.begin() + Hi);
    auto Out = runOracle(std::move(Slice), MainOracle);
    if (!Out)
      return Out.error();
    ++S.OracleBatches;
    S.Cases += static_cast<unsigned>(Hi - Lo);

    for (size_t I = 0; I < Out->size(); ++I) {
      AllOut[Lo + I] = (*Out)[I];
      const OracleOutcome &R = (*Out)[I];
      if (R.ok())
        continue;
      ++S.Divergences;
      const CaseMeta &M = Metas[Lo + I];

      FuzzDivergence D;
      D.ProgramSeed = M.ProgramSeed;
      D.InputSeed = M.ProgramSeed;
      D.Outcome = R;
      D.FullTraceLen = static_cast<unsigned>(M.Trace.size());

      CorpusCase Full;
      Full.Seed = M.ProgramSeed;
      Full.InputSeed = M.ProgramSeed;
      Full.Controls = M.Controls;
      Full.Source = M.Source;
      Full.Trace = M.Trace;
      auto Shrunk = shrinkCase(Full, R, O.Oracle);
      D.Shrunk = Shrunk ? *Shrunk : Full;

      if (!O.ReproDir.empty()) {
        auto Base = writeReproducer(O.ReproDir, D);
        if (Base)
          D.ReproBase = *Base;
      }
      Report.Divergences.push_back(std::move(D));
    }
  }

  S.OracleInterpMillis = MainTimings.InterpMillis;
  S.OracleExecMillis = MainTimings.ExecMillis;

  if (O.CompareBackends) {
    // Re-run every retained case through each executable backend, cold
    // (empty module cache) then warm, timing only the backend-dependent
    // lower+execute phase. Statuses must match the main run's — a
    // mismatch means the backends disagree about the same program and
    // fails the run via clean().
    auto runAll = [&](const std::string &Name,
                      double &Millis,
                      bool CrossCheck) -> Expected<bool> {
      OracleTimings T;
      OracleOptions OB = O.Oracle;
      OB.Backend = Name;
      OB.Timings = &T;
      for (size_t Lo = 0; Lo < Cases.size(); Lo += Batch) {
        size_t Hi = std::min(Cases.size(), Lo + Batch);
        std::vector<OracleCase> Slice(Cases.begin() + Lo, Cases.begin() + Hi);
        auto Out = runOracle(std::move(Slice), OB);
        if (!Out)
          return Out.error();
        if (!CrossCheck)
          continue;
        for (size_t I = 0; I < Out->size(); ++I) {
          if ((*Out)[I].Status == AllOut[Lo + I].Status)
            continue;
          ++S.BackendMismatches;
          Report.BackendNotes.push_back(
              "backend mismatch: seed " +
              std::to_string(Metas[Lo + I].ProgramSeed) + " is " +
              oracleStatusName(AllOut[Lo + I].Status) + " under " +
              O.Oracle.Backend + " but " +
              oracleStatusName((*Out)[I].Status) + " under " + Name);
        }
      }
      Millis = T.ExecMillis;
      return true;
    };

    for (backend::Backend *BE : backend::allBackends()) {
      if (!(BE->caps() & backend::CapCanExecute))
        continue;
      FuzzStats::BackendBench B;
      B.Backend = BE->name();
      B.Cases = static_cast<unsigned>(Cases.size());
      // Only the JIT caches modules across calls; dropping its cache is
      // what makes the cold rep cold. csource rebuilds every batch, so
      // its "warm" rep measures the same work again.
      if (B.Backend == "jit")
        backend::JitBackend::clearCache();
      auto Cold = runAll(B.Backend, B.ColdExecMillis, true);
      if (!Cold)
        return Cold.error();
      auto Warm = runAll(B.Backend, B.WarmExecMillis, false);
      if (!Warm)
        return Warm.error();
      S.BackendBenches.push_back(std::move(B));
    }
  }

  backend::JitBackend::CacheStats JS = backend::JitBackend::cacheStats();
  S.JitCompiles = JS.Compiles;
  S.JitCacheHits = JS.Hits;
  S.JitEvictions = JS.Evictions;
  smt::Solver::Stats Solver1 = smt::solverGlobalStats();
  S.SolverQueries = Solver1.NumQueries - Solver0.NumQueries;
  S.CooperLiterals = Solver1.NumLiterals - Solver0.NumLiterals;
  S.SolverBudgetUnknowns =
      Solver1.NumUnknownBudget - Solver0.NumUnknownBudget;

  S.WallMillis = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  return Report;
}

std::string exo::testing::statsJson(const FuzzReport &R,
                                    const FuzzOptions &O) {
  const FuzzStats &S = R.Stats;
  double Secs = S.WallMillis / 1000.0;
  std::ostringstream OS;
  OS << "{\n";
  OS << "  \"bench\": \"fuzz_smoke\",\n";
  OS << "  \"seed\": " << O.Seed << ",\n";
  OS << "  \"programs\": " << S.Programs << ",\n";
  OS << "  \"gen_failures\": " << S.GenFailures << ",\n";
  OS << "  \"schedules\": " << S.Schedules << ",\n";
  OS << "  \"cases\": " << S.Cases << ",\n";
  OS << "  \"oracle_batches\": " << S.OracleBatches << ",\n";
  OS << "  \"divergences\": " << S.Divergences << ",\n";
  OS << "  \"steps_proposed\": " << S.StepsProposed << ",\n";
  OS << "  \"steps_accepted\": " << S.StepsAccepted << ",\n";
  OS << "  \"cursor_checks\": " << S.CursorChecks << ",\n";
  OS << "  \"cursor_invalidated\": " << S.CursorInvalidated << ",\n";
  OS << "  \"cursor_mismatches\": " << S.CursorMismatches << ",\n";
  OS << "  \"operator_acceptance_rate\": "
     << (S.StepsProposed
             ? static_cast<double>(S.StepsAccepted) / S.StepsProposed
             : 0.0)
     << ",\n";
  OS << "  \"wall_ms\": " << S.WallMillis << ",\n";
  OS << "  \"programs_per_sec\": " << (Secs > 0 ? S.Programs / Secs : 0.0)
     << ",\n";
  OS << "  \"cases_per_sec\": " << (Secs > 0 ? S.Cases / Secs : 0.0) << ",\n";
  OS << "  \"backend\": \"" << O.Oracle.Backend << "\",\n";
  OS << "  \"oracle_interp_ms\": " << S.OracleInterpMillis << ",\n";
  OS << "  \"oracle_exec_ms\": " << S.OracleExecMillis << ",\n";
  OS << "  \"backend_mismatches\": " << S.BackendMismatches << ",\n";
  OS << "  \"jit_cache\": {\"compiles\": " << S.JitCompiles
     << ", \"hits\": " << S.JitCacheHits
     << ", \"evictions\": " << S.JitEvictions << "},\n";
  OS << "  \"solver_queries\": " << S.SolverQueries << ",\n";
  OS << "  \"cooper_literals\": " << S.CooperLiterals << ",\n";
  OS << "  \"solver_budget_unknowns\": " << S.SolverBudgetUnknowns << ",\n";
  // Per-backend lower+execute throughput: cases/sec over the phase whose
  // cost the backend controls (the shared interpreter phase is excluded).
  auto Cps = [](unsigned Cases, double Ms) {
    return Ms > 0 ? Cases / (Ms / 1000.0) : 0.0;
  };
  double CsWarm = 0, JitWarm = 0;
  OS << "  \"backend_bench\": [";
  for (size_t I = 0; I < S.BackendBenches.size(); ++I) {
    const FuzzStats::BackendBench &B = S.BackendBenches[I];
    double ColdCps = Cps(B.Cases, B.ColdExecMillis);
    double WarmCps = Cps(B.Cases, B.WarmExecMillis);
    if (B.Backend == "csource")
      CsWarm = WarmCps;
    else if (B.Backend == "jit")
      JitWarm = WarmCps;
    OS << (I ? ",\n" : "\n") << "    {\"backend\": \"" << B.Backend
       << "\", \"cases\": " << B.Cases << ", \"cold_ms\": " << B.ColdExecMillis
       << ", \"warm_ms\": " << B.WarmExecMillis
       << ", \"cold_cases_per_sec\": " << ColdCps
       << ", \"warm_cases_per_sec\": " << WarmCps
       << ", \"programs_per_sec\": "
       << (B.WarmExecMillis > 0 ? S.Programs / (B.WarmExecMillis / 1000.0)
                                : 0.0)
       << "}";
  }
  OS << (S.BackendBenches.empty() ? "],\n" : "\n  ],\n");
  OS << "  \"jit_speedup_warm\": " << (CsWarm > 0 ? JitWarm / CsWarm : 0.0)
     << ",\n";
  OS << "  \"ops\": {";
  bool First = true;
  for (const auto &[Op, PA] : S.OpStats) {
    OS << (First ? "\n" : ",\n") << "    \"" << Op
       << "\": {\"proposed\": " << PA.first << ", \"accepted\": " << PA.second
       << "}";
    First = false;
  }
  OS << "\n  }\n}\n";
  return OS.str();
}
