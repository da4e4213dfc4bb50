//===- perfbench/src/SuiteCold.cpp - The suite_cold workload --------------===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seven-kernel standard suite compiled serially (one worker), 12
/// passes per second of --seconds in one process, with the compiler caches
/// emptied before each pass: every pass pays what one
/// `exocc-batch --threads 1` run pays. The
/// seed shuffles the job order of each pass; the outputs must stay
/// byte-identical to tests/golden/<kernel>.c whatever the order.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/BatchDriver.h"
#include "driver/KernelSuite.h"
#include "smt/Term.h"

using namespace exo;
using namespace exo::driver;

namespace perfbench {

namespace {

using Goldens = std::map<std::string, std::string>;

Goldens loadGoldens(const Options &O, const std::vector<CompileJob> &Suite) {
  Goldens G;
  for (const CompileJob &J : Suite)
    G[J.Name] = readFile(O.Root + "/tests/golden/" + J.Name + ".c");
  return G;
}

/// Why job \p J's output is wrong, or "" when it matches its golden.
std::string checkJob(const JobResult &J, const Goldens &G) {
  if (!J.Ok)
    return J.Name + ": " + J.ErrorKind + ": " + J.ErrorMessage;
  auto It = G.find(J.Name);
  if (It == G.end() || It->second.empty())
    return J.Name + ": no golden file";
  if (J.Output != It->second)
    return J.Name + ": generated C differs from its golden file";
  return "";
}

} // namespace

int probeSuiteCold(const Options &O) {
  std::vector<CompileJob> Suite = standardKernelSuite();
  Goldens G = loadGoldens(O, Suite);
  clearCompilerCaches();
  BatchResult B = BatchDriver(1).run(Suite);
  for (const JobResult &J : B.Jobs)
    if (!checkJob(J, G).empty())
      return 1;
  return 0;
}

void runSuiteCold(const Options &O, Report &R) {
  Timings Setup = probeSetup(O, SetupRepeats, R);

  std::vector<CompileJob> Suite = standardKernelSuite();
  Goldens G = loadGoldens(O, Suite);
  testing::Rng Rng(O.Seed);

  // First-use initialization of this process stays out of the loop (the
  // probes above measure it).
  clearCompilerCaches();
  (void)BatchDriver(1).run(Suite);

  Timings PassMs;
  Sums S;
  double CBytes = 0, TermNodes = 0;
  uint64_t NumPasses = workUnits(O, 12);
  double Slow = hostSlowdown();
  for (uint64_t Pass = 0; Pass < NumPasses; ++Pass) {
    std::vector<CompileJob> Jobs = Suite;
    shuffle(Jobs, Rng);

    // Traced: time the parse-only reference of each kernel, and wrap each
    // job's Build (parse + schedule) in a span.
    std::vector<double> BuildMs(Jobs.size(), 0.0);
    double ParseMs = 0;
    if (O.Trace) {
      for (size_t I = 0; I < Jobs.size(); ++I) {
        double P0 = nowMs();
        (void)buildReference(Jobs[I].Name);
        ParseMs += nowMs() - P0;
        Jobs[I].Build = [Inner = Jobs[I].Build, &Span = BuildMs[I]] {
          double B0 = nowMs();
          auto Procs = Inner();
          Span += nowMs() - B0;
          return Procs;
        };
      }
    }

    clearCompilerCaches();
    Counters Before = Counters::now();
    double P0 = nowMs();
    BatchResult B = BatchDriver(1).run(Jobs);
    double Wall = nowMs() - P0;
    double SlowAfter = hostSlowdown();
    PassMs.add(Wall, Slow, SlowAfter);
    Slow = SlowAfter;
    Counters After = Counters::now();

    R.attempted(B.Jobs.size());
    CBytes = 0;
    for (const JobResult &J : B.Jobs) {
      std::string Why = checkJob(J, G);
      if (!Why.empty())
        R.fail(Why);
      CBytes += static_cast<double>(J.Output.size());
    }

    if (O.Trace) {
      double BuildSum = 0, SessionSum = 0, Retries = 0;
      for (size_t I = 0; I < Jobs.size(); ++I) {
        BuildSum += BuildMs[I];
        SessionSum += B.Jobs[I].WallMillis;
        Retries += B.Jobs[I].Retries;
      }
      S["frontend.parse_ms"] += ParseMs;
      S["scheduling.schedule_ms"] += BuildSum - ParseMs;
      S["backend.codegen_ms"] += SessionSum - BuildSum;
      S["analysis.incremental_hits"] +=
          static_cast<double>(B.Cache.IncrementalHits);
      S["analysis.incremental_misses"] +=
          static_cast<double>(B.Cache.IncrementalMisses);
      S["driver.failed"] += B.NumFailed;
      S["driver.retries"] += Retries;
      addCounterDeltas(Before, After, S);
      TermNodes = static_cast<double>(smt::termInternerStats().Live);
    }
  }
  double Passes = static_cast<double>(PassMs.Wall.size());
  const Samples &Pass = PassMs.Ref;

  if (O.Trace) {
    R.setPerOp(S, Passes);
    R.set("smt.term_nodes", TermNodes);
    R.set("backend.c_bytes", CBytes);
    R.set("trace.op_ms_p50", Pass.quantile(0.5));
    return;
  }
  R.setSetup(Setup);
  R.setOpTimes(PassMs, Passes, PassMs);
  R.set("peak_rss_mb", peakRssMb());
  R.show("suite_ms_p50", Pass.quantile(0.5), "ms");
  R.show("suite_ms_p90", Pass.quantile(0.9), "ms");
  R.show("passes", Passes, "count");
  R.show("c_bytes", CBytes, "bytes");
}

} // namespace perfbench
