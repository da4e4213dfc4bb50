//===- driver/BatchMain.cpp - exocc-batch CLI ------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles the standard kernel suite concurrently:
///
///   exocc-batch                       # all kernels, hardware threads
///   exocc-batch --threads 4           # fixed worker count
///   exocc-batch --serial-check        # also run serially; require the
///                                     # generated C to be bit-identical
///   exocc-batch --json out.json       # machine-readable results
///   exocc-batch --list                # print job names and exit
///   exocc-batch fig5a_sgemm_square    # only the named jobs
///
/// Failure-model controls (DESIGN.md, "Failure model"):
///
///   --deadline-ms N                   # per-job wall-clock deadline
///   --max-retries N                   # re-run budget-Unknown failures
///                                     # with escalated solver budgets
///   --max-literals N                  # starting solver budget
///   --fallback-reference              # emit unscheduled reference C when
///                                     # a schedule fails (job counts as
///                                     # success, tagged degraded)
///   --inject SPEC --inject-seed N     # deterministic fault injection,
///                                     # e.g. --inject solver-timeout*1
///                                     # or budget-unknown@0.5
///
/// Exit status: 0 when every job succeeded (degraded counts as success
/// only because --fallback-reference was requested), 1 when any job
/// failed, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "driver/BatchDriver.h"
#include "driver/KernelSuite.h"
#include "smt/Term.h"
#include "support/FaultInjector.h"
#include "support/StringExtras.h"
#include "support/ThreadPool.h"
#include "testing/Fuzzer.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

using namespace exo;
using namespace exo::driver;

namespace {

/// --fuzz N: replace the kernel suite with N randomly generated,
/// randomly scheduled procedures (testing::fuzzCompileJob) and push them
/// through the same parallel batch pipeline. Each job is self-contained
/// and deterministic in its seed, so retries and worker interleavings
/// cannot change the output.
std::vector<CompileJob> fuzzJobs(uint64_t Seed, unsigned N) {
  std::vector<CompileJob> Jobs;
  for (unsigned I = 0; I < N; ++I)
    Jobs.push_back(testing::fuzzCompileJob(Seed + I));
  return Jobs;
}

const char *jobStatus(const JobResult &J) {
  if (!J.Ok)
    return "failed";
  return J.Degraded ? "degraded" : "ok";
}

void writeJson(const std::string &Path, const BatchResult &R) {
  std::ofstream Out(Path);
  Out << "{\n  \"threads\": " << R.Threads
      << ",\n  \"wall_ms\": " << R.WallMillis
      << ",\n  \"all_ok\": " << (R.AllOk ? "true" : "false")
      << ",\n  \"failed\": " << R.NumFailed
      << ",\n  \"degraded\": " << R.NumDegraded
      << ",\n  \"deadline_misses\": " << R.NumDeadlineMiss
      << ",\n  \"retried\": " << R.NumRetried
      << ",\n  \"cache\": {\"solver_queries\": " << R.Cache.SolverQueries
      << ", \"term_hits\": " << R.Cache.TermHits
      << ", \"simplify_decided\": " << R.Cache.SimplifyDecided
      << ", \"fastpath_hits\": " << R.Cache.FastPathHits
      << ", \"fastpath_misses\": " << R.Cache.FastPathMisses
      << ", \"cooper_literals\": " << R.Cache.CooperLiterals
      << "},\n  \"jobs\": [";
  bool First = true;
  for (const JobResult &J : R.Jobs) {
    Out << (First ? "\n" : ",\n") << "    {\"name\": \"" << jsonEscape(J.Name)
        << "\", \"status\": \"" << jobStatus(J)
        << "\", \"ok\": " << (J.Ok ? "true" : "false")
        << ", \"wall_ms\": " << J.WallMillis
        << ", \"retries\": " << J.Retries
        << ", \"retry_probes\": " << J.RetryProbes
        << ", \"retry_path\": \"" << jsonEscape(J.RetryPath) << "\""
        << ", \"final_max_literals\": " << J.FinalMaxLiterals
        << ", \"deadline_miss\": " << (J.DeadlineMiss ? "true" : "false")
        << ", \"output_bytes\": " << J.Output.size()
        << ", \"solver_queries\": " << J.SolverQueries
        << ", \"simplify_decided\": " << J.SimplifyDecided
        << ", \"fastpath_hits\": " << J.FastPathHits
        << ", \"cooper_literals\": " << J.CooperLiterals;
    // Degraded jobs carry the schedule's failure alongside the reference
    // output, so report error detail for them too.
    if (!J.Ok || J.Degraded) {
      Out << ", \"error_kind\": \"" << jsonEscape(J.ErrorKind)
          << "\", \"error\": \"" << jsonEscape(J.ErrorMessage) << "\"";
      if (!J.ErrorOp.empty())
        Out << ", \"op\": \"" << jsonEscape(J.ErrorOp) << "\"";
      if (!J.ErrorPattern.empty())
        Out << ", \"pattern\": \"" << jsonEscape(J.ErrorPattern) << "\"";
      if (!J.ErrorVerdict.empty())
        Out << ", \"verdict\": \"" << jsonEscape(J.ErrorVerdict) << "\"";
    }
    Out << "}";
    First = false;
  }
  Out << "\n  ]\n}\n";
}

void printResult(const BatchResult &R) {
  for (const JobResult &J : R.Jobs) {
    if (J.Ok) {
      std::printf("  %-4s %-22s %8.1f ms  %6zu bytes of C", jobStatus(J),
                  J.Name.c_str(), J.WallMillis, J.Output.size());
      if (J.Retries > 0)
        std::printf("  (retries=%u%s%s)", J.Retries,
                    J.RetryPath.empty() ? "" : " via ", J.RetryPath.c_str());
      if (J.DeadlineMiss)
        std::printf("  (deadline miss)");
      std::printf("\n");
      if (J.Degraded)
        std::printf("       degraded: %s: %s\n", J.ErrorKind.c_str(),
                    J.ErrorMessage.c_str());
    } else {
      std::printf("  FAIL %-22s %8.1f ms  %s: %s%s\n", J.Name.c_str(),
                  J.WallMillis, J.ErrorKind.c_str(), J.ErrorMessage.c_str(),
                  J.DeadlineMiss ? " (deadline miss)" : "");
      if (!J.ErrorOp.empty())
        std::printf("       op=%s pattern='%s'%s%s\n", J.ErrorOp.c_str(),
                    J.ErrorPattern.c_str(),
                    J.ErrorVerdict.empty() ? "" : " solver=",
                    J.ErrorVerdict.c_str());
    }
  }
  std::printf("batch: %zu jobs on %u thread%s in %.1f ms (solver queries: "
              "%llu)\n",
              R.Jobs.size(), R.Threads, R.Threads == 1 ? "" : "s",
              R.WallMillis, (unsigned long long)R.Cache.SolverQueries);
  std::printf("       preprocessing: %llu decided, fast path %llu hit / "
              "%llu miss, %llu Cooper literals\n",
              (unsigned long long)R.Cache.SimplifyDecided,
              (unsigned long long)R.Cache.FastPathHits,
              (unsigned long long)R.Cache.FastPathMisses,
              (unsigned long long)R.Cache.CooperLiterals);
  if (R.NumFailed || R.NumDegraded || R.NumDeadlineMiss || R.NumRetried)
    std::printf("       %u failed, %u degraded, %u deadline miss%s, "
                "%u retried\n",
                R.NumFailed, R.NumDegraded, R.NumDeadlineMiss,
                R.NumDeadlineMiss == 1 ? "" : "es", R.NumRetried);
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Threads = support::ThreadPool::hardwareThreads();
  bool SerialCheck = false, List = false;
  std::string JsonPath, InjectSpec;
  uint64_t InjectSeed = 0;
  unsigned FuzzCount = 0;
  uint64_t FuzzSeed = 1;
  std::vector<std::string> Filters;
  SessionOptions SOpts;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--threads" && I + 1 < Argc)
      Threads = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (A == "--serial-check")
      SerialCheck = true;
    else if (A == "--json" && I + 1 < Argc)
      JsonPath = Argv[++I];
    else if (A == "--deadline-ms" && I + 1 < Argc)
      SOpts.DeadlineMillis = std::atoll(Argv[++I]);
    else if (A == "--max-retries" && I + 1 < Argc)
      SOpts.MaxRetries = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (A == "--max-literals" && I + 1 < Argc)
      SOpts.MaxLiterals = static_cast<uint64_t>(std::atoll(Argv[++I]));
    else if (A == "--fallback-reference")
      SOpts.FallbackReference = true;
    else if (A == "--backend" && I + 1 < Argc)
      SOpts.BackendName = Argv[++I];
    else if (A.rfind("--backend=", 0) == 0)
      SOpts.BackendName = A.substr(10);
    else if (A == "--inject" && I + 1 < Argc)
      InjectSpec = Argv[++I];
    else if (A == "--inject-seed" && I + 1 < Argc)
      InjectSeed = static_cast<uint64_t>(std::atoll(Argv[++I]));
    else if (A == "--fuzz" && I + 1 < Argc)
      FuzzCount = static_cast<unsigned>(std::atoi(Argv[++I]));
    else if (A == "--fuzz-seed" && I + 1 < Argc)
      FuzzSeed = static_cast<uint64_t>(std::atoll(Argv[++I]));
    else if (A == "--list")
      List = true;
    else if (A == "--help" || A == "-h") {
      std::printf(
          "usage: exocc-batch [--threads N] [--serial-check] [--json PATH]\n"
          "                   [--deadline-ms N] [--max-retries N]\n"
          "                   [--max-literals N] [--fallback-reference]\n"
          "                   [--inject SPEC] [--inject-seed N]\n"
          "                   [--fuzz N] [--fuzz-seed S]\n"
          "                   [--backend csource|jit]\n"
          "                   [--list] [job-name...]\n"
          "--backend picks the execution backend that lowers each job\n"
          "(default csource; every backend emits identical C).\n"
          "--fuzz N compiles N randomly generated+scheduled procedures\n"
          "instead of the kernel suite (same parallel pipeline).\n"
          "inject SPEC: comma-separated kind[@prob][*count]; kinds:\n"
          "  solver-timeout, budget-unknown, alloc-fail, runtime-trap\n");
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", A.c_str());
      return 2;
    } else
      Filters.push_back(A);
  }
  if (Threads == 0)
    Threads = 1;

  if (!InjectSpec.empty()) {
    auto C = support::FaultInjector::instance().configure(InjectSpec,
                                                          InjectSeed);
    if (!C) {
      std::fprintf(stderr, "--inject: %s\n", C.error().message().c_str());
      return 2;
    }
  }

  std::vector<CompileJob> Jobs =
      FuzzCount ? fuzzJobs(FuzzSeed, FuzzCount) : standardKernelSuite();
  if (List) {
    for (const CompileJob &J : Jobs)
      std::printf("%s\n", J.Name.c_str());
    return 0;
  }
  if (!Filters.empty()) {
    std::vector<CompileJob> Kept;
    for (CompileJob &J : Jobs)
      for (const std::string &F : Filters)
        if (J.Name.find(F) != std::string::npos) {
          Kept.push_back(std::move(J));
          break;
        }
    if (Kept.empty()) {
      std::fprintf(stderr, "no jobs match the given filters\n");
      return 2;
    }
    Jobs = std::move(Kept);
  }

  BatchResult Serial;
  if (SerialCheck) {
    smt::clearTermInterner();
    Serial = BatchDriver(1, SOpts).run(Jobs);
    std::printf("== serial baseline ==\n");
    printResult(Serial);
  }

  smt::clearTermInterner();
  BatchResult Parallel = BatchDriver(Threads, SOpts).run(Jobs);
  if (SerialCheck)
    std::printf("== %u threads ==\n", Threads);
  printResult(Parallel);

  if (!JsonPath.empty())
    writeJson(JsonPath, Parallel);

  if (SerialCheck) {
    for (size_t I = 0; I < Jobs.size(); ++I) {
      const JobResult &A = Serial.Jobs[I], &B = Parallel.Jobs[I];
      if (A.Ok != B.Ok || A.Output != B.Output ||
          A.ErrorMessage != B.ErrorMessage) {
        std::fprintf(stderr,
                     "serial-check FAILED: job '%s' differs between 1 and "
                     "%u threads\n",
                     A.Name.c_str(), Threads);
        return 1;
      }
    }
    std::printf("serial-check: all %zu outputs bit-identical (1 vs %u "
                "threads), speedup %.2fx\n",
                Jobs.size(), Threads,
                Parallel.WallMillis > 0 ? Serial.WallMillis /
                                              Parallel.WallMillis
                                        : 0.0);
  }

  // Nonzero exit when any job failed. A degraded job only exists under
  // --fallback-reference, where emitting reference C is the requested
  // success mode.
  return Parallel.AllOk ? 0 : 1;
}
