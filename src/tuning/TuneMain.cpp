//===- tuning/TuneMain.cpp - exocc-tune CLI --------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel schedule autotuning over the ScheduleGen trace space:
///
///   exocc-tune                            # tune gemmini_matmul, 128^3
///   exocc-tune --kernel sgemm             # wall-clock-scored avx512 sgemm
///   exocc-tune --shape 64x64x64           # problem size NxMxK
///   exocc-tune --pop 24 --gens 4 --beam 6 # search shape
///   exocc-tune --seed 7 --threads 4       # deterministic at any -j
///   exocc-tune --budget 200               # stop after N candidates
///   exocc-tune --deadline-ms 60000        # wall-clock budget
///   exocc-tune --json out.json            # machine-readable report
///   exocc-tune --emit-best best.trace     # winning trace, replayable
///   exocc-tune --replay best.trace        # score one trace, no search
///   exocc-tune --score cycles|wall        # override the kernel's metric
///   exocc-tune --require-ratio 1.5        # fail unless best <= 1.5x the
///                                         # hand-written schedule (CI
///                                         # tripwire)
///   exocc-tune --help                     # usage on stdout, exit 0
///
/// Exit status: 0 when the search (or replay) produced a verified
/// candidate within --require-ratio, 1 otherwise, 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "tuning/Tuner.h"

#include "support/StringExtras.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace exo;
using namespace exo::testing;
using namespace exo::tuning;

namespace {

const char *const Usage =
    "usage: exocc-tune [--kernel NAME] [--shape NxMxK] [--pop N]\n"
    "                  [--gens N] [--beam N] [--seed N] [--threads N]\n"
    "                  [--budget N] [--deadline-ms N] [--json FILE]\n"
    "                  [--emit-best FILE] [--replay FILE]\n"
    "                  [--score cycles|wall] [--require-ratio X] [--list]\n"
    "                  [--help]\n";

int usage(const char *Msg) {
  if (Msg)
    std::fprintf(stderr, "exocc-tune: %s\n", Msg);
  std::fputs(Usage, stderr);
  return 2;
}

bool parseShape(const std::string &S, KernelShape &Out) {
  char X1, X2;
  std::istringstream In(S);
  if (!(In >> Out.N >> X1 >> Out.M >> X2 >> Out.K))
    return false;
  return X1 == 'x' && X2 == 'x' && Out.N > 0 && Out.M > 0 && Out.K > 0 &&
         In.eof();
}

Expected<std::vector<ScheduleStep>> readTrace(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return makeError(Error::Kind::Parse, "cannot open trace '" + Path + "'");
  std::vector<ScheduleStep> Trace;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    auto S = ScheduleStep::parse(Line);
    if (!S)
      return S.error();
    Trace.push_back(*S);
  }
  return Trace;
}

void writeTrace(const std::string &Path,
                const std::vector<ScheduleStep> &Trace) {
  std::ofstream Out(Path);
  for (const ScheduleStep &S : Trace)
    Out << S.str() << "\n";
}

void writeJson(const std::string &Path, const TuneOptions &O,
               const TuneResult &R) {
  std::ofstream Out(Path);
  Out << "{\n";
  Out << "  \"kernel\": \"" << jsonEscape(O.Kernel) << "\",\n";
  Out << "  \"shape\": \"" << O.Shape.N << "x" << O.Shape.M << "x"
      << O.Shape.K << "\",\n";
  Out << "  \"metric\": \"" << metricName(O.Score) << "\",\n";
  Out << "  \"population\": " << O.Population << ",\n";
  Out << "  \"generations\": " << R.Stats.GenerationsRun << ",\n";
  Out << "  \"beam\": " << O.Beam << ",\n";
  Out << "  \"seed\": " << O.Seed << ",\n";
  Out << "  \"threads\": "
      << (O.Threads ? O.Threads : support::ThreadPool::hardwareThreads())
      << ",\n";
  Out << "  \"candidates_tried\": " << R.Stats.Tried << ",\n";
  Out << "  \"candidates_ok\": " << R.Stats.Ok << ",\n";
  Out << "  \"candidates_per_sec\": " << R.Stats.CandidatesPerSec << ",\n";
  Out << "  \"wall_ms\": " << R.Stats.WallMillis << ",\n";
  Out << "  \"ok\": " << (R.Ok ? "true" : "false") << ",\n";
  if (R.Ok) {
    Out << "  \"best_score\": " << R.Best.Eval.Score << ",\n";
    Out << "  \"best_cycles\": " << R.Best.Eval.SimCycles << ",\n";
    Out << "  \"best_wall_ms\": " << R.Best.Eval.WallMillis << ",\n";
    Out << "  \"best_generation\": " << R.Best.Generation << ",\n";
  }
  if (R.HaveHandwritten) {
    Out << "  \"handwritten_score\": " << R.Handwritten.Score << ",\n";
    Out << "  \"handwritten_cycles\": " << R.Handwritten.SimCycles << ",\n";
    if (R.Ok && R.Handwritten.Score > 0)
      Out << "  \"best_vs_handwritten\": "
          << R.Best.Eval.Score / R.Handwritten.Score << ",\n";
  }
  Out << "  \"jit\": {\"compiles\": " << R.Stats.JitCompiles
      << ", \"hits\": " << R.Stats.JitHits << "},\n";
  Out << "  \"generation_log\": [";
  for (size_t I = 0; I < R.Log.size(); ++I) {
    const GenerationEntry &E = R.Log[I];
    Out << (I ? ", " : "") << "{\"gen\": " << E.Gen << ", \"best_score\": "
        << E.BestScore << ", \"tried\": " << E.Tried << ", \"ok\": " << E.Ok
        << "}";
  }
  Out << "],\n";
  Out << "  \"best_trace\": [";
  if (R.Ok)
    for (size_t I = 0; I < R.Best.Applied.size(); ++I)
      Out << (I ? ", " : "") << "\"" << jsonEscape(R.Best.Applied[I].str())
          << "\"";
  Out << "]\n";
  Out << "}\n";
}

void printResult(const TuneOptions &O, const TuneResult &R) {
  std::printf("exocc-tune: %s %lldx%lldx%lld, metric %s\n", O.Kernel.c_str(),
              (long long)O.Shape.N, (long long)O.Shape.M,
              (long long)O.Shape.K, metricName(O.Score));
  for (const GenerationEntry &E : R.Log)
    std::printf("  gen %u: best %.1f after %llu candidates (%llu ok)\n",
                E.Gen, E.BestScore, (unsigned long long)E.Tried,
                (unsigned long long)E.Ok);
  if (!R.Ok) {
    std::printf("  FAILED: %s\n", R.Error.c_str());
    return;
  }
  std::printf("  best: score %.1f", R.Best.Eval.Score);
  if (O.Score == Metric::SimCycles)
    std::printf(" (%llu cycles, %llu matmuls)",
                (unsigned long long)R.Best.Eval.SimCycles,
                (unsigned long long)R.Best.Eval.SimMatmuls);
  else
    std::printf(" (%.3f ms)", R.Best.Eval.WallMillis);
  std::printf(", %zu steps, found in gen %u\n", R.Best.Applied.size(),
              R.Best.Generation);
  if (R.HaveHandwritten) {
    std::printf("  hand-written: score %.1f", R.Handwritten.Score);
    if (R.Handwritten.Score > 0)
      std::printf(" -> best/handwritten = %.3f",
                  R.Best.Eval.Score / R.Handwritten.Score);
    std::printf("\n");
  }
  std::printf("  %llu candidates in %.0f ms (%.2f/s); jit: %llu modules "
              "compiled, %llu hits\n",
              (unsigned long long)R.Stats.Tried, R.Stats.WallMillis,
              R.Stats.CandidatesPerSec,
              (unsigned long long)R.Stats.JitCompiles,
              (unsigned long long)R.Stats.JitHits);
}

} // namespace

int main(int argc, char **argv) {
  TuneOptions O;
  std::string JsonPath, EmitBest, ReplayPath;
  double RequireRatio = 0;
  bool ScoreSet = false;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        usage((std::string(Flag) + " needs a value").c_str());
        return nullptr;
      }
      return argv[++I];
    };
    if (A == "--help" || A == "-h") {
      std::fputs(Usage, stdout);
      return 0;
    } else if (A == "--list") {
      for (const std::string &K : tunableKernels())
        std::printf("%s\n", K.c_str());
      return 0;
    } else if (A == "--kernel") {
      const char *V = Next("--kernel");
      if (!V)
        return 2;
      O.Kernel = V;
    } else if (A == "--shape") {
      const char *V = Next("--shape");
      if (!V || !parseShape(V, O.Shape))
        return usage("--shape wants NxMxK with positive dims");
    } else if (A == "--pop") {
      const char *V = Next("--pop");
      if (!V)
        return 2;
      O.Population = std::strtoul(V, nullptr, 10);
    } else if (A == "--gens") {
      const char *V = Next("--gens");
      if (!V)
        return 2;
      O.Generations = std::strtoul(V, nullptr, 10);
    } else if (A == "--beam") {
      const char *V = Next("--beam");
      if (!V)
        return 2;
      O.Beam = std::strtoul(V, nullptr, 10);
    } else if (A == "--seed") {
      const char *V = Next("--seed");
      if (!V)
        return 2;
      O.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--threads") {
      const char *V = Next("--threads");
      if (!V)
        return 2;
      O.Threads = std::strtoul(V, nullptr, 10);
    } else if (A == "--budget") {
      const char *V = Next("--budget");
      if (!V)
        return 2;
      O.MaxCandidates = std::strtoul(V, nullptr, 10);
    } else if (A == "--deadline-ms") {
      const char *V = Next("--deadline-ms");
      if (!V)
        return 2;
      O.DeadlineMillis = std::strtoull(V, nullptr, 10);
    } else if (A == "--json") {
      const char *V = Next("--json");
      if (!V)
        return 2;
      JsonPath = V;
    } else if (A == "--emit-best") {
      const char *V = Next("--emit-best");
      if (!V)
        return 2;
      EmitBest = V;
    } else if (A == "--replay") {
      const char *V = Next("--replay");
      if (!V)
        return 2;
      ReplayPath = V;
    } else if (A == "--score") {
      const char *V = Next("--score");
      if (!V)
        return 2;
      if (std::strcmp(V, "cycles") == 0)
        O.Score = Metric::SimCycles;
      else if (std::strcmp(V, "wall") == 0)
        O.Score = Metric::WallClock;
      else
        return usage("--score wants 'cycles' or 'wall'");
      ScoreSet = true;
    } else if (A == "--require-ratio") {
      const char *V = Next("--require-ratio");
      if (!V)
        return 2;
      RequireRatio = std::strtod(V, nullptr);
    } else {
      return usage(("unknown argument '" + A + "'").c_str());
    }
  }
  if (!ScoreSet && O.Kernel == "sgemm")
    O.Score = Metric::WallClock; // no simulator to meter x86 code

  TuneResult R;
  if (!ReplayPath.empty()) {
    // Replay mode: score exactly one trace, no search. The report keeps
    // the same shape so the JSON consumers don't care which mode ran.
    auto Trace = readTrace(ReplayPath);
    if (!Trace) {
      std::fprintf(stderr, "exocc-tune: %s\n", Trace.error().str().c_str());
      return 2;
    }
    auto Space = buildSearchSpace(O.Kernel, O.Shape);
    if (!Space) {
      std::fprintf(stderr, "exocc-tune: %s\n", Space.error().str().c_str());
      return 2;
    }
    LenientApplyResult A = applyTraceLenient(Space->Algorithm, *Trace);
    R.Best.Trace = *Trace;
    R.Best.Applied = A.Applied;
    R.Best.Rejected = A.Rejected;
    // The trace and the hand-written baseline score in one batch, so one
    // module round: two modules built side by side (one shared module
    // with --threads 1), or one entry when the trace spells the baseline.
    std::vector<ir::ProcRef> Procs = {A.Final};
    if (Space->Handwritten)
      Procs.push_back(Space->Handwritten);
    CostModel CM(O.Shape, O.Score);
    support::ThreadPool Pool(O.Threads == 1 ? 0 : 2);
    std::vector<EvalResult> Evals = CM.evaluate(Procs, Pool);
    R.Best.Eval = Evals[0];
    if (Space->Handwritten) {
      R.Handwritten = Evals[1];
      R.HaveHandwritten = R.Handwritten.Ok;
    }
    R.Ok = R.Best.Eval.Ok;
    R.Stats.Tried = 1;
    R.Stats.Ok = R.Ok ? 1 : 0;
    if (!R.Ok)
      R.Error = R.Best.Eval.FailStage + ": " + R.Best.Eval.Detail;
  } else {
    R = tune(O);
  }

  printResult(O, R);
  if (!JsonPath.empty())
    writeJson(JsonPath, O, R);
  if (!EmitBest.empty() && R.Ok)
    writeTrace(EmitBest, R.Best.Applied);

  if (!R.Ok)
    return 1;
  if (RequireRatio > 0 && R.HaveHandwritten && R.Handwritten.Score > 0 &&
      R.Best.Eval.Score > RequireRatio * R.Handwritten.Score) {
    std::fprintf(stderr,
                 "exocc-tune: best score %.1f exceeds %.2fx the hand-written "
                 "schedule (%.1f)\n",
                 R.Best.Eval.Score, RequireRatio, R.Handwritten.Score);
    return 1;
  }
  return 0;
}
