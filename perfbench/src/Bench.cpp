//===- perfbench/src/Bench.cpp - Shared plumbing and the entry point ------===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             --root REPO --serve EXOCC_SERVE
///   perfbench --probe NAME --root REPO      (one set-up, then exit)
///
/// perfbench/run.py builds this program and runs it; see
/// perfbench/README.md for the workloads and the metrics.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "smt/Term.h"
#include "support/Signals.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory_resource>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace exo;

namespace perfbench {

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// The metrics of an untraced run (BENCHMARK.json "end_to_end"). An op is
/// a suite pass, a request, a tuner candidate, or an oracle case; times
/// are in reference ms (see hostSlowdown).
const MetricDef EndToEnd[] = {
    {"setup_s", "s"},         {"op_ms_p50", "ms"},   {"op_ms_p90", "ms"},
    {"ops_per_s", "1/s"},     {"peak_rss_mb", "MB"},
};

/// The metrics of a traced run (BENCHMARK.json "per_layer"). Times and
/// counts are per op of the workload unless README.md says otherwise; a
/// layer the workload does not reach reads 0.
const MetricDef PerLayer[] = {
    {"frontend.parse_ms", "ms"},
    {"scheduling.schedule_ms", "ms"},
    {"scheduling.generate_ms", "ms"},
    {"scheduling.apply_ms", "ms"},
    {"scheduling.steps_proposed", "count"},
    {"scheduling.steps_accepted", "count"},
    {"scheduling.accept_ratio", "ratio"},
    {"analysis.incremental_hits", "count"},
    {"analysis.incremental_misses", "count"},
    {"analysis.effect_cache_hits", "count"},
    {"analysis.effect_cross_compile_hits", "count"},
    {"smt.queries", "count"},
    {"smt.simplify_decided", "count"},
    {"smt.fastpath_hits", "count"},
    {"smt.fastpath_misses", "count"},
    {"smt.cooper_literals", "count"},
    {"smt.unknown", "count"},
    {"smt.query_cache_hits", "count"},
    {"smt.query_cache_misses", "count"},
    {"smt.query_cache_cross_job_hits", "count"},
    {"smt.term_nodes", "count"},
    {"backend.codegen_ms", "ms"},
    {"backend.cc_ms", "ms"},
    {"backend.jit_compiles", "count"},
    {"backend.jit_hits", "count"},
    {"backend.c_bytes", "bytes"},
    {"hwlibs.execute_ms", "ms"},
    {"interp.ms", "ms"},
    {"testing.progen_ms", "ms"},
    {"testing.oracle_exec_ms", "ms"},
    {"testing.divergences", "count"},
    {"tuning.tried", "count"},
    {"tuning.ok", "count"},
    {"tuning.ok_ratio", "ratio"},
    {"tuning.best_cycles", "cycles"},
    {"driver.failed", "count"},
    {"driver.retries", "count"},
    {"service.overhead_ms_p50", "ms"},
    {"service.compile_ms_p50", "ms"},
    {"service.rejected", "count"},
    {"service.term_trims", "count"},
    {"trace.op_ms_p50", "ms"},
};

template <size_t N>
const char *unitOf(const MetricDef (&Table)[N], const std::string &Name) {
  for (const MetricDef &D : Table)
    if (Name == D.Name)
      return D.Unit;
  return nullptr;
}

/// Shortest text that reads back as exactly \p V.
std::string number(double V) {
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, End) : "0";
}

std::string selfBinary() {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  return N > 0 ? std::string(Buf, static_cast<size_t>(N)) : "";
}

} // namespace

double nowMs() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double SlowdownSum = 0;
unsigned SlowdownSamples = 0;
} // namespace

double hostSlowdown() {
  // Hashing and many small allocations, like the compiler's own work, so
  // that contention on the host slows both alike. The allocations come
  // from an arena of the loop's own, so the state of the process heap
  // (what the compiler holds, or has just freed) does not time the loop.
  // The nominal time is the loop's time on a quiet 4-vCPU Xeon VM.
  constexpr double NominalMs = 1.25;
  static std::vector<std::byte> Arena(4 << 20);
  static volatile size_t Sink;
  double T0 = nowMs();
  uint64_t X = 88172645463325252ull;
  for (int Rep = 0; Rep < 2; ++Rep) {
    std::pmr::monotonic_buffer_resource Pool(Arena.data(), Arena.size(),
                                             std::pmr::null_memory_resource());
    std::pmr::unordered_map<uint64_t, std::pmr::string> Table(&Pool);
    for (int K = 0; K < 8000; ++K) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      if (K < 4000) {
        char Buf[24];
        char *End = std::to_chars(Buf, Buf + sizeof(Buf), X).ptr;
        Table.insert_or_assign(X % 100000, std::pmr::string(Buf, End));
      } else if (auto It = Table.find(X % 100000); It != Table.end()) {
        Sink = Sink + It->second.size();
      }
    }
  }
  double Slowdown = (nowMs() - T0) / NominalMs;
  SlowdownSum += Slowdown;
  ++SlowdownSamples;
  return Slowdown;
}

uint64_t workUnits(const Options &O, double UnitsPerSecond) {
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(O.Seconds * UnitsPerSecond)));
}

double Samples::quantile(double Q) const {
  if (Values.empty())
    return 0;
  std::vector<double> V = Values;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double Samples::sum() const {
  double S = 0;
  for (double V : Values)
    S += V;
  return S;
}

namespace {
/// The /proc status field \p Key (e.g. "VmHWM:") of \p Pid, in MB.
double statusMb(int Pid, const std::string &Key) {
  std::string Path =
      Pid ? "/proc/" + std::to_string(Pid) + "/status" : "/proc/self/status";
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Key, 0) == 0)
      return std::strtod(Line.c_str() + Key.size(), nullptr) / 1024.0;
  return 0;
}
} // namespace

double peakRssMb(int Pid) { return statusMb(Pid, "VmHWM:"); }

double rssMb(int Pid) { return statusMb(Pid, "VmRSS:"); }

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void clearCompilerCaches() {
  smt::clearTermInterner();
  smt::clearSolverQueryCache();
  analysis::clearEffectCache();
}

Counters Counters::now() {
  return {smt::solverGlobalStats(), smt::solverQueryCacheStats(),
          analysis::effectCacheStats(), backend::JitBackend::cacheStats()};
}

void addCounterDeltas(const Counters &A, const Counters &B, Sums &S) {
  auto D = [](uint64_t Before, uint64_t After) {
    return static_cast<double>(After - Before);
  };
  S["smt.queries"] += D(A.Solver.NumQueries, B.Solver.NumQueries);
  S["smt.simplify_decided"] +=
      D(A.Solver.SimplifyDecided, B.Solver.SimplifyDecided);
  S["smt.fastpath_hits"] += D(A.Solver.FastPathHits, B.Solver.FastPathHits);
  S["smt.fastpath_misses"] +=
      D(A.Solver.FastPathMisses, B.Solver.FastPathMisses);
  S["smt.cooper_literals"] += D(A.Solver.NumLiterals, B.Solver.NumLiterals);
  S["smt.unknown"] += D(A.Solver.NumUnknown, B.Solver.NumUnknown);
  S["smt.query_cache_hits"] += D(A.Query.Hits, B.Query.Hits);
  S["smt.query_cache_misses"] += D(A.Query.Misses, B.Query.Misses);
  S["smt.query_cache_cross_job_hits"] +=
      D(A.Query.CrossJobHits, B.Query.CrossJobHits);
  S["analysis.effect_cache_hits"] += D(A.Effect.Hits, B.Effect.Hits);
  S["analysis.effect_cross_compile_hits"] +=
      D(A.Effect.CrossCompileHits, B.Effect.CrossCompileHits);
  S["backend.jit_compiles"] += D(A.Jit.Compiles, B.Jit.Compiles);
  S["backend.jit_hits"] += D(A.Jit.Hits, B.Jit.Hits);
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

Report::Report(bool Trace) : Trace(Trace) {
  if (Trace)
    for (const MetricDef &D : PerLayer)
      Values[D.Name] = 0;
}

void Report::set(const std::string &Name, double Value) {
  if (!(Trace ? unitOf(PerLayer, Name) : unitOf(EndToEnd, Name))) {
    broken("metric '" + Name + "' is not a metric of this mode");
    return;
  }
  if (!std::isfinite(Value)) {
    broken("metric '" + Name + "' is not finite");
    Value = 0;
  }
  Values[Name] = Value;
}

void Report::setPerOp(const Sums &S, double Ops) {
  for (const auto &[Name, Sum] : S)
    set(Name, Ops > 0 ? Sum / Ops : 0);
}

void Report::show(const std::string &Name, double Value,
                  const std::string &Unit) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "  %-26s %14.4f %s", Name.c_str(), Value,
                Unit.c_str());
  Shown.push_back(Buf);
}

void Report::setOpTimes(const Timings &T, double Ops, const Timings &Busy) {
  auto PerS = [Ops](const Samples &S) {
    return S.sum() > 0 ? Ops / (S.sum() / 1000.0) : 0.0;
  };
  set("op_ms_p50", T.Ref.quantile(0.5));
  set("op_ms_p90", T.Ref.quantile(0.9));
  set("ops_per_s", PerS(Busy.Ref));
  show("op_wall_ms_p50", T.Wall.quantile(0.5), "ms");
  show("op_wall_ms_p90", T.Wall.quantile(0.9), "ms");
  show("ops_per_wall_s", PerS(Busy.Wall), "1/s");
  show("op_ref_ms_p50", T.Ref.quantile(0.5), "ms");
  show("op_ref_ms_p90", T.Ref.quantile(0.9), "ms");
  show("ops_per_ref_s", PerS(Busy.Ref), "1/s");
}

void Report::setSetup(const Timings &T) {
  set("setup_s", T.Ref.quantile(0.5) / 1000.0);
  show("setup_wall_s", T.Wall.quantile(0.5) / 1000.0, "s");
  show("setup_ref_s", T.Ref.quantile(0.5) / 1000.0, "s");
}

void Report::fail(const std::string &Why) {
  ++Failed;
  Correct = false;
  std::fprintf(stderr, "perfbench: failed op: %s\n", Why.c_str());
}

void Report::broken(const std::string &Why) {
  Correct = false;
  std::fprintf(stderr, "perfbench: %s\n", Why.c_str());
}

int Report::print() const {
  bool Ok = Correct && Attempted > 0;
  if (!Trace)
    for (const MetricDef &D : EndToEnd)
      if (!Values.count(D.Name)) {
        std::fprintf(stderr, "perfbench: metric '%s' was not measured\n",
                     D.Name);
        Ok = false;
      }
  if (Attempted == 0)
    std::fprintf(stderr, "perfbench: no op was attempted\n");

  for (const std::string &L : Shown)
    std::printf("%s\n", L.c_str());
  std::printf("  %-26s %14.4f %s\n", "host_slowdown_mean",
              SlowdownSamples ? SlowdownSum / SlowdownSamples : 0.0, "x");
  std::printf("  %-26s %14.4f %s\n", "failed_ratio",
              Attempted ? static_cast<double>(Failed) / Attempted : 0.0,
              "failed/attempted");
  std::string J = "{\"correct\": " + std::string(Ok ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Value] : Values) {
    const char *Unit = Trace ? unitOf(PerLayer, Name) : unitOf(EndToEnd, Name);
    J += (First ? "\"" : ", \"") + Name + "\": {\"value\": " + number(Value) +
         ", \"unit\": \"" + Unit + "\"}";
    First = false;
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
  return Ok ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Child processes
//===----------------------------------------------------------------------===//

ChildProcess::~ChildProcess() { kill(); }

bool ChildProcess::start(const std::vector<std::string> &Argv,
                         bool CaptureStdout) {
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);

  int Pipe[2] = {-1, -1};
  if (CaptureStdout && ::pipe2(Pipe, O_CLOEXEC) != 0)
    return false;
  int DevNull = CaptureStdout ? -1 : ::open("/dev/null", O_WRONLY | O_CLOEXEC);

  Pid = ::fork();
  if (Pid < 0) {
    for (int Fd : {Pipe[0], Pipe[1], DevNull})
      if (Fd >= 0)
        ::close(Fd);
    return false;
  }
  if (Pid == 0) {
    // The child must not outlive the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(CaptureStdout ? Pipe[1] : DevNull, STDOUT_FILENO);
    ::execv(Args[0], Args.data());
    ::_exit(127);
  }
  if (CaptureStdout) {
    ::close(Pipe[1]);
    OutFd = Pipe[0];
  } else if (DevNull >= 0) {
    ::close(DevNull);
  }
  return true;
}

std::string ChildProcess::readLine(int TimeoutMs) {
  double Deadline = nowMs() + TimeoutMs;
  for (;;) {
    size_t Nl = Pending.find('\n');
    if (Nl != std::string::npos) {
      std::string Line = Pending.substr(0, Nl);
      Pending.erase(0, Nl + 1);
      return Line;
    }
    int Left = static_cast<int>(Deadline - nowMs());
    if (OutFd < 0 || Left <= 0)
      return "";
    pollfd P{OutFd, POLLIN, 0};
    if (::poll(&P, 1, Left) <= 0)
      continue;
    char Buf[512];
    ssize_t N = ::read(OutFd, Buf, sizeof(Buf));
    if (N <= 0)
      return "";
    Pending.append(Buf, static_cast<size_t>(N));
  }
}

int ChildProcess::wait(int TimeoutMs) {
  double Deadline = nowMs() + TimeoutMs;
  while (Pid > 0) {
    int Status = 0;
    pid_t W = ::waitpid(Pid, &Status, WNOHANG);
    if (W == Pid) {
      Pid = -1;
      if (OutFd >= 0)
        ::close(OutFd);
      OutFd = -1;
      return WIFEXITED(Status) ? WEXITSTATUS(Status)
                               : 128 + WTERMSIG(Status);
    }
    if (nowMs() > Deadline)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill();
  return -1;
}

void ChildProcess::kill() {
  if (Pid > 0) {
    ::kill(Pid, SIGKILL);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
  }
  if (OutFd >= 0)
    ::close(OutFd);
  OutFd = -1;
}

Timings probeSetup(const Options &O, unsigned Runs, Report &R) {
  Timings T;
  for (unsigned I = 0; I < Runs; ++I) {
    ChildProcess C;
    double SlowBefore = hostSlowdown();
    double T0 = nowMs();
    if (!C.start({O.SelfBinary, "--probe", O.Workload, "--root", O.Root},
                 false)) {
      R.broken("cannot start the set-up probe");
      return T;
    }
    int Rc = C.wait(120000);
    double WallMs = nowMs() - T0;
    T.add(WallMs, SlowBefore, hostSlowdown());
    if (Rc != 0)
      R.broken("set-up probe exited with " + std::to_string(Rc));
  }
  return T;
}

} // namespace perfbench

using namespace perfbench;

int main(int Argc, char **Argv) {
  Options O;
  std::string Probe;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    const char *V = I + 1 < Argc ? Argv[I + 1] : nullptr;
    if (!V) {
      std::fprintf(stderr, "perfbench: '%s' needs a value\n", A.c_str());
      return 2;
    }
    ++I;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--probe")
      Probe = O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--root")
      O.Root = V;
    else if (A == "--serve")
      O.ServeBinary = V;
    else {
      std::fprintf(stderr, "perfbench: unknown option '%s'\n", A.c_str());
      return 2;
    }
  }
  O.SelfBinary = selfBinary();
  support::ignoreSigpipe();

  if (!Probe.empty()) {
    if (Probe == "suite_cold")
      return probeSuiteCold(O);
    if (Probe == "tune_gemmini")
      return probeTuneGemmini(O);
    if (Probe == "fuzz_oracle")
      return probeFuzzOracle(O);
    std::fprintf(stderr, "perfbench: no probe for '%s'\n", Probe.c_str());
    return 2;
  }

  Report R(O.Trace);
  if (O.Workload == "suite_cold")
    runSuiteCold(O, R);
  else if (O.Workload == "serve_mixed")
    runServeMixed(O, R);
  else if (O.Workload == "tune_gemmini")
    runTuneGemmini(O, R);
  else if (O.Workload == "fuzz_oracle")
    runFuzzOracle(O, R);
  else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }
  return R.print();
}
