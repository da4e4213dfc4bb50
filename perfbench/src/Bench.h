//===- perfbench/src/Bench.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the four workloads of the benchmark share: options, timing and
/// quantiles, process-wide counter snapshots, child processes, and the
/// Report every run prints. The benchmark drives ExoCC only through its
/// public headers and binaries; every span and counter here is taken
/// from outside, around a call into a module's public API.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "analysis/EffectCache.h"
#include "backend/Backend.h"
#include "smt/QueryCache.h"
#include "smt/Solver.h"
#include "testing/Rng.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root;        ///< the repository checkout (goldens live here)
  std::string ServeBinary; ///< exocc-serve, for serve_mixed
  std::string SelfBinary;  ///< this program, re-run for set-up probes
};

/// Milliseconds on the steady clock.
double nowMs();

/// How much slower than its reference speed the host runs right now: the
/// time of a fixed reference loop over the loop's nominal time (about 1
/// on a quiet 4-vCPU Xeon VM, above 1 when other tenants contend). The
/// benchmark's host is shared, and its speed drifts by tens of percent over
/// seconds and minutes; the end-to-end times are divided by this, sampled
/// around each op, so that they compare across runs. README.md, "Host
/// speed", has the measurements behind it. Call it from one thread at a
/// time.
double hostSlowdown();

/// \p WallMs in reference milliseconds, given the slowdowns sampled just
/// before and just after it.
inline double referenceMs(double WallMs, double SlowBefore,
                          double SlowAfter) {
  return WallMs * 2 / (SlowBefore + SlowAfter);
}

/// How many units of work a run does: --seconds at \p UnitsPerSecond, the
/// rate a 4-vCPU Xeon VM sustains, and at least one. Runs do a fixed
/// amount of work rather than stop on a clock, because memory grows with
/// the work done: peak_rss_mb and the per-layer counts compare only at
/// equal work.
uint64_t workUnits(const Options &O, double UnitsPerSecond);

/// A sample set with linearly interpolated quantiles.
class Samples {
public:
  void add(double V) { Values.push_back(V); }
  size_t size() const { return Values.size(); }
  double quantile(double Q) const;
  double sum() const;

private:
  std::vector<double> Values;
};

/// Times of one kind of op (or set-up), in wall ms and in reference ms.
/// The end-to-end metrics are in reference ms; the wall times are shown
/// next to them. README.md, "Bounds and measured spread", has the spreads
/// of both behind that choice.
struct Timings {
  Samples Wall, Ref;

  void add(double WallMs, double SlowBefore, double SlowAfter) {
    Wall.add(WallMs);
    Ref.add(referenceMs(WallMs, SlowBefore, SlowAfter));
  }
};

/// Fisher-Yates shuffle driven by the workload's seeded generator.
template <typename T> void shuffle(std::vector<T> &V, exo::testing::Rng &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[static_cast<size_t>(
                            Rng.range(0, static_cast<int64_t>(I) - 1))]);
}

/// Peak resident set size (VmHWM) in MB of \p Pid; 0 means this process.
double peakRssMb(int Pid = 0);
/// Resident set size (VmRSS) in MB of \p Pid right now; 0 means this
/// process.
double rssMb(int Pid = 0);

/// The whole file, or the empty string when it cannot be read.
std::string readFile(const std::string &Path);

/// Empties the process-wide compiler caches (term interner, solver query
/// cache, effect cache), so the next compile pays what a fresh process
/// pays. The one place the benchmark touches the cache modules' clears.
void clearCompilerCaches();

/// Process-wide counters; per-layer counts are deltas between two of
/// these, taken around one operation.
struct Counters {
  exo::smt::Solver::Stats Solver;
  exo::smt::QueryCacheStats Query;
  exo::analysis::EffectCacheStats Effect;
  exo::backend::JitBackend::CacheStats Jit;

  static Counters now();
};

/// Accumulates named per-layer sums over a run.
using Sums = std::map<std::string, double>;

/// Adds the solver, cache and JIT counter deltas \p After - \p Before to
/// \p S under their per-layer metric names.
void addCounterDeltas(const Counters &Before, const Counters &After, Sums &S);

/// What one run prints: the metric values (end-to-end when untraced,
/// per-layer when traced), the op tallies, and human-readable lines that
/// name each metric the way the paper's entry path calls it.
class Report {
public:
  explicit Report(bool Trace);

  /// Sets a metric of the current mode; the unit comes from the tables.
  void set(const std::string &Name, double Value);
  /// Sets every sum in \p S divided by \p Ops (a per-op average).
  void setPerOp(const Sums &S, double Ops);
  /// A human-readable line: the metric under its entry-path name.
  void show(const std::string &Name, double Value, const std::string &Unit);

  /// Sets op_ms_p50, op_ms_p90 and ops_per_s in reference time, from the
  /// op times \p T and \p Ops ops done in the busy spans \p Busy (each
  /// span may hold several ops). Both clocks' figures are also shown, as
  /// op_{wall,ref}_ms_p50, op_{wall,ref}_ms_p90 and ops_per_{wall,ref}_s.
  void setOpTimes(const Timings &T, double Ops, const Timings &Busy);
  /// Sets setup_s, the median of the set-ups \p T in reference time; both
  /// clocks' medians are also shown, as setup_{wall,ref}_s.
  void setSetup(const Timings &T);

  void attempted(uint64_t N = 1) { Attempted += N; }
  /// Counts one failed op and says why on stderr.
  void fail(const std::string &Why);
  /// Marks the run incorrect without counting an op (a broken set-up).
  void broken(const std::string &Why);

  /// Prints the shown lines and then the result JSON as the last line of
  /// stdout; returns the process exit code.
  int print() const;

private:
  bool Trace;
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;
  std::map<std::string, double> Values;
  std::vector<std::string> Shown;
};

/// A child process whose stdout may be read line by line. The destructor
/// kills and reaps it if it is still running.
class ChildProcess {
public:
  ChildProcess() = default;
  ~ChildProcess();
  ChildProcess(const ChildProcess &) = delete;
  ChildProcess &operator=(const ChildProcess &) = delete;

  bool start(const std::vector<std::string> &Argv, bool CaptureStdout);
  /// One line of the child's stdout, or "" after \p TimeoutMs or EOF.
  std::string readLine(int TimeoutMs);
  /// Waits up to \p TimeoutMs for the exit status; on timeout the child
  /// is killed and -1 returned.
  int wait(int TimeoutMs);
  int pid() const { return Pid; }

private:
  void kill();
  int Pid = -1;
  int OutFd = -1;
  std::string Pending;
};

/// How many times a run repeats its set-up; setup_s is the median.
constexpr unsigned SetupRepeats = 9;

/// The times of \p Runs fresh processes, each running the workload's
/// set-up probe (this binary with --probe); a probe that fails marks the
/// report broken.
Timings probeSetup(const Options &O, unsigned Runs, Report &R);

/// The set-up probes: the one-time work a fresh process does before its
/// first steady-state op. Return 0 on success.
int probeSuiteCold(const Options &O);
int probeTuneGemmini(const Options &O);
int probeFuzzOracle(const Options &O);

/// The workloads. Each runs its workUnits and fills \p R.
void runSuiteCold(const Options &O, Report &R);
void runServeMixed(const Options &O, Report &R);
void runTuneGemmini(const Options &O, Report &R);
void runFuzzOracle(const Options &O, Report &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
