//===- perfbench/src/ServeMixed.cpp - The serve_mixed workload ------------===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One exocc-serve child with two job workers, and two client connections
/// that each run a closed loop: the next `compile` request goes out only
/// after the previous reply, for a fixed number of requests: two repeated
/// suite kernels for each fresh `fuzz_seed` program that never repeats,
/// in an order the seed shuffles. Kernel replies must carry the
/// fingerprint of their golden file; a sample of the fuzz replies must
/// match an in-process compile of the same seed. Per-layer counters come
/// from the server's `stats` op.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "driver/CompileSession.h"
#include "driver/KernelSuite.h"
#include "service/Protocol.h"
#include "testing/ProgramGen.h"
#include "testing/ScheduleGen.h"

#include <algorithm>
#include <thread>

using namespace exo;
using namespace exo::service;

namespace perfbench {

namespace {

constexpr unsigned NumClients = 2;
/// Requests per client per second of --seconds.
constexpr double RequestsPerClientSecond = 40;
/// One request in this many is a fresh fuzz program, the rest are suite
/// kernels: the share of `compile` requests that name a fuzz_seed in the
/// exocc-soak mix (2 of its 6 compile draws in 10).
constexpr uint64_t FuzzEvery = 3;
/// Client 0 samples the host's speed after every this many requests.
constexpr size_t SlowdownEvery = 20;
/// Fuzz replies re-compiled in-process after the loop.
constexpr size_t FuzzSample = 128;
/// The first fuzz_seed the loop compiles (the warm-up compiles none).
constexpr uint64_t FuzzBase = 1000000;

struct Reply {
  std::string Kernel;    ///< suite kernel, or empty for a fuzz program
  uint64_t FuzzSeed = 0;
  double StartMs = 0;    ///< when the request went out
  double RttMs = 0;      ///< client round trip
  double WallMs = 0;     ///< the server's compile time (reply "wall_ms")
  std::string Fingerprint;
  std::string Why;       ///< non-empty when the request failed
  bool Transport = false; ///< the connection itself failed
};

Reply call(ClientConnection &C, const Json &Req) {
  Reply Rp;
  Rp.Kernel = Req.getString("kernel");
  Rp.FuzzSeed = static_cast<uint64_t>(Req.getInt("fuzz_seed", 0));
  Rp.StartMs = nowMs();
  Expected<Json> Out = C.call(Req, 60000);
  Rp.RttMs = nowMs() - Rp.StartMs;
  if (!Out) {
    Rp.Why = "transport: " + Out.error().message();
    Rp.Transport = true;
    return Rp;
  }
  Rp.WallMs = Out->get("wall_ms") ? Out->get("wall_ms")->asDouble() : 0;
  Rp.Fingerprint = Out->getString("fingerprint");
  if (!Out->getBool("ok") || Out->getString("status") != "ok")
    Rp.Why = "status " + Out->getString("status") + ": " +
             Out->getString("error");
  return Rp;
}

Json compileKernel(const std::string &Kernel, uint64_t Id) {
  Json J = Json::object();
  J.set("op", "compile").set("id", std::to_string(Id)).set("kernel", Kernel);
  return J;
}

Json compileFuzz(uint64_t Seed, uint64_t Id) {
  Json J = Json::object();
  J.set("op", "compile")
      .set("id", std::to_string(Id))
      .set("fuzz_seed", static_cast<int64_t>(Seed));
  return J;
}

/// The exocc-serve child and its client connections.
class Service {
public:
  Expected<bool> start(const Options &O) {
    if (!Proc.start({O.ServeBinary, "--port", "0", "--workers",
                     std::to_string(NumClients), "--rate", "1000000",
                     "--burst", "1000000", "--scavenge-age-s", "-1",
                     "--idle-timeout-ms", "600000"},
                    true))
      return makeError(Error::Kind::Internal, "cannot spawn exocc-serve");
    std::string Line = Proc.readLine(60000);
    if (Line.rfind("READY port=", 0) != 0)
      return makeError(Error::Kind::Internal,
                       "exocc-serve did not get ready: '" + Line + "'");
    int Port = std::atoi(Line.c_str() + 11);
    for (unsigned I = 0; I < NumClients; ++I) {
      auto C = ClientConnection::connectTcp(Port);
      if (!C)
        return C.error();
      Json Hello = Json::object();
      Hello.set("op", "hello").set("client", "client" + std::to_string(I));
      auto Ack = C->call(Hello, 30000);
      if (!Ack || !Ack->getBool("ok"))
        return makeError(Error::Kind::Internal, "hello was refused");
      Clients.push_back(std::move(*C));
    }
    return true;
  }

  /// The server's stats snapshot (null when unavailable).
  Json stats() {
    Json Req = Json::object();
    Req.set("op", "stats");
    auto Out = Clients.front().call(Req, 30000);
    return Out ? *Out : Json();
  }

  /// Drains the server and waits for it; false when it had to be killed.
  bool stop() {
    Json Req = Json::object();
    Req.set("op", "drain");
    if (!Clients.empty())
      (void)Clients.front().call(Req, 30000);
    Clients.clear();
    return Proc.wait(30000) == 0;
  }

  int pid() const { return Proc.pid(); }
  ClientConnection &client(unsigned I) { return Clients[I]; }

private:
  ChildProcess Proc;
  std::vector<ClientConnection> Clients;
};

/// Runs \p Body(Client) on every client connection at once.
template <typename Fn> void onEveryClient(Fn Body) {
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < NumClients; ++I)
    Threads.emplace_back([&Body, I] { Body(I); });
  for (std::thread &T : Threads)
    T.join();
}

std::string localFingerprint(uint64_t Seed) {
  driver::CompileJob Job;
  Job.Name = "fuzz_p" + std::to_string(Seed);
  Job.Build = [Seed]() -> Expected<std::vector<ir::ProcRef>> {
    auto G = testing::generateProgram(Seed);
    if (!G)
      return G.error();
    testing::Rng Rn(Seed * 7919 + 104730);
    return std::vector<ir::ProcRef>{
        testing::generateSchedule(G->Proc, Rn).Scheduled};
  };
  driver::SessionOptions SO;
  SO.MaxRetries = 1; // what the server runs compile requests with
  driver::JobResult Res = driver::CompileSession(SO).run(Job);
  return Res.Ok ? fingerprint(Res.Output) : "failed: " + Res.ErrorMessage;
}

/// Per-layer metrics read from the `stats` op: metric, section, key.
const char *const PerRequestStats[][3] = {
    {"service.term_trims", "server", "term_trims"},
    {"smt.queries", "solver", "queries"},
    {"smt.unknown", "solver", "unknown"},
    {"smt.query_cache_hits", "query_cache", "hits"},
    {"smt.query_cache_misses", "query_cache", "misses"},
    {"smt.query_cache_cross_job_hits", "query_cache", "cross_job_hits"},
    {"analysis.effect_cache_hits", "effect_cache", "hits"},
    {"analysis.effect_cross_compile_hits", "effect_cache",
     "cross_compile_hits"},
    {"backend.jit_compiles", "jit_cache", "compiles"},
    {"backend.jit_hits", "jit_cache", "hits"},
};

double statDelta(const Json &A, const Json &B, const char *Section,
                 const char *Key) {
  auto Get = [&](const Json &S) {
    const Json *Sec = S.get(Section);
    return Sec ? static_cast<double>(Sec->getInt(Key)) : 0.0;
  };
  return Get(B) - Get(A);
}

} // namespace

void runServeMixed(const Options &O, Report &R) {
  std::vector<std::string> Kernels = driver::referenceNames();
  std::map<std::string, std::string> KernelFp;
  for (const std::string &K : Kernels)
    KernelFp[K] = fingerprint(readFile(O.Root + "/tests/golden/" + K + ".c"));

  auto Check = [&](const Reply &Rp) {
    R.attempted();
    if (!Rp.Why.empty())
      R.fail((Rp.Kernel.empty() ? "fuzz_p" + std::to_string(Rp.FuzzSeed)
                                : Rp.Kernel) +
             ": " + Rp.Why);
    else if (!Rp.Kernel.empty() && Rp.Fingerprint != KernelFp[Rp.Kernel])
      R.fail(Rp.Kernel + ": reply fingerprint differs from the golden file");
  };

  // Set-up, SetupRepeats times: spawn the server, connect, and warm it
  // with one round of the suite kernels per client. The last one stays up.
  Timings SetupMs;
  std::unique_ptr<Service> Svc;
  for (unsigned Round = 0; Round < SetupRepeats; ++Round) {
    if (Svc && !Svc->stop())
      R.broken("exocc-serve did not drain");
    Svc = std::make_unique<Service>();
    double SlowBefore = hostSlowdown();
    double T0 = nowMs();
    Expected<bool> Up = Svc->start(O);
    if (!Up) {
      R.broken(Up.error().message());
      return;
    }
    std::vector<std::vector<Reply>> Warm(NumClients);
    onEveryClient([&](unsigned C) {
      for (size_t K = 0; K < Kernels.size(); ++K)
        Warm[C].push_back(call(Svc->client(C), compileKernel(Kernels[K], K)));
    });
    double Ms = nowMs() - T0;
    SetupMs.add(Ms, SlowBefore, hostSlowdown());
    for (const auto &Replies : Warm)
      for (const Reply &Rp : Replies)
        Check(Rp);
  }

  // Each client's plan: suite kernels (round robin) and fuzz programs,
  // FuzzEvery apart, in a seeded order. Together the clients compile the
  // fuzz seeds FuzzBase.. once each, so every run does the same work.
  uint64_t Budget = workUnits(O, RequestsPerClientSecond);
  uint64_t NumKernels = Budget - Budget / FuzzEvery;
  std::vector<std::vector<Json>> Plans(NumClients);
  for (unsigned C = 0; C < NumClients; ++C) {
    for (uint64_t I = 0; I < Budget; ++I)
      Plans[C].push_back(
          I < NumKernels
              ? compileKernel(Kernels[I % Kernels.size()], I)
              : compileFuzz(FuzzBase + NumClients * (I - NumKernels) + C, I));
    testing::Rng Rng(O.Seed * 1000003 + C);
    shuffle(Plans[C], Rng);
  }

  Json Stats0 = O.Trace ? Svc->stats() : Json();
  std::vector<std::vector<Reply>> Replies(NumClients);
  std::vector<std::pair<double, double>> Slow = {{nowMs(), hostSlowdown()}};
  onEveryClient([&](unsigned C) {
    for (const Json &Req : Plans[C]) {
      Replies[C].push_back(call(Svc->client(C), Req));
      if (Replies[C].back().Transport)
        break;
      if (C == 0 && Replies[C].size() % SlowdownEvery == 0)
        Slow.push_back({nowMs(), hostSlowdown()});
    }
  });
  Slow.push_back({nowMs(), hostSlowdown()});
  Json Stats1 = O.Trace ? Svc->stats() : Json();
  // The server's part of peak_rss_mb is what it holds once the loop is
  // done (VmRSS), not its VmHWM: the VmHWM hangs on which compiles of the
  // two workers overlap between interner trims, and spread 0.18 to 0.28
  // across seeds at fixed work. README.md, "serve_mixed memory", has the
  // figures; the VmHWM is shown.
  double ServerPeakMb = peakRssMb(Svc->pid());
  double ServerHeldMb = rssMb(Svc->pid());
  // Before the in-process check below, whose sample of fuzz seeds follows
  // the seeded plan order.
  double DriverPeakMb = peakRssMb();
  if (!Svc->stop())
    R.broken("exocc-serve did not drain");

  // Each round trip goes by the two host-speed samples around its start;
  // the loop's busy time is the spans between samples.
  Timings Rtt, Busy;
  for (size_t I = 1; I < Slow.size(); ++I)
    Busy.add(Slow[I].first - Slow[I - 1].first, Slow[I - 1].second,
             Slow[I].second);
  Samples Wall, Overhead;
  std::vector<const Reply *> Fuzz;
  for (const auto &PerClient : Replies)
    for (const Reply &Rp : PerClient) {
      Check(Rp);
      auto After = std::lower_bound(
          Slow.begin() + 1, Slow.end() - 1, Rp.StartMs,
          [](const std::pair<double, double> &P, double T) {
            return P.first < T;
          });
      Rtt.add(Rp.RttMs, (After - 1)->second, After->second);
      if (!Rp.Why.empty())
        continue;
      Wall.add(Rp.WallMs);
      Overhead.add(Rp.RttMs - Rp.WallMs);
      if (Rp.Kernel.empty())
        Fuzz.push_back(&Rp);
    }

  // An evenly spaced sample of the fuzz replies, re-compiled here.
  size_t Stride = Fuzz.size() / FuzzSample + 1;
  for (size_t I = 0; I < Fuzz.size(); I += Stride)
    if (localFingerprint(Fuzz[I]->FuzzSeed) != Fuzz[I]->Fingerprint)
      R.fail("fuzz_p" + std::to_string(Fuzz[I]->FuzzSeed) +
             ": reply fingerprint differs from an in-process compile");

  double Requests = static_cast<double>(Rtt.Wall.size());
  const Samples &Round = Rtt.Ref;
  if (O.Trace) {
    Sums S;
    for (const auto &D : PerRequestStats)
      S[D[0]] = statDelta(Stats0, Stats1, D[1], D[2]);
    R.setPerOp(S, Requests);
    const Json *Terms = Stats1.get("term_interner");
    R.set("smt.term_nodes", Terms ? static_cast<double>(Terms->getInt("live"))
                                  : 0.0);
    R.set("service.rejected",
          statDelta(Stats0, Stats1, "admission", "rate_limited") +
              statDelta(Stats0, Stats1, "admission", "client_queue_full") +
              statDelta(Stats0, Stats1, "admission", "shed"));
    R.set("service.overhead_ms_p50", Overhead.quantile(0.5));
    R.set("service.compile_ms_p50", Wall.quantile(0.5));
    R.set("trace.op_ms_p50", Round.quantile(0.5));
    // What the mix covers: the share of cache lookups that hit.
    for (const char *Cache : {"query_cache", "effect_cache"}) {
      double Hits = statDelta(Stats0, Stats1, Cache, "hits");
      double Lookups = Hits + statDelta(Stats0, Stats1, Cache, "misses");
      R.show(std::string(Cache) + "_hit_share",
             Lookups > 0 ? Hits / Lookups : 0.0, "hits/lookups");
    }
    return;
  }
  R.setSetup(SetupMs);
  R.setOpTimes(Rtt, Requests, Busy);
  R.set("peak_rss_mb", DriverPeakMb + ServerHeldMb);
  double BusyS = Busy.Ref.sum() / 1000.0;
  R.show("request_ms_p50", Round.quantile(0.5), "ms");
  R.show("request_ms_p90", Round.quantile(0.9), "ms");
  R.show("requests_per_s", BusyS > 0 ? Requests / BusyS : 0.0, "1/s");
  R.show("fuzz_requests", static_cast<double>(Fuzz.size()), "count");
  R.show("server_peak_rss_mb", ServerPeakMb, "MB");
  R.show("server_held_rss_mb", ServerHeldMb, "MB");
}

} // namespace perfbench
