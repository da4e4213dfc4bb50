//===- testing/SoakMain.cpp - exocc-soak: service soak harness -*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-injected soak harness for exocc-serve, and its warm-vs-cold
/// throughput benchmark. Two modes:
///
/// Soak (default): spawns a supervised daemon, then hammers it from N
/// client threads with a seeded mix of compile / oracle / stats / poll
/// requests while misbehaving on purpose — the client-side fault plan
/// (sock-short-read / sock-disconnect / sock-slowloris) corrupts its own
/// writes through service::clientWriteFrame, a --crash-every counter
/// periodically kills the worker process outright, and the daemon's own
/// --inject plan adds solver timeouts and JIT traps on the server side.
/// The harness passes only if every request reaches a terminal resolution
/// (answered, rejected, or resolved as lost via the reconnect-and-poll
/// crash contract), no client hangs, responses for the same kernel are
/// bit-identical across tenants and time (fingerprint check), and the
/// daemon survives to drain cleanly.
///
/// Bench (--bench): measures the service's reason to exist. Cold: spawn a
/// fresh exocc-batch per repetition (process start + cold caches every
/// time). Warm: one daemon, repeated compile requests over one
/// connection. The cold reps are interleaved among the warm ones and the
/// two medians compared. Writes BENCH_serve.json and fails (exit 1) when
/// the warm path is not at least --min-speedup times faster — the CI
/// tripwire that keeps the daemon earning its keep.
///
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "support/Deadline.h"
#include "support/FaultInjector.h"
#include "support/Process.h"
#include "support/Signals.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace exo;
using namespace exo::service;
using support::nowMillis;

namespace {

/// splitmix64: per-thread deterministic request mixing.
struct Mix {
  uint64_t State;
  explicit Mix(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State += 0x9E3779B97F4A7C15ull;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
};

struct SoakFlags {
  std::string ServeBin;   ///< path to exocc-serve (spawned when set)
  std::string SocketPath; ///< unix socket (generated when empty)
  unsigned Requests = 1000;
  unsigned Clients = 4;
  uint64_t Seed = 1;
  std::string ClientInject; ///< client-side socket fault plan
  uint64_t ClientInjectSeed = 1;
  std::string ServerInject; ///< forwarded to the daemon's --inject
  unsigned CrashEvery = 0;  ///< send {"op":"crash"} every N requests
  int64_t CallTimeoutMillis = 30000;
  int64_t ResolveTimeoutMillis = 30000;
  bool Bench = false;
  std::string BatchBin;    ///< exocc-batch for the cold side
  std::string Kernel = "fig5a_sgemm_square";
  unsigned WarmReps = 30;
  unsigned ColdReps = 3;
  double MinSpeedup = 1.5;
  std::string JsonPath = "BENCH_serve.json";
};

/// Everything the soak run counts; success criteria read these at the end.
struct SoakTally {
  std::atomic<uint64_t> Sent{0};
  std::atomic<uint64_t> Answered{0};
  std::atomic<uint64_t> Rejected{0};   ///< admission rejections
  std::atomic<uint64_t> ResolvedLost{0};///< via reconnect + poll
  std::atomic<uint64_t> Unresolved{0}; ///< the failure mode: a hung client
  std::atomic<uint64_t> Reconnects{0};
  std::atomic<uint64_t> CrashOps{0};
  std::atomic<uint64_t> FingerprintMismatches{0};

  std::mutex FpMu;
  std::map<std::string, std::string> KernelFingerprints;
};

pid_t spawnServer(const SoakFlags &F, const std::string &Journal) {
  pid_t Pid = ::fork();
  if (Pid != 0)
    return Pid;
  std::vector<std::string> Args = {
      F.ServeBin,        "--supervise",
      "--unix",          F.SocketPath,
      "--journal",       Journal,
      // A tight job deadline matters under fault injection: an injected
      // solver-timeout wedges its worker until the job's deadline, so the
      // deadline bounds how long each wedge can stall the queue.
      "--workers",       "4",
      "--deadline-ms",   "3000",
      "--frame-timeout-ms", "500",
      "--idle-timeout-ms",  "60000",
      "--rate",          "1000",
      "--burst",         "200",
      "--max-per-client", "16",
      "--max-global",    "64",
      "--breaker-failures", "3",
      "--breaker-backoff-ms", "100",
      "--allow-crash-op",
      "--scavenge-age-s", "-1",
  };
  if (!F.ServerInject.empty()) {
    Args.push_back("--inject");
    Args.push_back(F.ServerInject);
    Args.push_back("--inject-seed");
    Args.push_back(std::to_string(F.Seed));
  }
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  // Quiet the daemon's stderr chatter unless debugging.
  if (!::getenv("EXO_SOAK_VERBOSE")) {
    FILE *Null = std::fopen("/dev/null", "w");
    if (Null)
      ::dup2(fileno(Null), 2);
  }
  ::execv(F.ServeBin.c_str(), Argv.data());
  std::perror("execv exocc-serve");
  ::_exit(127);
}

Expected<ClientConnection> connectWithRetry(const std::string &Path,
                                            int64_t TimeoutMillis) {
  int64_t GiveUpAt = nowMillis() + TimeoutMillis;
  for (;;) {
    Expected<ClientConnection> C = ClientConnection::connectUnix(Path);
    if (C)
      return C;
    if (nowMillis() >= GiveUpAt)
      return C;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

/// Sends hello binding the tenant name; best effort (the server defaults
/// to "anon" otherwise, which would break poll key matching).
bool sayHello(ClientConnection &C, const std::string &Client) {
  Json H = Json::object();
  H.set("op", "hello").set("client", Client);
  Expected<Json> R = C.call(H, 5000);
  return R && R->getBool("ok");
}

/// Resolves ids whose answers were lost to a disconnect or crash: poll
/// until every one reaches a terminal status or the timeout passes.
/// Returns the number left unresolved (0 is the success criterion).
unsigned resolveLost(const SoakFlags &F, const std::string &Client,
                     std::vector<std::string> &Ids, SoakTally &T) {
  if (Ids.empty())
    return 0;
  int64_t GiveUpAt = nowMillis() + F.ResolveTimeoutMillis;
  while (!Ids.empty() && nowMillis() < GiveUpAt) {
    Expected<ClientConnection> C =
        connectWithRetry(F.SocketPath, GiveUpAt - nowMillis());
    if (!C) {
      break;
    }
    ++T.Reconnects;
    if (!sayHello(*C, Client))
      continue;
    Json P = Json::object();
    P.set("op", "poll").set("client", Client);
    Json IdArr = Json::array();
    for (const std::string &Id : Ids)
      IdArr.push(Id);
    P.set("ids", std::move(IdArr));
    Expected<Json> R = C->call(P, 10000);
    if (!R)
      continue; // server may be mid-respawn; reconnect and retry
    const Json *Results = R->get("results");
    if (!Results)
      continue;
    std::vector<std::string> Still;
    for (const std::string &Id : Ids) {
      std::string St = Results->getString(Id, "pending");
      if (St == "pending")
        Still.push_back(Id);
      else
        ++T.ResolvedLost; // answered, worker-crash, unknown: all terminal
    }
    Ids.swap(Still);
    if (!Ids.empty())
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return static_cast<unsigned>(Ids.size());
}

void checkFingerprint(SoakTally &T, const std::string &Kernel,
                      const std::string &Fp) {
  if (Fp.empty())
    return;
  std::lock_guard<std::mutex> Lock(T.FpMu);
  auto It = T.KernelFingerprints.find(Kernel);
  if (It == T.KernelFingerprints.end())
    T.KernelFingerprints.emplace(Kernel, Fp);
  else if (It->second != Fp)
    ++T.FingerprintMismatches;
}

void clientThread(const SoakFlags &F, unsigned ThreadIdx, unsigned MyRequests,
                  SoakTally &T) {
  const std::string Client = "soak-c" + std::to_string(ThreadIdx);
  static const char *Kernels[] = {"fig5a_sgemm_square", "fig4a_gemmini_matmul",
                                  "amx_matmul", "fig6_conv_x86"};
  Mix M(F.Seed * 1000003 + ThreadIdx);
  std::vector<std::string> LostIds;

  Expected<ClientConnection> Conn = connectWithRetry(F.SocketPath, 15000);
  if (Conn)
    sayHello(*Conn, Client);

  for (unsigned I = 0; I < MyRequests; ++I) {
    // Re-establish the connection if the last interaction lost it.
    if (!Conn || !Conn->valid()) {
      Conn = connectWithRetry(F.SocketPath, 15000);
      if (!Conn) {
        // The daemon is gone for good: everything left is unresolved.
        T.Unresolved += MyRequests - I + LostIds.size();
        return;
      }
      ++T.Reconnects;
      sayHello(*Conn, Client);
      unsigned Left = resolveLost(F, Client, LostIds, T);
      T.Unresolved += Left;
      LostIds.clear();
    }

    std::string Id =
        "c" + std::to_string(ThreadIdx) + "-" + std::to_string(I);
    uint64_t Global = ++T.Sent;

    Json Req = Json::object();
    bool IsWork = false;
    std::string Kernel;
    if (F.CrashEvery && Global % F.CrashEvery == 0) {
      Req.set("op", "crash");
      ++T.CrashOps;
    } else {
      switch (M.below(10)) {
      case 0:
        Req.set("op", "stats");
        break;
      case 1:
      case 2:
      case 3: {
        Req.set("op", "oracle").set("id", Id).set("seed",
                                                  static_cast<int64_t>(
                                                      M.below(64) + 1));
        IsWork = true;
        break;
      }
      case 4:
      case 5: {
        Req.set("op", "compile")
            .set("id", Id)
            .set("fuzz_seed", static_cast<int64_t>(M.below(32) + 1));
        IsWork = true;
        break;
      }
      default: {
        Kernel = Kernels[M.below(4)];
        Req.set("op", "compile").set("id", Id).set("kernel", Kernel);
        IsWork = true;
        break;
      }
      }
    }

    // Send through the fault-injecting writer: this is where
    // sock-short-read / sock-disconnect / sock-slowloris happen.
    FrameResult W = Conn->send(Req, /*WithFaults=*/true);
    if (!W.ok()) {
      if (IsWork)
        LostIds.push_back(Id);
      Conn->close();
      continue;
    }
    FrameResult R = Conn->receive(static_cast<int>(F.CallTimeoutMillis));
    if (!R.ok()) {
      // Crash op answers with silence by design; everything else lost
      // here is resolved through the poll contract on reconnect.
      if (IsWork)
        LostIds.push_back(Id);
      Conn->close();
      continue;
    }
    Expected<Json> Resp = Json::parse(R.Payload);
    if (!Resp) {
      if (IsWork)
        LostIds.push_back(Id);
      Conn->close();
      continue;
    }
    std::string Status = Resp->getString("status");
    if (Status == "rate-limited" || Status == "client-queue-full" ||
        Status == "overloaded" || Status == "draining") {
      ++T.Rejected;
      int64_t Backoff = Resp->getInt("retry_after_ms", 20);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(Backoff > 200 ? 200 : Backoff));
      continue;
    }
    if (Status == "protocol-error") {
      // Our own injected garbage bounced; the server hangs up after it.
      if (IsWork)
        LostIds.push_back(Id);
      Conn->close();
      continue;
    }
    ++T.Answered;
    if (!Kernel.empty() && Status == "ok")
      checkFingerprint(T, Kernel, Resp->getString("fingerprint"));
  }

  T.Unresolved += resolveLost(F, Client, LostIds, T);
}

int runSoak(const SoakFlags &F) {
  if (!F.ClientInject.empty()) {
    auto C = support::FaultInjector::instance().configure(
        F.ClientInject, F.ClientInjectSeed);
    if (!C) {
      std::fprintf(stderr, "--inject: %s\n", C.error().message().c_str());
      return 2;
    }
  }

  std::string Journal = F.SocketPath + ".journal";
  pid_t Server = -1;
  if (!F.ServeBin.empty()) {
    Server = spawnServer(F, Journal);
    if (Server < 0) {
      std::perror("fork");
      return 1;
    }
  }

  // Wait for the socket to accept before unleashing the clients.
  {
    Expected<ClientConnection> Probe = connectWithRetry(F.SocketPath, 20000);
    if (!Probe) {
      std::fprintf(stderr, "soak: server never became ready: %s\n",
                   Probe.error().message().c_str());
      if (Server > 0)
        ::kill(Server, SIGKILL);
      return 1;
    }
  }

  SoakTally T;
  std::vector<std::thread> Threads;
  unsigned Per = F.Requests / (F.Clients ? F.Clients : 1);
  if (Per == 0)
    Per = 1;
  for (unsigned I = 0; I < F.Clients; ++I)
    Threads.emplace_back(
        [&, I] { clientThread(F, I, Per, T); });
  for (std::thread &Th : Threads)
    Th.join();

  // Ask for the daemon's counters, then drain it.
  Json FinalStats;
  {
    Expected<ClientConnection> C = connectWithRetry(F.SocketPath, 10000);
    if (C) {
      Json SReq = Json::object();
      SReq.set("op", "stats");
      Expected<Json> SR = C->call(SReq, 10000);
      if (SR)
        FinalStats = std::move(*SR);
      Json DReq = Json::object();
      DReq.set("op", "drain");
      (void)C->call(DReq, 10000);
    }
  }

  int ServerExit = 0;
  if (Server > 0) {
    // The drain op must bring the whole supervised tree down cleanly.
    int Status = 0;
    int64_t GiveUpAt = nowMillis() + 30000;
    for (;;) {
      pid_t W = ::waitpid(Server, &Status, WNOHANG);
      if (W == Server)
        break;
      if (nowMillis() >= GiveUpAt) {
        std::fprintf(stderr, "soak: daemon ignored drain; killing\n");
        ::kill(Server, SIGKILL);
        ::waitpid(Server, &Status, 0);
        ServerExit = 1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (ServerExit == 0 &&
        !(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)) {
      std::fprintf(stderr, "soak: daemon exited abnormally (%s %d)\n",
                   WIFSIGNALED(Status) ? "signal" : "status",
                   WIFSIGNALED(Status) ? WTERMSIG(Status)
                                       : WEXITSTATUS(Status));
      ServerExit = 1;
    }
  }

  uint64_t Unresolved = T.Unresolved.load();
  uint64_t Mismatches = T.FingerprintMismatches.load();
  std::printf(
      "soak: %llu sent, %llu answered, %llu rejected, %llu resolved-lost, "
      "%llu reconnects, %llu crash ops, %llu unresolved, %llu fingerprint "
      "mismatches\n",
      (unsigned long long)T.Sent.load(), (unsigned long long)T.Answered.load(),
      (unsigned long long)T.Rejected.load(),
      (unsigned long long)T.ResolvedLost.load(),
      (unsigned long long)T.Reconnects.load(),
      (unsigned long long)T.CrashOps.load(), (unsigned long long)Unresolved,
      (unsigned long long)Mismatches);
  if (!FinalStats.isNull())
    std::printf("soak: daemon stats %s\n", FinalStats.dump().c_str());

  if (Unresolved != 0) {
    std::fprintf(stderr, "soak: FAIL — %llu request(s) never reached a "
                         "terminal status (hung client)\n",
                 (unsigned long long)Unresolved);
    return 1;
  }
  if (Mismatches != 0) {
    std::fprintf(stderr, "soak: FAIL — kernel outputs were not bit-identical "
                         "across requests\n");
    return 1;
  }
  if (ServerExit != 0)
    return 1;
  std::printf("soak: PASS\n");
  return 0;
}

//===----------------------------------------------------------------------===//
// Warm-vs-cold bench
//===----------------------------------------------------------------------===//

/// Milliseconds since \p T0 on the steady clock, at microsecond resolution.
double msSince(std::chrono::steady_clock::time_point T0) {
  auto Us = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - T0);
  return static_cast<double>(Us.count()) / 1000.0;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

int runBench(const SoakFlags &F) {
  if (F.ServeBin.empty() || F.BatchBin.empty()) {
    std::fprintf(stderr, "bench: --serve and --batch are required\n");
    return 2;
  }
  if (F.WarmReps == 0 || F.ColdReps == 0) {
    std::fprintf(stderr, "bench: --warm-reps and --cold-reps must be >= 1\n");
    return 2;
  }

  // Warm side: one daemon, one connection, repeated compiles of the same
  // kernel. The first request pays the cold cost and is excluded.
  pid_t Server = spawnServer(F, F.SocketPath + ".journal");
  if (Server < 0) {
    std::perror("fork");
    return 1;
  }
  Expected<ClientConnection> C = connectWithRetry(F.SocketPath, 20000);
  if (!C) {
    std::fprintf(stderr, "bench: server never became ready\n");
    ::kill(Server, SIGKILL);
    return 1;
  }
  sayHello(*C, "bench");

  auto CompileOnce = [&](const std::string &Id) -> double {
    Json Req = Json::object();
    Req.set("op", "compile").set("id", Id).set("kernel", F.Kernel);
    auto T0 = std::chrono::steady_clock::now();
    Expected<Json> R = C->call(Req, 60000);
    double Ms = msSince(T0);
    if (!R || R->getString("status") != "ok")
      return -1;
    if (::getenv("EXO_SOAK_VERBOSE")) {
      const Json *W = R->get("wall_ms");
      std::string Gauges;
      Json SReq = Json::object();
      SReq.set("op", "stats");
      if (Expected<Json> S = C->call(SReq, 10000)) {
        if (const Json *TI = S->get("term_interner"))
          Gauges += " terms=" + TI->dump();
      }
      std::fprintf(stderr, "bench: %s client=%.3f ms server=%s ms%s\n",
                   Id.c_str(), Ms, W ? W->dump().c_str() : "?",
                   Gauges.c_str());
    }
    return Ms;
  };

  if (CompileOnce("warmup") < 0) {
    std::fprintf(stderr, "bench: warmup compile failed\n");
    ::kill(Server, SIGKILL);
    return 1;
  }

  // Cold side: a fresh exocc-batch process per repetition, the way a
  // Makefile-driven build would invoke the compiler. Cold rep J runs
  // once J/ColdReps of the warm reps are done, so both sides sample the
  // same stretch of host load.
  std::vector<double> Cold, Warm;
  while (Cold.size() < F.ColdReps || Warm.size() < F.WarmReps) {
    bool ColdDue =
        Cold.size() < F.ColdReps &&
        (Warm.size() == F.WarmReps ||
         Cold.size() * F.WarmReps <= Warm.size() * F.ColdReps);
    if (ColdDue) {
      auto T0 = std::chrono::steady_clock::now();
      // Spawned directly, not through a shell, so the path may contain
      // spaces; its output goes to /dev/null.
      int Rc = support::runCommands(
          {{{F.BatchBin, F.Kernel}, "/dev/null", "/dev/null"}})[0];
      Cold.push_back(msSince(T0));
      if (Rc != 0) {
        std::fprintf(stderr, "bench: cold run failed (rc=%d)\n", Rc);
        ::kill(Server, SIGKILL);
        return 1;
      }
      continue;
    }
    double Ms = CompileOnce("warm-" + std::to_string(Warm.size()));
    if (Ms < 0) {
      std::fprintf(stderr, "bench: warm compile failed\n");
      ::kill(Server, SIGKILL);
      return 1;
    }
    Warm.push_back(Ms);
  }

  {
    Json DReq = Json::object();
    DReq.set("op", "drain");
    (void)C->call(DReq, 10000);
    int Status = 0;
    ::waitpid(Server, &Status, 0);
  }

  // Medians, not means: one slow rep (a neighbour's burst of load) must
  // not decide the tripwire.
  double ColdMs = median(Cold), WarmMs = median(Warm);
  double Speedup = WarmMs > 0 ? ColdMs / WarmMs : 0;

  Json Out = Json::object();
  Out.set("bench", "serve")
      .set("kernel", F.Kernel)
      .set("cold_reps", static_cast<int64_t>(F.ColdReps))
      .set("warm_reps", static_cast<int64_t>(F.WarmReps))
      .set("cold_ms_min", *std::min_element(Cold.begin(), Cold.end()))
      .set("cold_ms_median", ColdMs)
      .set("warm_ms_min", *std::min_element(Warm.begin(), Warm.end()))
      .set("warm_ms_median", WarmMs)
      .set("speedup", Speedup)
      .set("min_speedup", F.MinSpeedup);
  {
    std::ofstream OutF(F.JsonPath);
    OutF << Out.dump() << "\n";
  }
  std::printf("bench: cold %.2f ms/job, warm %.2f ms/job (medians), "
              "speedup %.2fx (tripwire %.2fx) -> %s\n",
              ColdMs, WarmMs, Speedup, F.MinSpeedup, F.JsonPath.c_str());

  if (Speedup < F.MinSpeedup) {
    std::fprintf(stderr,
                 "bench: FAIL — warm daemon speedup %.2fx is below the "
                 "%.2fx tripwire\n",
                 Speedup, F.MinSpeedup);
    return 1;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  support::ignoreSigpipe();
  SoakFlags F;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (A == "--serve")
      F.ServeBin = Next();
    else if (A == "--batch")
      F.BatchBin = Next();
    else if (A == "--socket")
      F.SocketPath = Next();
    else if (A == "--requests")
      F.Requests = static_cast<unsigned>(std::atoi(Next()));
    else if (A == "--clients")
      F.Clients = static_cast<unsigned>(std::atoi(Next()));
    else if (A == "--seed")
      F.Seed = static_cast<uint64_t>(std::atoll(Next()));
    else if (A == "--inject")
      F.ClientInject = Next();
    else if (A == "--inject-seed")
      F.ClientInjectSeed = static_cast<uint64_t>(std::atoll(Next()));
    else if (A == "--server-inject")
      F.ServerInject = Next();
    else if (A == "--crash-every")
      F.CrashEvery = static_cast<unsigned>(std::atoi(Next()));
    else if (A == "--call-timeout-ms")
      F.CallTimeoutMillis = std::atoll(Next());
    else if (A == "--bench")
      F.Bench = true;
    else if (A == "--kernel")
      F.Kernel = Next();
    else if (A == "--warm-reps")
      F.WarmReps = static_cast<unsigned>(std::atoi(Next()));
    else if (A == "--cold-reps")
      F.ColdReps = static_cast<unsigned>(std::atoi(Next()));
    else if (A == "--min-speedup")
      F.MinSpeedup = std::atof(Next());
    else if (A == "--json")
      F.JsonPath = Next();
    else if (A == "--help" || A == "-h") {
      std::printf(
          "usage: exocc-soak --serve PATH [options]\n"
          "soak:  --requests N --clients N --seed S\n"
          "       --inject SPEC (client socket faults: sock-short-read,\n"
          "        sock-disconnect, sock-slowloris)\n"
          "       --server-inject SPEC (daemon faults: solver-timeout,\n"
          "        budget-unknown, runtime-trap)\n"
          "       --crash-every N (kill the worker every N requests)\n"
          "bench: --bench --batch PATH --kernel NAME --warm-reps N\n"
          "       --cold-reps N --min-speedup X --json PATH\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", A.c_str());
      return 2;
    }
  }

  if (F.SocketPath.empty()) {
    const char *Tmp = ::getenv("TMPDIR");
    F.SocketPath = std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/exocc_soak_" +
                   std::to_string(static_cast<int>(::getpid())) + ".sock";
  }

  int Rc = F.Bench ? runBench(F) : runSoak(F);
  ::unlink(F.SocketPath.c_str());
  ::unlink((F.SocketPath + ".journal").c_str());
  return Rc;
}
