//===- service/Server.cpp - The exocc compile service ----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "analysis/EffectCache.h"
#include "backend/Backend.h"
#include "driver/CompileSession.h"
#include "driver/KernelSuite.h"
#include "smt/Solver.h"
#include "smt/Term.h"
#include "support/Deadline.h"
#include "support/FaultInjector.h"
#include "support/Signals.h"
#include "testing/Oracle.h"
#include "testing/ProgramGen.h"
#include "testing/Rng.h"
#include "testing/ScheduleGen.h"
#include "tuning/Tuner.h"

#include <cerrno>
#include <chrono>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace exo;
using namespace exo::service;
using support::nowMillis;

/// One accepted socket. Shared between the connection's reader thread and
/// every worker holding a queued job for it; the write lock serializes
/// response frames (pipelined jobs finish out of order).
struct Server::Connection {
  int Fd = -1;
  std::mutex WriteMu;
  std::mutex ClientMu;
  std::string Client; ///< tenant identity, bound by the hello op
  /// Admitted jobs whose response has not been written yet, and when the
  /// last response was written. A peer waiting on a job is not idle,
  /// however long the job runs; its idle time starts at our last answer.
  std::atomic<unsigned> InFlight{0};
  std::atomic<int64_t> LastReplyMillis{0};

  std::string client() {
    std::lock_guard<std::mutex> Lock(ClientMu);
    return Client;
  }
  void setClient(const std::string &C) {
    std::lock_guard<std::mutex> Lock(ClientMu);
    Client = C;
  }

  ~Connection() {
    if (Fd >= 0)
      ::close(Fd);
  }
};

Server::Server(ServerOptions Opts)
    : Opts(Opts), Admission(Opts.Admission), Breaker(Opts.Breaker) {}

Server::~Server() { stop(0); }

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Expected<bool> Server::start() {
  support::ignoreSigpipe();
  loadJournal();

  if (!Opts.UnixPath.empty()) {
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return makeError(Error::Kind::Internal,
                       std::string("socket: ") + std::strerror(errno));
    struct sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    if (Opts.UnixPath.size() >= sizeof(Addr.sun_path))
      return makeError(Error::Kind::Internal,
                       "unix socket path too long: " + Opts.UnixPath);
    std::strncpy(Addr.sun_path, Opts.UnixPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    ::unlink(Opts.UnixPath.c_str()); // stale socket from a dead process
    if (::bind(ListenFd, reinterpret_cast<struct sockaddr *>(&Addr),
               sizeof(Addr)) != 0)
      return makeError(Error::Kind::Internal,
                       "bind " + Opts.UnixPath + ": " + std::strerror(errno));
  } else {
    ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return makeError(Error::Kind::Internal,
                       std::string("socket: ") + std::strerror(errno));
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    struct sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Opts.TcpPort));
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(ListenFd, reinterpret_cast<struct sockaddr *>(&Addr),
               sizeof(Addr)) != 0)
      return makeError(Error::Kind::Internal,
                       "bind 127.0.0.1:" + std::to_string(Opts.TcpPort) +
                           ": " + std::strerror(errno));
    struct sockaddr_in Bound;
    socklen_t Len = sizeof(Bound);
    if (::getsockname(ListenFd, reinterpret_cast<struct sockaddr *>(&Bound),
                      &Len) == 0)
      BoundPort = ntohs(Bound.sin_port);
  }
  if (::listen(ListenFd, 64) != 0)
    return makeError(Error::Kind::Internal,
                     std::string("listen: ") + std::strerror(errno));

  unsigned Workers = Opts.Workers ? Opts.Workers : 1;
  for (unsigned I = 0; I < Workers; ++I)
    WorkerThreads.emplace_back([this] { workerLoop(); });
  AcceptThread = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::requestDrain() {
  bool Expected = false;
  if (!Draining.compare_exchange_strong(Expected, true))
    return;
  // Wake idle connection readers: shutting the read side down turns their
  // blocked read into EOF while leaving the write side intact, so
  // in-flight responses still go out.
  std::lock_guard<std::mutex> Lock(ConnMu);
  for (auto &W : Connections)
    if (ConnectionRef C = W.lock())
      ::shutdown(C->Fd, SHUT_RD);
  QueueCv.notify_all();
}

void Server::stop(int64_t GraceMillis) {
  if (Stopping.load() && !AcceptThread.joinable())
    return; // already stopped
  requestDrain();

  // Let the workers finish (or deadline-fail) everything admitted before
  // the drain, up to the grace deadline.
  int64_t GraceAt = nowMillis() + (GraceMillis < 0 ? 0 : GraceMillis);
  {
    std::unique_lock<std::mutex> Lock(QueueMu);
    while ((!Queue.empty() || RunningJobs > 0) && nowMillis() < GraceAt)
      QueueCv.wait_for(Lock, std::chrono::milliseconds(50));
  }

  Stopping.store(true);
  QueueCv.notify_all();

  // Anything still queued when the grace ran out is answered honestly:
  // the daemon is going down, the job did not run.
  std::vector<QueuedJob> Abandoned;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    for (auto &E : Queue)
      Abandoned.push_back(std::move(E.second));
    Queue.clear();
  }
  for (QueuedJob &J : Abandoned) {
    Json R = Json::object();
    R.set("id", J.Id).set("ok", false).set("status", "shutdown");
    respond(J.Conn, std::move(R));
    --J.Conn->InFlight;
    recordDone(J.Client + "|" + J.Id, "shutdown");
    Admission.release(J.Client);
  }

  for (std::thread &T : WorkerThreads)
    if (T.joinable())
      T.join();
  WorkerThreads.clear();
  if (AcceptThread.joinable())
    AcceptThread.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
    if (!Opts.UnixPath.empty())
      ::unlink(Opts.UnixPath.c_str());
  }

  // Fully shut the connections so their reader threads unwind, then join.
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (auto &W : Connections)
      if (ConnectionRef C = W.lock())
        ::shutdown(C->Fd, SHUT_RDWR);
  }
  std::vector<std::thread> Threads;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    Threads.swap(ConnThreads);
    Connections.clear();
  }
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();

  {
    std::lock_guard<std::mutex> Lock(JournalMu);
    if (JournalFd >= 0) {
      ::close(JournalFd);
      JournalFd = -1;
    }
  }
}

//===----------------------------------------------------------------------===//
// Accept + connection loops
//===----------------------------------------------------------------------===//

void Server::acceptLoop() {
  while (!Draining.load() && !Stopping.load()) {
    struct pollfd PFD = {ListenFd, POLLIN, 0};
    int PR = ::poll(&PFD, 1, 200);
    if (PR < 0 && errno != EINTR)
      break;
    if (PR <= 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    auto C = std::make_shared<Connection>();
    C->Fd = Fd;
    {
      std::lock_guard<std::mutex> Lock(ConnMu);
      if (Draining.load()) {
        // Raced with a drain: refuse politely instead of serving.
        Json R = Json::object();
        R.set("ok", false).set("status", "draining");
        writeFrame(Fd, R.dump());
        ::close(Fd);
        continue;
      }
      Connections.push_back(C);
      ConnThreads.emplace_back([this, C] { connectionLoop(C); });
    }
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++TheStats.Connections;
    }
  }
}

void Server::connectionLoop(ConnectionRef C) {
  int IdleMillis = Opts.IdleTimeoutMillis;
  for (;;) {
    FrameResult F = readFrame(C->Fd, IdleMillis, Opts.FrameTimeoutMillis);
    IdleMillis = Opts.IdleTimeoutMillis;
    if (F.Status == FrameStatus::IdleTimeout) {
      if (C->InFlight.load() > 0)
        continue; // quiet because it awaits our answer, not gone
      int64_t Quiet = nowMillis() - C->LastReplyMillis.load();
      if (Quiet < IdleMillis) {
        IdleMillis -= static_cast<int>(Quiet);
        continue;
      }
    }
    if (F.Status == FrameStatus::Eof || F.Status == FrameStatus::IdleTimeout)
      break; // clean hangup, or the peer went quiet: just close
    if (!F.ok()) {
      // Mid-frame disconnects, slow-loris timeouts, oversized frames,
      // socket errors: report once if the peer can still hear us, then
      // hang up. Only this connection is affected.
      {
        std::lock_guard<std::mutex> Lock(StatsMu);
        ++TheStats.ProtocolErrors;
      }
      Json R = Json::object();
      R.set("ok", false)
          .set("status", "protocol-error")
          .set("error", std::string(frameStatusName(F.Status)) +
                            (F.Detail.empty() ? "" : ": " + F.Detail));
      respond(C, std::move(R));
      break;
    }
    Expected<Json> Req = Json::parse(F.Payload);
    if (!Req || !Req->isObject()) {
      {
        std::lock_guard<std::mutex> Lock(StatsMu);
        ++TheStats.ProtocolErrors;
      }
      Json R = Json::object();
      R.set("ok", false)
          .set("status", "bad-request")
          .set("error", Req ? "request is not a JSON object"
                            : Req.error().message());
      respond(C, std::move(R));
      continue; // framing is intact; the connection can carry on
    }
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++TheStats.Requests;
    }
    handleRequest(C, std::move(*Req));
  }
  // Only the read side: jobs this connection queued may still be running,
  // and their responses go out on the write side (a drain wakes every
  // reader with EOF precisely so the connection can be answered out). The
  // fd itself closes when the last QueuedJob reference drops.
  ::shutdown(C->Fd, SHUT_RD);
}

//===----------------------------------------------------------------------===//
// Request dispatch
//===----------------------------------------------------------------------===//

void Server::respond(const ConnectionRef &C, Json Response) {
  std::lock_guard<std::mutex> Lock(C->WriteMu);
  FrameResult W = writeFrame(C->Fd, Response.dump());
  C->LastReplyMillis = nowMillis();
  std::lock_guard<std::mutex> SLock(StatsMu);
  if (W.ok())
    ++TheStats.Responses;
  // A dead peer (EPIPE) is not an error worth counting: the client
  // vanished, its poll after reconnecting will resolve the job.
}

void Server::handleRequest(ConnectionRef C, Json Request) {
  std::string Op = Request.getString("op");
  std::string Id = Request.getString("id");
  std::string Client = Request.getString("client", C->client());
  if (Client.empty())
    Client = "anon";

  if (Op == "hello") {
    C->setClient(Request.getString("client", "anon"));
    Json R = Json::object();
    R.set("ok", true)
        .set("proto", 1)
        .set("server", "exocc-serve")
        .set("pid", static_cast<int64_t>(::getpid()));
    respond(C, std::move(R));
    return;
  }
  if (Op == "stats") {
    Json R = makeStats();
    R.set("ok", true);
    if (!Id.empty())
      R.set("id", Id);
    respond(C, std::move(R));
    return;
  }
  if (Op == "poll") {
    respond(C, handlePoll(Request, Client));
    return;
  }
  if (Op == "drain") {
    Json R = Json::object();
    R.set("ok", true).set("status", "draining");
    respond(C, std::move(R));
    requestDrain();
    return;
  }
  if (Op == "crash") {
    if (!Opts.AllowCrashOp) {
      Json R = Json::object();
      R.set("ok", false).set("status", "forbidden");
      respond(C, std::move(R));
      return;
    }
    // Simulated worker crash for the supervisor/soak tests: die without
    // answering, leaving started-but-unfinished journal entries behind.
    std::fflush(nullptr);
    ::_exit(42);
  }

  if (Op != "compile" && Op != "oracle") {
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++TheStats.ProtocolErrors;
    }
    Json R = Json::object();
    R.set("ok", false)
        .set("status", "bad-request")
        .set("error", "unknown op '" + Op + "'");
    if (!Id.empty())
      R.set("id", Id);
    respond(C, std::move(R));
    return;
  }

  // Work ops: admission first, before any expensive state is touched.
  int64_t Now = nowMillis();
  if (Draining.load()) {
    Json R = Json::object();
    R.set("id", Id).set("ok", false).set("status", "draining");
    respond(C, std::move(R));
    return;
  }
  AdmitDecision D = Admission.tryAdmit(Client, Now);
  if (D != AdmitDecision::Admit) {
    Json R = Json::object();
    R.set("id", Id).set("ok", false).set("status", admitDecisionName(D));
    if (D == AdmitDecision::RateLimited)
      R.set("retry_after_ms", Admission.retryAfterMillis(Client, Now));
    respond(C, std::move(R));
    return;
  }

  // 0 / absent means the server default; an explicitly negative deadline
  // is honored as already expired (the job is admitted, then shed at
  // dequeue — the knob tests and load generators use to drive the
  // expired-in-queue path deterministically).
  int64_t DeadlineMs = Request.getInt("deadline_ms", 0);
  if (DeadlineMs == 0)
    DeadlineMs = Opts.DefaultDeadlineMillis;

  QueuedJob J;
  J.Request = std::move(Request);
  J.Conn = std::move(C);
  J.Client = Client;
  J.Id = Id;
  J.AdmittedAtMillis = Now;
  J.DeadlineAtMillis = Now + DeadlineMs;

  journalAppend('S', Client + "|" + Id);
  ++J.Conn->InFlight;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Queue.emplace(J.DeadlineAtMillis, std::move(J));
  }
  QueueCv.notify_one();
}

//===----------------------------------------------------------------------===//
// Workers
//===----------------------------------------------------------------------===//

void Server::workerLoop() {
  for (;;) {
    QueuedJob J;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock, [this] { return !Queue.empty() || Stopping.load(); });
      if (Queue.empty()) {
        if (Stopping.load())
          return;
        continue;
      }
      auto It = Queue.begin(); // earliest deadline first
      J = std::move(It->second);
      Queue.erase(It);
      ++RunningJobs;
    }
    runJob(J);
    // Between-job cache hygiene: compiles intern terms under fresh
    // variable ids, so cross-job sharing is zero and the interner only
    // ever grows. Trimming once it passes the budget is what keeps a
    // long-lived daemon's per-compile cost flat (see ServerOptions).
    if (Opts.TermTrimThreshold &&
        smt::termInternerStats().Live > Opts.TermTrimThreshold) {
      smt::clearTermInterner();
#ifdef __GLIBC__
      // The flush frees ~10k heterogeneous chunks in one burst; without
      // consolidating, the next compile allocates through the resulting
      // free-list churn and pays a measured ~35% spike (the bounded
      // warm-compile oscillation — see DESIGN.md, "Between-job cache
      // hygiene"). malloc_trim coalesces the arenas while the worker is
      // idle anyway, cutting the spike to ~10%.
      malloc_trim(0);
#endif
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++TheStats.TermTrims;
    }
    {
      std::lock_guard<std::mutex> Lock(QueueMu);
      --RunningJobs;
    }
    QueueCv.notify_all(); // stop() waits for the queue to truly drain
  }
}

void Server::runJob(const QueuedJob &J) {
  std::string Key = J.Client + "|" + J.Id;
  int64_t Now = nowMillis();

  Json R;
  if (Now >= J.DeadlineAtMillis) {
    // The deadline passed while the job sat in the queue: running it now
    // serves no one, and under overload skipping it is what lets the
    // queue catch back up.
    R = Json::object();
    R.set("id", J.Id).set("ok", false).set("status", "deadline");
    {
      std::lock_guard<std::mutex> Lock(StatsMu);
      ++TheStats.DeadlineExpiredInQueue;
    }
    recordDone(Key, "deadline");
  } else {
    std::string Op = J.Request.getString("op");
    R = Op == "oracle" ? runOracle(J) : runCompile(J);
    recordDone(Key, R.getString("status", "?"));
  }
  respond(J.Conn, std::move(R));
  --J.Conn->InFlight;
  journalAppend('D', Key);
  Admission.release(J.Client);
}

Json Server::runCompile(const QueuedJob &J) {
  Json R = Json::object();
  R.set("id", J.Id);

  driver::CompileJob Job;
  std::string Kernel = J.Request.getString("kernel");
  int64_t FuzzSeed = J.Request.getInt("fuzz_seed", -1);
  if (!Kernel.empty()) {
    bool Found = false;
    for (driver::CompileJob &K : driver::standardKernelSuite())
      if (K.Name == Kernel) {
        Job = std::move(K);
        Found = true;
        break;
      }
    if (!Found) {
      R.set("ok", false)
          .set("status", "failed")
          .set("error", "unknown kernel '" + Kernel + "'");
      return R;
    }
  } else if (FuzzSeed >= 0) {
    uint64_t S = static_cast<uint64_t>(FuzzSeed);
    Job.Name = "fuzz_p" + std::to_string(S);
    Job.Build = [S]() -> Expected<std::vector<ir::ProcRef>> {
      auto G = testing::generateProgram(S);
      if (!G)
        return G.error();
      testing::Rng Rn(S * 7919 + 104730);
      return std::vector<ir::ProcRef>{
          testing::generateSchedule(G->Proc, Rn).Scheduled};
    };
    Job.BuildReference = [S]() -> Expected<std::vector<ir::ProcRef>> {
      auto G = testing::generateProgram(S);
      if (!G)
        return G.error();
      return std::vector<ir::ProcRef>{G->Proc};
    };
  } else {
    R.set("ok", false)
        .set("status", "failed")
        .set("error", "compile needs 'kernel' or 'fuzz_seed'");
    return R;
  }

  driver::SessionOptions SO;
  SO.Tenant = J.Client;
  SO.DeadlineMillis = J.DeadlineAtMillis - nowMillis();
  if (SO.DeadlineMillis < 1)
    SO.DeadlineMillis = 1;
  SO.MaxRetries = 1;
  SO.FallbackReference = J.Request.getBool("fallback", false);
  if (Opts.MaxLiterals)
    SO.MaxLiterals = Opts.MaxLiterals;

  driver::JobResult Res = driver::CompileSession(SO).run(Job);

  R.set("ok", Res.Ok)
      .set("status",
           Res.Ok ? (Res.Degraded ? "degraded" : "ok") : "failed")
      .set("kernel", Job.Name)
      .set("wall_ms", Res.WallMillis)
      .set("solver_queries", Res.SolverQueries);
  if (Res.Ok)
    R.set("fingerprint", fingerprint(Res.Output))
        .set("output_bytes", static_cast<int64_t>(Res.Output.size()));
  if (!Res.ErrorKind.empty())
    R.set("error_kind", Res.ErrorKind).set("error", Res.ErrorMessage);
  if (Res.DeadlineMiss)
    R.set("deadline_miss", true);

  std::lock_guard<std::mutex> Lock(StatsMu);
  if (!Res.Ok)
    ++TheStats.CompilesFailed;
  else if (Res.Degraded)
    ++TheStats.CompilesDegraded;
  else
    ++TheStats.CompilesOk;
  return R;
}

Json Server::runOracle(const QueuedJob &J) {
  Json R = Json::object();
  R.set("id", J.Id);

  uint64_t Seed = static_cast<uint64_t>(J.Request.getInt("seed", 1));
  auto G = testing::generateProgram(Seed);
  if (!G) {
    R.set("ok", false).set("status", "failed").set("error",
                                                   G.error().message());
    return R;
  }
  testing::Rng Rn(Seed * 7919 + 104730);
  testing::OracleCase Case;
  Case.Reference = G->Proc;
  Case.Scheduled = testing::generateSchedule(G->Proc, Rn).Scheduled;
  Case.Args = G->Args;
  Case.InputSeed = Seed;

  // The breaker decides which execution backend runs pipeline 3. An Open
  // breaker routes straight to the child-process csource harness; a
  // Closed (or probing HalfOpen) one uses the in-process JIT and reports
  // the outcome back.
  int64_t Now = nowMillis();
  bool UseJit = Breaker.allow(Now);

  // Server-side trap injection: the soak harness trips the breaker by
  // making the "JIT" fail here, deterministically, without having to
  // craft genuinely trapping modules.
  support::FaultInjector &FI = support::FaultInjector::instance();
  if (UseJit && FI.enabled() &&
      FI.shouldFire(support::Fault::RuntimeTrap)) {
    Breaker.onFailure(nowMillis());
    UseJit = false; // fall back for this request, like a real trap would
  }

  testing::OracleOptions OO;
  OO.Backend = UseJit ? "jit" : "csource";
  if (!UseJit) {
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++TheStats.OracleFallbacks;
  }

  support::Deadline D =
      support::Deadline::afterMillis(J.DeadlineAtMillis - nowMillis());
  support::ScopedDeadline Scope(D);

  Expected<testing::OracleOutcome> Out = testing::runOracle(Case, OO);
  if (!Out) {
    if (UseJit)
      Breaker.onFailure(nowMillis());
    R.set("ok", false).set("status", "failed").set("error",
                                                   Out.error().message());
    std::lock_guard<std::mutex> Lock(StatsMu);
    ++TheStats.OraclesDisagree;
    return R;
  }

  if (UseJit) {
    // Divergences are the *program's* fault, not the backend's: only
    // harness-level execution failures count against the JIT.
    bool BackendFailure = Out->Status == testing::OracleStatus::CompileError ||
                          Out->Status == testing::OracleStatus::RunError;
    if (BackendFailure)
      Breaker.onFailure(nowMillis());
    else
      Breaker.onSuccess(nowMillis());
  }

  R.set("ok", Out->ok())
      .set("status", testing::oracleStatusName(Out->Status))
      .set("backend", OO.Backend)
      .set("seed", Seed);
  if (!Out->Detail.empty())
    R.set("detail", Out->Detail);

  std::lock_guard<std::mutex> Lock(StatsMu);
  if (Out->ok())
    ++TheStats.OraclesAgree;
  else
    ++TheStats.OraclesDisagree;
  return R;
}

//===----------------------------------------------------------------------===//
// Poll + stats
//===----------------------------------------------------------------------===//

Json Server::handlePoll(const Json &Request, const std::string &Client) {
  Json R = Json::object();
  R.set("ok", true);
  Json Results = Json::object();
  const Json *Ids = Request.get("ids");
  if (Ids && Ids->isArray()) {
    for (const Json &IdV : Ids->items()) {
      std::string Id = IdV.asString();
      std::string Key = Client + "|" + Id;
      std::string Status;
      {
        std::lock_guard<std::mutex> Lock(JournalMu);
        auto DoneIt = Done.find(Key);
        if (DoneIt != Done.end()) {
          Status = DoneIt->second;
        } else if (Lost.count(Key)) {
          // The previous incarnation started this job and died with it in
          // flight: the one answer a crash allows.
          Status = "worker-crash";
          Lost.erase(Key);
        }
      }
      if (Status == "worker-crash") {
        recordDone(Key, Status);
        std::lock_guard<std::mutex> Lock(StatsMu);
        ++TheStats.WorkerCrashReplays;
      }
      if (Status.empty()) {
        // Admitted but not finished? It is still pending; otherwise the
        // daemon has never heard of it.
        bool Pending = false;
        {
          std::lock_guard<std::mutex> Lock(QueueMu);
          for (const auto &E : Queue)
            if (E.second.Client == Client && E.second.Id == Id) {
              Pending = true;
              break;
            }
        }
        Status = Pending ? "pending" : "unknown";
      }
      Results.set(Id, Status);
    }
  }
  R.set("results", std::move(Results));
  return R;
}

Json Server::makeStats() const { return statsJson(); }

Json Server::statsJson() const {
  Json R = Json::object();

  {
    std::lock_guard<std::mutex> Lock(StatsMu);
    Json S = Json::object();
    S.set("connections", TheStats.Connections)
        .set("requests", TheStats.Requests)
        .set("responses", TheStats.Responses)
        .set("protocol_errors", TheStats.ProtocolErrors)
        .set("compiles_ok", TheStats.CompilesOk)
        .set("compiles_failed", TheStats.CompilesFailed)
        .set("compiles_degraded", TheStats.CompilesDegraded)
        .set("oracles_agree", TheStats.OraclesAgree)
        .set("oracles_disagree", TheStats.OraclesDisagree)
        .set("oracle_fallbacks", TheStats.OracleFallbacks)
        .set("deadline_expired_in_queue", TheStats.DeadlineExpiredInQueue)
        .set("worker_crash_replays", TheStats.WorkerCrashReplays)
        .set("term_trims", TheStats.TermTrims);
    R.set("server", std::move(S));
  }

  {
    AdmissionStats A = Admission.stats();
    Json S = Json::object();
    S.set("admitted", A.Admitted)
        .set("rate_limited", A.RateLimited)
        .set("client_queue_full", A.ClientQueueFull)
        .set("shed", A.Shed)
        .set("in_flight", static_cast<int64_t>(Admission.globalInFlight()));
    R.set("admission", std::move(S));
  }

  {
    BreakerStats B = Breaker.stats();
    Json S = Json::object();
    S.set("state", breakerStateName(Breaker.state()))
        .set("trips", B.Trips)
        .set("recoveries", B.Recoveries)
        .set("short_circuits", B.ShortCircuits)
        .set("probes", B.Probes);
    R.set("breaker", std::move(S));
  }

  {
    smt::Solver::Stats SS = smt::solverGlobalStats();
    Json S = Json::object();
    S.set("queries", SS.NumQueries).set("unknown", SS.NumUnknown);
    R.set("solver", std::move(S));
  }

  {
    backend::JitBackend::CacheStats JS = backend::JitBackend::cacheStats();
    Json S = Json::object();
    S.set("compiles", JS.Compiles)
        .set("hits", JS.Hits)
        .set("evictions", JS.Evictions);
    R.set("jit_cache", std::move(S));
  }

  // Long-lived-process gauges: the term interner and the effect cache are
  // process-wide and survive across requests; a daemon that is slowly
  // getting slower shows up here first (live nodes climbing, hit rates
  // falling).
  {
    smt::TermInternerStats TS = smt::termInternerStats();
    Json S = Json::object();
    S.set("live", static_cast<int64_t>(TS.Live))
        .set("hits", static_cast<int64_t>(TS.Hits))
        .set("misses", static_cast<int64_t>(TS.Misses))
        .set("flushes", static_cast<int64_t>(TS.Flushes));
    R.set("term_interner", std::move(S));
  }
  {
    analysis::EffectCacheStats ES = analysis::effectCacheStats();
    Json S = Json::object();
    S.set("hits", static_cast<int64_t>(ES.Hits))
        .set("misses", static_cast<int64_t>(ES.Misses))
        .set("canon_indexed", static_cast<int64_t>(ES.CanonIndexed))
        .set("cross_compile_hits",
             static_cast<int64_t>(ES.CrossCompileHits));
    R.set("effect_cache", std::move(S));
  }
  {
    tuning::TunerProgress TP = tuning::tunerProgress();
    Json S = Json::object();
    S.set("runs_started", static_cast<int64_t>(TP.RunsStarted))
        .set("runs_finished", static_cast<int64_t>(TP.RunsFinished))
        .set("generations_done", static_cast<int64_t>(TP.GenerationsDone))
        .set("candidates_tried", static_cast<int64_t>(TP.CandidatesTried))
        .set("candidates_ok", static_cast<int64_t>(TP.CandidatesOk));
    R.set("tuner", std::move(S));
  }

  return R;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMu);
  return TheStats;
}

//===----------------------------------------------------------------------===//
// Crash journal
//===----------------------------------------------------------------------===//

void Server::loadJournal() {
  if (Opts.JournalPath.empty())
    return;
  {
    std::ifstream In(Opts.JournalPath);
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.size() < 3 || Line[1] != ' ')
        continue;
      std::string Key = Line.substr(2);
      if (Line[0] == 'S')
        Lost.insert(Key);
      else if (Line[0] == 'D')
        Lost.erase(Key);
    }
  }
  // Start this incarnation's journal fresh; the lost set carries forward
  // everything that still matters from the old one.
  JournalFd = ::open(Opts.JournalPath.c_str(),
                     O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0600);
}

void Server::journalAppend(char Tag, const std::string &Key) {
  std::lock_guard<std::mutex> Lock(JournalMu);
  if (JournalFd < 0)
    return;
  std::string Line;
  Line += Tag;
  Line += ' ';
  Line += Key;
  Line += '\n';
  // Best-effort: a full disk must not take compiles down with it.
  ssize_t W = ::write(JournalFd, Line.data(), Line.size());
  (void)W;
}

void Server::recordDone(const std::string &Key, const std::string &Status) {
  std::lock_guard<std::mutex> Lock(JournalMu);
  if (Done.emplace(Key, Status).second) {
    DoneOrder.push_back(Key);
    while (DoneOrder.size() > 4096) { // bounded: poll history, not a log
      Done.erase(DoneOrder.front());
      DoneOrder.pop_front();
    }
  }
}

std::vector<std::string> Server::lostIds() const {
  std::lock_guard<std::mutex> Lock(JournalMu);
  return std::vector<std::string>(Lost.begin(), Lost.end());
}
