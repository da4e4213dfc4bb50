//===- service/Server.h - The exocc compile service ------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived, multi-tenant compile daemon. Clients connect over a unix
/// or TCP-localhost socket and speak the length-prefixed JSON protocol of
/// Protocol.h; the daemon keeps the process-wide cache that actually pays
/// across requests (the JIT module cache) warm, and amortizes
/// process startup — a warm compile skips the work a cold exocc-batch
/// process pays on every run. The term interner is the opposite case:
/// compiles intern under fresh variable ids, so it only accumulates, and
/// the daemon *trims* it between jobs (ServerOptions::TermTrimThreshold)
/// to keep per-compile cost flat over thousands of requests.
///
/// Request schema (one JSON object per frame; responses echo "id"):
///
///   {"op":"hello","client":"tenant-a"}            bind a tenant identity
///   {"op":"compile","id":"1","kernel":"<name>"}   compile a suite kernel
///   {"op":"compile","id":"2","fuzz_seed":7}       compile a fuzzed program
///   {"op":"oracle","id":"3","seed":7}             run the triple oracle
///
/// compile/oracle requests may carry "deadline_ms" (absent/0: the server
/// default; negative: treated as already expired — admitted, then shed at
/// dequeue) and "fallback" (emit reference C when the schedule fails).
///   {"op":"poll","ids":["1","2"]}                 resolve lost job ids
///   {"op":"stats"}                                counters snapshot
///   {"op":"drain"}                                begin graceful drain
///   {"op":"crash"}                                test only: kill worker
///
/// The resilience architecture, end to end (DESIGN.md, "Service layer"):
///
///  * admission before work: every compile/oracle request passes the
///    AdmissionController; rejections answer "rate-limited" /
///    "client-queue-full" / "overloaded" immediately — load is shed at
///    the door, never absorbed as unbounded queueing;
///  * deadline-aware scheduling: admitted jobs enter an
///    earliest-deadline-first queue; a job whose deadline passed while it
///    waited is failed without running (running it cannot help anyone);
///  * a per-backend circuit breaker: repeated in-process JIT failures
///    trip oracle execution over to the child-process csource harness,
///    with half-open probes recovering the fast path once traps stop;
///  * crash accounting: a journal records every job start and completion;
///    after a worker crash, the respawned worker loads the
///    started-but-unfinished ids and answers poll requests for them with
///    "worker-crash", so no client waits forever on a dead job;
///  * graceful drain: stop accepting, wake idle readers, finish (or
///    deadline-fail) everything in flight, then flush stats.
///
/// One thread per connection reads frames; a small worker pool runs the
/// jobs and writes responses back on the requesting connection (guarded
/// by a per-connection write lock, since responses to pipelined requests
/// complete out of order).
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SERVICE_SERVER_H
#define EXO_SERVICE_SERVER_H

#include "service/Admission.h"
#include "service/CircuitBreaker.h"
#include "service/Protocol.h"
#include "support/Error.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace exo {
namespace service {

struct ServerOptions {
  /// Unix socket path; empty means TCP on 127.0.0.1.
  std::string UnixPath;
  /// TCP port when UnixPath is empty; 0 binds an ephemeral port (read it
  /// back with port()).
  int TcpPort = 0;
  /// Worker threads running admitted jobs.
  unsigned Workers = 4;
  /// Idle deadline between frames on a connection; -1 = forever.
  int IdleTimeoutMillis = 60000;
  /// Completion deadline for a started frame (the slow-loris guard).
  int FrameTimeoutMillis = 5000;
  /// Per-job deadline when the request does not carry "deadline_ms".
  int64_t DefaultDeadlineMillis = 30000;
  /// Job-start/finish journal for crash recovery; empty disables it.
  std::string JournalPath;
  /// Solver budget for compile jobs (0: solver default).
  uint64_t MaxLiterals = 0;
  /// Honor {"op":"crash"} by exiting the process mid-job. Tests and the
  /// soak harness only; never on by default.
  bool AllowCrashOp = false;
  /// Flush the process-wide term interner between jobs once its live-node
  /// count exceeds this (0 disables). Every compile interns a few thousand
  /// nodes under fresh variable ids that no later compile can ever share;
  /// without a trim a long-lived daemon accumulates them until every
  /// compile's working set is spread across a huge, cold table — measured
  /// as per-compile wall time growing near-linearly with requests served.
  /// The threshold keeps steady-state cost flat while still letting terms
  /// be shared freely *within* a job. The default is roughly one large
  /// kernel's working set: cross-job sharing is zero anyway, so trimming
  /// eagerly costs nothing but the flush itself.
  size_t TermTrimThreshold = 8192;
  AdmissionOptions Admission;
  BreakerOptions Breaker;
};

struct ServerStats {
  uint64_t Connections = 0;
  uint64_t Requests = 0;
  uint64_t Responses = 0;
  uint64_t ProtocolErrors = 0; ///< bad frames, bad JSON, unknown ops
  uint64_t CompilesOk = 0;
  uint64_t CompilesFailed = 0;
  uint64_t CompilesDegraded = 0;
  uint64_t OraclesAgree = 0;
  uint64_t OraclesDisagree = 0;
  uint64_t OracleFallbacks = 0;  ///< oracle runs routed to csource
  uint64_t DeadlineExpiredInQueue = 0;
  uint64_t WorkerCrashReplays = 0; ///< poll answers from the crash journal
  uint64_t TermTrims = 0; ///< between-job term-interner flushes
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket, loads the crash journal, spawns the accept thread
  /// and the worker pool.
  Expected<bool> start();

  /// The bound TCP port (after start(); 0 for unix sockets).
  int port() const { return BoundPort; }

  /// Begins a graceful drain: stop accepting, wake idle connection
  /// readers, let workers finish the queue. Safe to call repeatedly.
  void requestDrain();

  /// Drains (if not already draining) and joins every thread. Jobs still
  /// queued when \p GraceMillis runs out are answered "shutdown" without
  /// running.
  void stop(int64_t GraceMillis = 10000);

  bool draining() const { return Draining.load(); }

  ServerStats stats() const;
  AdmissionStats admissionStats() const { return Admission.stats(); }
  BreakerState breakerState() const { return Breaker.state(); }
  BreakerStats breakerStats() const { return Breaker.stats(); }

  /// The stats snapshot the {"op":"stats"} request answers with (also
  /// flushed to stderr on drain).
  Json statsJson() const;

  /// Ids the crash journal says were started but never finished by a
  /// previous incarnation (exposed for tests).
  std::vector<std::string> lostIds() const;

private:
  struct Connection;
  using ConnectionRef = std::shared_ptr<Connection>;

  struct QueuedJob {
    Json Request;
    ConnectionRef Conn;
    std::string Client;
    std::string Id;
    int64_t DeadlineAtMillis = 0;
    int64_t AdmittedAtMillis = 0;
  };

  void acceptLoop();
  void connectionLoop(ConnectionRef C);
  void workerLoop();

  /// Dispatches one parsed request on the connection thread; fast ops
  /// answer inline, compile/oracle pass admission and enqueue.
  void handleRequest(ConnectionRef C, Json Request);

  void runJob(const QueuedJob &J);
  Json runCompile(const QueuedJob &J);
  Json runOracle(const QueuedJob &J);
  Json makeStats() const;
  Json handlePoll(const Json &Request, const std::string &Client);

  void respond(const ConnectionRef &C, Json Response);
  void journalAppend(char Tag, const std::string &Key);
  void loadJournal();
  void recordDone(const std::string &Key, const std::string &Status);

  ServerOptions Opts;
  int ListenFd = -1;
  int BoundPort = 0;

  std::atomic<bool> Draining{false};
  std::atomic<bool> Stopping{false};

  std::thread AcceptThread;
  std::vector<std::thread> WorkerThreads;

  mutable std::mutex ConnMu;
  std::vector<std::weak_ptr<Connection>> Connections;
  std::vector<std::thread> ConnThreads;

  // The EDF job queue: keyed by absolute deadline, earliest first.
  mutable std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::multimap<int64_t, QueuedJob> Queue;
  unsigned RunningJobs = 0; // workers currently inside runJob

  AdmissionController Admission;
  CircuitBreaker Breaker;

  mutable std::mutex StatsMu;
  ServerStats TheStats;

  // Crash-recovery state: the journal fd, ids lost by the previous
  // incarnation, and a bounded record of finished jobs for poll.
  mutable std::mutex JournalMu;
  int JournalFd = -1;
  std::set<std::string> Lost;
  std::map<std::string, std::string> Done;
  std::deque<std::string> DoneOrder;
};

} // namespace service
} // namespace exo

#endif // EXO_SERVICE_SERVER_H
