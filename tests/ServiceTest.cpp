//===- tests/ServiceTest.cpp - Compile service tests -----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// The service layer under test, bottom up: the JSON value type and the
// frame codec (including the hostile-peer paths: oversized declarations,
// mid-frame EOF, slow-loris timeouts), the admission controller and the
// circuit breaker as pure state machines under injected clocks, and the
// Server end to end over real sockets — compile and oracle round trips,
// tenant-independent bit-identical outputs, load shedding, breaker
// fallback JIT -> csource with recovery, crash-journal replay, and
// graceful drain with every job reaching a terminal status exactly once.
//
//===----------------------------------------------------------------------===//

#include "service/Admission.h"
#include "service/CircuitBreaker.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "support/FaultInjector.h"
#include "support/Signals.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace exo;
using namespace exo::service;

namespace {

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

TEST(JsonTest, ScalarRoundTrip) {
  auto Check = [](const std::string &Text) {
    auto V = Json::parse(Text);
    ASSERT_TRUE(V) << Text;
    EXPECT_EQ(V->dump(), Text);
  };
  Check("null");
  Check("true");
  Check("false");
  Check("0");
  Check("-42");
  Check("123456789012345");
  Check("\"hello\"");
  Check("[]");
  Check("{}");
  Check("[1,2,3]");
  Check("{\"a\":1,\"b\":[true,null]}");
}

TEST(JsonTest, EscapesRoundTrip) {
  Json V(std::string("a\"b\\c\nd\te\x01"));
  auto Back = Json::parse(V.dump());
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->asString(), "a\"b\\c\nd\te\x01");
}

TEST(JsonTest, ObjectFieldOrderIsDeterministic) {
  Json O = Json::object();
  O.set("z", 1).set("a", 2).set("m", 3);
  EXPECT_EQ(O.dump(), "{\"z\":1,\"a\":2,\"m\":3}");
  O.set("a", 9); // update in place, not append
  EXPECT_EQ(O.dump(), "{\"z\":1,\"a\":9,\"m\":3}");
}

TEST(JsonTest, StrictParseRejectsGarbage) {
  EXPECT_FALSE(Json::parse(""));
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing"));
  EXPECT_FALSE(Json::parse("{\"a\":}"));
  EXPECT_FALSE(Json::parse("[1,]"));
  EXPECT_FALSE(Json::parse("\"unterminated"));
  EXPECT_FALSE(Json::parse("{\"a\" 1}"));
}

TEST(JsonTest, DepthGuardStopsHostileNesting) {
  std::string Deep(1000, '[');
  Deep += std::string(1000, ']');
  EXPECT_FALSE(Json::parse(Deep));
}

TEST(JsonTest, TypedAccessorsAreLenient) {
  auto V = Json::parse("{\"n\":3,\"s\":\"x\",\"b\":true,\"d\":2.5}");
  ASSERT_TRUE(V);
  EXPECT_EQ(V->getInt("n"), 3);
  EXPECT_EQ(V->getInt("missing", -1), -1);
  EXPECT_EQ(V->getInt("s", -1), -1); // wrong kind -> default
  EXPECT_EQ(V->getString("s"), "x");
  EXPECT_TRUE(V->getBool("b"));
  EXPECT_DOUBLE_EQ(V->get("d")->asDouble(), 2.5);
}

TEST(JsonTest, FingerprintIsStable) {
  EXPECT_EQ(fingerprint("abc"), fingerprint("abc"));
  EXPECT_NE(fingerprint("abc"), fingerprint("abd"));
  EXPECT_EQ(fingerprint("").size(), 16u);
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

struct SocketPair {
  int A = -1, B = -1;
  SocketPair() {
    int Fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
    A = Fds[0];
    B = Fds[1];
  }
  ~SocketPair() {
    if (A >= 0)
      ::close(A);
    if (B >= 0)
      ::close(B);
  }
};

TEST(FramingTest, RoundTrip) {
  SocketPair SP;
  std::string Payload = "{\"op\":\"hello\"}";
  ASSERT_TRUE(writeFrame(SP.A, Payload).ok());
  FrameResult R = readFrame(SP.B, 1000, 1000);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Payload, Payload);
}

TEST(FramingTest, EmptyPayloadRoundTrip) {
  SocketPair SP;
  ASSERT_TRUE(writeFrame(SP.A, "").ok());
  FrameResult R = readFrame(SP.B, 1000, 1000);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Payload, "");
}

TEST(FramingTest, CleanEofBetweenFrames) {
  SocketPair SP;
  ::close(SP.A);
  SP.A = -1;
  FrameResult R = readFrame(SP.B, 1000, 1000);
  EXPECT_EQ(R.Status, FrameStatus::Eof);
}

TEST(FramingTest, MidFrameEofIsTruncated) {
  SocketPair SP;
  // 4-byte header promising 100 bytes, then vanish.
  const unsigned char Hdr[4] = {0, 0, 0, 100};
  ASSERT_EQ(::write(SP.A, Hdr, 4), 4);
  ::close(SP.A);
  SP.A = -1;
  FrameResult R = readFrame(SP.B, 1000, 1000);
  EXPECT_EQ(R.Status, FrameStatus::TruncatedEof);
}

TEST(FramingTest, OversizedDeclarationRejectedBeforeAllocation) {
  SocketPair SP;
  const unsigned char Hdr[4] = {0xFF, 0xFF, 0xFF, 0xFF}; // ~4 GiB
  ASSERT_EQ(::write(SP.A, Hdr, 4), 4);
  FrameResult R = readFrame(SP.B, 1000, 1000);
  EXPECT_EQ(R.Status, FrameStatus::TooLarge);
}

TEST(FramingTest, IdleTimeoutBeforeFirstByte) {
  SocketPair SP;
  auto Start = std::chrono::steady_clock::now();
  FrameResult R = readFrame(SP.B, 80, 1000);
  EXPECT_EQ(R.Status, FrameStatus::IdleTimeout);
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - Start)
                .count();
  EXPECT_GE(Ms, 70);
}

TEST(FramingTest, SlowLorisHitsFrameDeadline) {
  SocketPair SP;
  std::thread Loris([&] {
    // One header byte, then silence: the frame deadline must cut it off.
    const unsigned char B = 0;
    ::write(SP.A, &B, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  });
  FrameResult R = readFrame(SP.B, 1000, 120);
  EXPECT_EQ(R.Status, FrameStatus::Timeout);
  Loris.join();
}

TEST(FramingTest, ReassemblesDribbledFrames) {
  SocketPair SP;
  std::string Payload(300, 'x');
  std::thread Writer([&] {
    std::string Buf;
    uint32_t Len = static_cast<uint32_t>(Payload.size());
    Buf += static_cast<char>((Len >> 24) & 0xFF);
    Buf += static_cast<char>((Len >> 16) & 0xFF);
    Buf += static_cast<char>((Len >> 8) & 0xFF);
    Buf += static_cast<char>(Len & 0xFF);
    Buf += Payload;
    for (char C : Buf) {
      ::write(SP.A, &C, 1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  FrameResult R = readFrame(SP.B, 2000, 5000);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Payload, Payload);
  Writer.join();
}

TEST(FramingTest, FaultInjectingWriterDisconnectsMidFrame) {
  support::FaultInjector::instance().configure("sock-disconnect", 7).take();
  SocketPair SP;
  FrameResult W = clientWriteFrame(SP.A, std::string(64, 'y'));
  EXPECT_EQ(W.Status, FrameStatus::TruncatedEof);
  FrameResult R = readFrame(SP.B, 1000, 1000);
  EXPECT_EQ(R.Status, FrameStatus::TruncatedEof);
  support::FaultInjector::instance().reset();
}

TEST(FramingTest, WriteToDeadPeerIsErrorNotDeath) {
  support::ignoreSigpipe();
  SocketPair SP;
  ::close(SP.B);
  SP.B = -1;
  // Large enough to defeat kernel buffering on the first write.
  std::string Big(1 << 20, 'z');
  FrameResult W1 = writeFrame(SP.A, Big);
  FrameResult W2 = writeFrame(SP.A, Big);
  // At least the second write must observe the dead peer; the process
  // must be alive to check (SIGPIPE would have killed it here).
  EXPECT_TRUE(!W1.ok() || !W2.ok());
}

//===----------------------------------------------------------------------===//
// Admission
//===----------------------------------------------------------------------===//

TEST(AdmissionTest, TokenBucketRefillsAtConfiguredRate) {
  AdmissionOptions O;
  O.TokensPerSecond = 10; // one token per 100 ms
  O.BurstTokens = 2;
  O.MaxPerClient = 100;
  O.MaxGlobal = 100;
  AdmissionController A(O);

  // The burst admits 2, then the bucket is dry.
  EXPECT_EQ(A.tryAdmit("t", 0), AdmitDecision::Admit);
  EXPECT_EQ(A.tryAdmit("t", 0), AdmitDecision::Admit);
  EXPECT_EQ(A.tryAdmit("t", 0), AdmitDecision::RateLimited);
  EXPECT_GT(A.retryAfterMillis("t", 0), 0);

  // 100 ms later exactly one token has dripped in.
  EXPECT_EQ(A.tryAdmit("t", 100), AdmitDecision::Admit);
  EXPECT_EQ(A.tryAdmit("t", 100), AdmitDecision::RateLimited);

  // Refill caps at the burst size no matter how long the idle gap.
  EXPECT_EQ(A.tryAdmit("t", 100000), AdmitDecision::Admit);
  EXPECT_EQ(A.tryAdmit("t", 100000), AdmitDecision::Admit);
  EXPECT_EQ(A.tryAdmit("t", 100000), AdmitDecision::RateLimited);

  AdmissionStats S = A.stats();
  EXPECT_EQ(S.Admitted, 5u);
  EXPECT_EQ(S.RateLimited, 3u);
}

TEST(AdmissionTest, PerClientCapIsIndependentOfRate) {
  AdmissionOptions O;
  O.TokensPerSecond = 0; // rate gate off
  O.MaxPerClient = 2;
  O.MaxGlobal = 100;
  AdmissionController A(O);

  EXPECT_EQ(A.tryAdmit("a", 0), AdmitDecision::Admit);
  EXPECT_EQ(A.tryAdmit("a", 0), AdmitDecision::Admit);
  EXPECT_EQ(A.tryAdmit("a", 0), AdmitDecision::ClientQueueFull);
  // Another tenant is unaffected.
  EXPECT_EQ(A.tryAdmit("b", 0), AdmitDecision::Admit);
  // Finishing a job frees a slot.
  A.release("a");
  EXPECT_EQ(A.tryAdmit("a", 0), AdmitDecision::Admit);
}

TEST(AdmissionTest, GlobalCapShedsAcrossClients) {
  AdmissionOptions O;
  O.TokensPerSecond = 0;
  O.MaxPerClient = 10;
  O.MaxGlobal = 3;
  AdmissionController A(O);

  EXPECT_EQ(A.tryAdmit("a", 0), AdmitDecision::Admit);
  EXPECT_EQ(A.tryAdmit("b", 0), AdmitDecision::Admit);
  EXPECT_EQ(A.tryAdmit("c", 0), AdmitDecision::Admit);
  EXPECT_EQ(A.tryAdmit("d", 0), AdmitDecision::Overloaded);
  EXPECT_EQ(A.stats().Shed, 1u);
  EXPECT_EQ(A.globalInFlight(), 3u);
  A.release("b");
  EXPECT_EQ(A.tryAdmit("d", 0), AdmitDecision::Admit);
}

//===----------------------------------------------------------------------===//
// Circuit breaker
//===----------------------------------------------------------------------===//

TEST(BreakerTest, TripsAfterConsecutiveFailures) {
  BreakerOptions O;
  O.FailureThreshold = 3;
  CircuitBreaker B(O);

  EXPECT_TRUE(B.allow(0));
  B.onFailure(0);
  B.onFailure(0);
  EXPECT_EQ(B.state(), BreakerState::Closed);
  // A success in Closed resets the consecutive count.
  B.onSuccess(0);
  B.onFailure(0);
  B.onFailure(0);
  EXPECT_EQ(B.state(), BreakerState::Closed);
  B.onFailure(0);
  EXPECT_EQ(B.state(), BreakerState::Open);
  EXPECT_FALSE(B.allow(0));
  EXPECT_EQ(B.stats().Trips, 1u);
  EXPECT_GE(B.stats().ShortCircuits, 1u);
}

TEST(BreakerTest, HalfOpenProbeRecoversAndResetsBackoff) {
  BreakerOptions O;
  O.FailureThreshold = 1;
  O.SuccessThreshold = 2;
  O.InitialBackoffMillis = 100;
  CircuitBreaker B(O);

  B.onFailure(0);
  EXPECT_EQ(B.state(), BreakerState::Open);
  EXPECT_FALSE(B.allow(50));  // backoff not elapsed
  EXPECT_TRUE(B.allow(100));  // first probe
  EXPECT_EQ(B.state(), BreakerState::HalfOpen);
  EXPECT_FALSE(B.allow(100)); // one probe at a time
  B.onSuccess(100);
  EXPECT_TRUE(B.allow(101)); // second probe
  B.onSuccess(101);
  EXPECT_EQ(B.state(), BreakerState::Closed);
  EXPECT_EQ(B.stats().Recoveries, 1u);
  EXPECT_EQ(B.currentBackoffMillis(), 0); // full recovery resets it
}

TEST(BreakerTest, FailedProbeGrowsBackoffGeometrically) {
  BreakerOptions O;
  O.FailureThreshold = 1;
  O.InitialBackoffMillis = 100;
  O.BackoffFactor = 2.0;
  O.MaxBackoffMillis = 350;
  CircuitBreaker B(O);

  B.onFailure(0);
  EXPECT_EQ(B.currentBackoffMillis(), 100);
  EXPECT_TRUE(B.allow(100)); // probe
  B.onFailure(100);          // probe fails
  EXPECT_EQ(B.state(), BreakerState::Open);
  EXPECT_EQ(B.currentBackoffMillis(), 200);
  EXPECT_FALSE(B.allow(250)); // 100 + 200 = 300 not reached
  EXPECT_TRUE(B.allow(300));
  B.onFailure(300);
  EXPECT_EQ(B.currentBackoffMillis(), 350); // capped
  EXPECT_EQ(B.stats().Trips, 3u);
}

//===----------------------------------------------------------------------===//
// Server end to end
//===----------------------------------------------------------------------===//

ServerOptions testServerOptions() {
  ServerOptions O;
  O.TcpPort = 0; // ephemeral
  O.Workers = 2;
  O.DefaultDeadlineMillis = 60000;
  O.IdleTimeoutMillis = 10000;
  O.FrameTimeoutMillis = 5000;
  O.Admission.TokensPerSecond = 0; // rate gate off unless a test wants it
  O.Admission.MaxPerClient = 64;
  O.Admission.MaxGlobal = 64;
  return O;
}

Json callOk(ClientConnection &C, const Json &Req, int TimeoutMillis = 60000) {
  auto R = C.call(Req, TimeoutMillis);
  EXPECT_TRUE(R) << (R ? "" : R.error().message());
  return R ? *R : Json();
}

TEST(ServerTest, HelloCompileOracleStatsRoundTrip) {
  Server S(testServerOptions());
  ASSERT_TRUE(S.start());
  auto C = ClientConnection::connectTcp(S.port());
  ASSERT_TRUE(C);

  Json Hello = Json::object();
  Hello.set("op", "hello").set("client", "t1");
  EXPECT_TRUE(callOk(*C, Hello).getBool("ok"));

  Json Compile = Json::object();
  Compile.set("op", "compile").set("id", "j1").set("kernel",
                                                   "fig5a_sgemm_square");
  Json R = callOk(*C, Compile);
  EXPECT_EQ(R.getString("status"), "ok") << R.dump();
  EXPECT_EQ(R.getString("id"), "j1");
  EXPECT_EQ(R.getString("fingerprint").size(), 16u);

  Json Oracle = Json::object();
  Oracle.set("op", "oracle").set("id", "j2").set("seed", 3);
  Json OR = callOk(*C, Oracle);
  EXPECT_TRUE(OR.get("status") != nullptr);
  EXPECT_EQ(OR.getString("backend"), "jit");

  Json Stats = Json::object();
  Stats.set("op", "stats");
  Json SR = callOk(*C, Stats);
  ASSERT_TRUE(SR.get("server") != nullptr);
  EXPECT_GE(SR.get("server")->getInt("requests"), 3);
  ASSERT_TRUE(SR.get("breaker") != nullptr);
  EXPECT_EQ(SR.get("breaker")->getString("state"), "closed");
  ASSERT_TRUE(SR.get("jit_cache") != nullptr);

  S.stop();
}

TEST(ServerTest, OutputsAreBitIdenticalAcrossTenants) {
  Server S(testServerOptions());
  ASSERT_TRUE(S.start());

  auto CompileAs = [&](const std::string &Tenant) {
    auto C = ClientConnection::connectTcp(S.port());
    EXPECT_TRUE(C);
    Json H = Json::object();
    H.set("op", "hello").set("client", Tenant);
    callOk(*C, H);
    Json Req = Json::object();
    Req.set("op", "compile").set("id", "x").set("kernel", "amx_matmul");
    Json R = callOk(*C, Req);
    EXPECT_EQ(R.getString("status"), "ok") << R.dump();
    return R.getString("fingerprint");
  };

  std::string FpA = CompileAs("tenant-a");
  std::string FpB = CompileAs("tenant-b");
  EXPECT_FALSE(FpA.empty());
  // Same kernel, different tenants: the C must match bit for bit even
  // though the compiled-artifact caches are salted apart.
  EXPECT_EQ(FpA, FpB);

  S.stop();
}

TEST(ServerTest, UnknownOpsAndBadJsonAnswerWithoutKillingConnection) {
  Server S(testServerOptions());
  ASSERT_TRUE(S.start());
  auto C = ClientConnection::connectTcp(S.port());
  ASSERT_TRUE(C);

  Json Bad = Json::object();
  Bad.set("op", "frobnicate");
  Json R = callOk(*C, Bad);
  EXPECT_EQ(R.getString("status"), "bad-request");

  // Raw garbage in a valid frame: the server answers and keeps the
  // connection usable for the next (valid) request.
  ASSERT_TRUE(writeFrame(C->fd(), "not json at all").ok());
  FrameResult FR = C->receive(5000);
  ASSERT_TRUE(FR.ok());
  auto Parsed = Json::parse(FR.Payload);
  ASSERT_TRUE(Parsed);
  EXPECT_EQ(Parsed->getString("status"), "bad-request");

  Json Stats = Json::object();
  Stats.set("op", "stats");
  Json SR = callOk(*C, Stats);
  EXPECT_GE(SR.get("server")->getInt("protocol_errors"), 1);

  S.stop();
}

TEST(ServerTest, GlobalCapShedsWithOverloaded) {
  ServerOptions O = testServerOptions();
  O.Workers = 1;
  O.Admission.MaxPerClient = 64;
  O.Admission.MaxGlobal = 2;
  Server S(O);
  ASSERT_TRUE(S.start());
  auto C = ClientConnection::connectTcp(S.port());
  ASSERT_TRUE(C);

  // Pipeline more work than the global cap without reading replies: the
  // excess must answer "overloaded" instead of queueing without bound.
  for (int I = 0; I < 6; ++I) {
    Json Req = Json::object();
    Req.set("op", "compile")
        .set("id", "q" + std::to_string(I))
        .set("fuzz_seed", I + 1);
    ASSERT_TRUE(C->send(Req).ok());
  }
  std::map<std::string, unsigned> Statuses;
  unsigned Terminal = 0;
  for (int I = 0; I < 6; ++I) {
    FrameResult FR = C->receive(60000);
    ASSERT_TRUE(FR.ok()) << frameStatusName(FR.Status);
    auto R = Json::parse(FR.Payload);
    ASSERT_TRUE(R);
    ++Statuses[R->getString("status")];
    ++Terminal;
  }
  EXPECT_EQ(Terminal, 6u); // every request got exactly one answer
  EXPECT_GE(Statuses["overloaded"], 1u);
  EXPECT_GE(S.admissionStats().Shed, 1u);

  S.stop();
}

TEST(ServerTest, BreakerTripsJitToCsourceAndRecovers) {
  ServerOptions O = testServerOptions();
  O.Workers = 1;
  O.Breaker.FailureThreshold = 2;
  O.Breaker.SuccessThreshold = 1;
  // The backoff must outlast the csource fallback of the request that
  // trips the breaker plus the next request's dispatch, or that request
  // already finds the breaker half-open. These fallbacks take ~80 ms on
  // an idle machine, in ASan builds too; 2 s leaves room for load.
  O.Breaker.InitialBackoffMillis = 2000;
  Server S(O);
  ASSERT_TRUE(S.start());
  auto C = ClientConnection::connectTcp(S.port());
  ASSERT_TRUE(C);

  // The first two oracle requests hit injected JIT traps: each falls
  // back to csource for that request, and together they trip the
  // breaker.
  support::FaultInjector::instance().configure("runtime-trap*2", 11).take();

  auto OracleCall = [&](int Seed) {
    Json Req = Json::object();
    Req.set("op", "oracle").set("id", "o" + std::to_string(Seed))
        .set("seed", Seed);
    return callOk(*C, Req);
  };

  Json R1 = OracleCall(1);
  EXPECT_EQ(R1.getString("backend"), "csource") << R1.dump();
  Json R2 = OracleCall(2);
  // The breaker tripped while R2 was being served, so no later than now.
  auto TrippedBy = std::chrono::steady_clock::now();
  EXPECT_EQ(R2.getString("backend"), "csource");
  EXPECT_EQ(S.breakerState(), BreakerState::Open);
  EXPECT_GE(S.breakerStats().Trips, 1u);

  // While Open, requests short-circuit straight to csource.
  Json R3 = OracleCall(3);
  EXPECT_EQ(R3.getString("backend"), "csource");

  // After the backoff the half-open probe runs on the JIT again; the
  // injected faults are exhausted (*2), so it succeeds and the breaker
  // closes.
  std::this_thread::sleep_until(
      TrippedBy +
      std::chrono::milliseconds(O.Breaker.InitialBackoffMillis + 50));
  Json R4 = OracleCall(4);
  EXPECT_EQ(R4.getString("backend"), "jit") << R4.dump();
  EXPECT_EQ(S.breakerState(), BreakerState::Closed);
  EXPECT_GE(S.breakerStats().Recoveries, 1u);

  support::FaultInjector::instance().reset();
  S.stop();
}

TEST(ServerTest, SlowJobKeepsItsConnectionPastTheIdleDeadline) {
  // A client waiting for its own job is not idle: the idle deadline must
  // not close the connection under a job that outlasts it, or the next
  // request on the connection is reset.
  ServerOptions O = testServerOptions();
  O.IdleTimeoutMillis = 300;
  Server S(O);
  ASSERT_TRUE(S.start());
  auto C = ClientConnection::connectTcp(S.port());
  ASSERT_TRUE(C);

  // The injected solver timeout holds the compile until its 1500 ms
  // deadline, five idle deadlines long.
  support::FaultInjector::instance().configure("solver-timeout*1", 5).take();
  Json Slow = Json::object();
  Slow.set("op", "compile")
      .set("id", "slow")
      .set("kernel", "fig4a_gemmini_matmul")
      .set("deadline_ms", 1500);
  Json R = callOk(*C, Slow);
  EXPECT_EQ(R.getString("id"), "slow") << R.dump();
  support::FaultInjector::instance().reset();

  Json Stats = Json::object();
  Stats.set("op", "stats");
  EXPECT_TRUE(callOk(*C, Stats).getBool("ok"));
  S.stop();
}

TEST(ServerTest, CrashJournalReplaysLostIdsAsWorkerCrash) {
  // Simulate the previous incarnation: it started j1 and j2, finished
  // only j2, then died.
  std::string Journal =
      std::string(::getenv("TMPDIR") ? ::getenv("TMPDIR") : "/tmp") +
      "/exo_service_test_journal_" + std::to_string(::getpid());
  {
    std::FILE *F = std::fopen(Journal.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs("S t1|j1\nS t1|j2\nD t1|j2\n", F);
    std::fclose(F);
  }

  ServerOptions O = testServerOptions();
  O.JournalPath = Journal;
  Server S(O);
  ASSERT_TRUE(S.start());
  ASSERT_EQ(S.lostIds().size(), 1u);
  EXPECT_EQ(S.lostIds()[0], "t1|j1");

  auto C = ClientConnection::connectTcp(S.port());
  ASSERT_TRUE(C);
  Json H = Json::object();
  H.set("op", "hello").set("client", "t1");
  callOk(*C, H);

  Json P = Json::object();
  P.set("op", "poll");
  Json Ids = Json::array();
  Ids.push("j1");
  Ids.push("j2");
  Ids.push("j3");
  P.set("ids", std::move(Ids));
  Json R = callOk(*C, P);
  const Json *Results = R.get("results");
  ASSERT_NE(Results, nullptr);
  // j1 was in flight when the worker died: the crash contract's answer.
  EXPECT_EQ(Results->getString("j1"), "worker-crash");
  // j2 finished before the crash (journal D line): not lost, and this
  // incarnation never ran it, so it reports unknown.
  EXPECT_EQ(Results->getString("j2"), "unknown");
  EXPECT_EQ(Results->getString("j3"), "unknown");
  EXPECT_GE(S.stats().WorkerCrashReplays, 1u);

  // A second poll must not resurrect the id: once delivered, it is done.
  Json R2 = callOk(*C, P);
  EXPECT_EQ(R2.get("results")->getString("j1"), "worker-crash");

  S.stop();
  ::unlink(Journal.c_str());
}

TEST(ServerTest, GracefulDrainAnswersEverythingExactlyOnce) {
  ServerOptions O = testServerOptions();
  O.Workers = 2;
  Server S(O);
  ASSERT_TRUE(S.start());
  auto C = ClientConnection::connectTcp(S.port());
  ASSERT_TRUE(C);

  Json H = Json::object();
  H.set("op", "hello").set("client", "drainer");
  callOk(*C, H);

  // Queue a pile of jobs, then drain mid-stream without reading replies.
  const int N = 8;
  for (int I = 0; I < N; ++I) {
    Json Req = Json::object();
    Req.set("op", "compile")
        .set("id", "d" + std::to_string(I))
        .set("fuzz_seed", I + 1);
    ASSERT_TRUE(C->send(Req).ok());
  }
  Json Drain = Json::object();
  Drain.set("op", "drain");
  ASSERT_TRUE(C->send(Drain).ok());

  // Every admitted job plus the drain ack must produce exactly one
  // response; jobs admitted before the drain finish normally.
  std::map<std::string, unsigned> PerId;
  unsigned Frames = 0;
  while (Frames < static_cast<unsigned>(N) + 1) {
    FrameResult FR = C->receive(60000);
    if (!FR.ok())
      break; // server closed early: the count check below will say so
    auto R = Json::parse(FR.Payload);
    ASSERT_TRUE(R);
    std::string Id = R->getString("id");
    if (!Id.empty())
      ++PerId[Id];
    ++Frames;
  }
  EXPECT_EQ(Frames, static_cast<unsigned>(N) + 1);
  for (auto &E : PerId)
    EXPECT_EQ(E.second, 1u) << "duplicate terminal status for " << E.first;

  // New work after the drain is refused.
  S.stop();
  EXPECT_TRUE(S.draining());
}

TEST(ServerTest, QueuedJobsPastDeadlineAreFailedWithoutRunning) {
  ServerOptions O = testServerOptions();
  O.Workers = 1;
  Server S(O);
  ASSERT_TRUE(S.start());
  auto C = ClientConnection::connectTcp(S.port());
  ASSERT_TRUE(C);

  // One normal job, then several whose deadline has already expired when
  // they are admitted (negative deadline_ms — the deterministic handle on
  // the expired-in-queue shed path). The worker must answer the expired
  // ones "deadline" without running them, and still run the normal one.
  Json Ok = Json::object();
  Ok.set("op", "compile").set("id", "fresh").set("fuzz_seed", 1);
  ASSERT_TRUE(C->send(Ok).ok());
  const int N = 3;
  for (int I = 0; I < N; ++I) {
    Json Req = Json::object();
    Req.set("op", "compile")
        .set("id", "late" + std::to_string(I))
        .set("fuzz_seed", I + 1)
        .set("deadline_ms", -1);
    ASSERT_TRUE(C->send(Req).ok());
  }

  unsigned Deadline = 0;
  bool FreshOk = false;
  for (int I = 0; I < N + 1; ++I) {
    FrameResult FR = C->receive(60000);
    ASSERT_TRUE(FR.ok());
    auto R = Json::parse(FR.Payload);
    ASSERT_TRUE(R);
    if (R->getString("status") == "deadline")
      ++Deadline;
    if (R->getString("id") == "fresh" && R->getString("status") == "ok")
      FreshOk = true;
  }
  EXPECT_EQ(Deadline, static_cast<unsigned>(N));
  EXPECT_TRUE(FreshOk);
  EXPECT_GE(S.stats().DeadlineExpiredInQueue, static_cast<unsigned>(N));

  S.stop();
}

TEST(ServerTest, TermTrimKeepsInternerBoundedWithoutChangingOutputs) {
  // Every compile interns its terms under fresh variable ids, so a
  // long-lived daemon's interner only ever grows — and per-compile wall
  // time grows with it. The trim threshold is the fix; this pins (a) that
  // trims actually fire, (b) that the interner stays near the budget
  // instead of growing linearly with requests served, and (c) that a trim
  // between two compiles of the same kernel does not perturb the output.
  ServerOptions O = testServerOptions();
  O.Workers = 1;          // deterministic: trim check runs after every job
  O.TermTrimThreshold = 1; // any live node at all triggers a trim
  Server S(O);
  ASSERT_TRUE(S.start());
  auto C = ClientConnection::connectTcp(S.port());
  ASSERT_TRUE(C);

  const int Reps = 4;
  std::string Fp;
  for (int I = 0; I < Reps; ++I) {
    Json Req = Json::object();
    Req.set("op", "compile")
        .set("id", "r" + std::to_string(I))
        .set("kernel", "fig5a_sgemm_square");
    Json R = callOk(*C, Req);
    ASSERT_EQ(R.getString("status"), "ok") << R.dump();
    if (I == 0)
      Fp = R.getString("fingerprint");
    else
      EXPECT_EQ(R.getString("fingerprint"), Fp) << "rep " << I;
  }
  // The trim runs after the job's response is written, so the last rep's
  // trim may not have landed yet when we look.
  EXPECT_GE(S.stats().TermTrims, static_cast<uint64_t>(Reps - 1));

  // The stats op exposes the long-lived-process gauges; with trims after
  // every job, live nodes can be at most one compile's working set.
  Json StatsReq = Json::object();
  StatsReq.set("op", "stats");
  Json SR = callOk(*C, StatsReq);
  ASSERT_TRUE(SR.get("term_interner") != nullptr);
  EXPECT_TRUE(SR.get("effect_cache") == nullptr)
      << "there is no effect-summary memo to report";
  EXPECT_GE(SR.get("server")->getInt("term_trims"), Reps - 1);

  S.stop();
}

} // namespace
