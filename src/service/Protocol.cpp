//===- service/Protocol.cpp - Wire protocol of exocc-serve -----*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "support/Deadline.h"
#include "support/FaultInjector.h"
#include "support/Signals.h"
#include "support/StringExtras.h"

#include <cassert>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace exo;
using namespace exo::service;
using support::nowMillis;

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

const Json *Json::get(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &F : Obj)
    if (F.first == Key)
      return &F.second;
  return nullptr;
}

int64_t Json::getInt(const std::string &Key, int64_t Def) const {
  const Json *V = get(Key);
  return V ? V->asInt(Def) : Def;
}

bool Json::getBool(const std::string &Key, bool Def) const {
  const Json *V = get(Key);
  return V ? V->asBool(Def) : Def;
}

std::string Json::getString(const std::string &Key,
                            const std::string &Def) const {
  const Json *V = get(Key);
  return V && V->kind() == Kind::String ? V->asString() : Def;
}

Json &Json::set(const std::string &Key, Json V) {
  if (K == Kind::Null)
    K = Kind::Object;
  assert(K == Kind::Object && "set() on a non-object Json");
  for (auto &F : Obj)
    if (F.first == Key) {
      F.second = std::move(V);
      return *this;
    }
  Obj.emplace_back(Key, std::move(V));
  return *this;
}

Json &Json::push(Json V) {
  if (K == Kind::Null)
    K = Kind::Array;
  assert(K == Kind::Array && "push() on a non-array Json");
  Arr.push_back(std::move(V));
  return *this;
}

std::string exo::service::fingerprint(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)H);
  return Buf;
}

std::string Json::dump() const {
  switch (K) {
  case Kind::Null:
    return "null";
  case Kind::Bool:
    return B ? "true" : "false";
  case Kind::Int:
    return std::to_string(I);
  case Kind::Double: {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    return Buf;
  }
  case Kind::String:
    return "\"" + jsonEscape(S) + "\"";
  case Kind::Array: {
    std::string Out = "[";
    for (size_t N = 0; N < Arr.size(); ++N) {
      if (N)
        Out += ",";
      Out += Arr[N].dump();
    }
    return Out + "]";
  }
  case Kind::Object: {
    std::string Out = "{";
    for (size_t N = 0; N < Obj.size(); ++N) {
      if (N)
        Out += ",";
      Out += "\"" + jsonEscape(Obj[N].first) + "\":" + Obj[N].second.dump();
    }
    return Out + "}";
  }
  }
  return "null";
}

namespace {

/// Recursive-descent JSON parser over a bounded string. Depth-limited so
/// hostile nesting cannot blow the daemon's stack.
struct JsonParser {
  const std::string &T;
  size_t P = 0;
  unsigned Depth = 0;
  static constexpr unsigned MaxDepth = 64;

  explicit JsonParser(const std::string &T) : T(T) {}

  Error err(const std::string &Msg) {
    return makeError(Error::Kind::Parse,
                     "json: " + Msg + " at offset " + std::to_string(P));
  }

  void skipWs() {
    while (P < T.size() &&
           (T[P] == ' ' || T[P] == '\t' || T[P] == '\n' || T[P] == '\r'))
      ++P;
  }

  bool eat(char C) {
    skipWs();
    if (P < T.size() && T[P] == C) {
      ++P;
      return true;
    }
    return false;
  }

  Expected<Json> value() {
    if (++Depth > MaxDepth)
      return err("nesting too deep");
    skipWs();
    if (P >= T.size())
      return err("unexpected end of input");
    char C = T[P];
    Expected<Json> R = [&]() -> Expected<Json> {
      switch (C) {
      case '{':
        return object();
      case '[':
        return array();
      case '"': {
        auto S = string();
        if (!S)
          return S.error();
        return Json(std::move(*S));
      }
      case 't':
        return literal("true", Json(true));
      case 'f':
        return literal("false", Json(false));
      case 'n':
        return literal("null", Json());
      default:
        return number();
      }
    }();
    --Depth;
    return R;
  }

  Expected<Json> literal(const char *Lit, Json V) {
    size_t N = std::strlen(Lit);
    if (T.compare(P, N, Lit) != 0)
      return err("invalid literal");
    P += N;
    return V;
  }

  Expected<std::string> string() {
    if (!eat('"'))
      return err("expected string");
    std::string Out;
    while (P < T.size()) {
      char C = T[P++];
      if (C == '"')
        return Out;
      if (C == '\\') {
        if (P >= T.size())
          return err("dangling escape");
        char E = T[P++];
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'u': {
          if (P + 4 > T.size())
            return err("truncated \\u escape");
          unsigned V = 0;
          for (int K = 0; K < 4; ++K) {
            char H = T[P++];
            V <<= 4;
            if (H >= '0' && H <= '9')
              V |= H - '0';
            else if (H >= 'a' && H <= 'f')
              V |= H - 'a' + 10;
            else if (H >= 'A' && H <= 'F')
              V |= H - 'A' + 10;
            else
              return err("bad \\u escape");
          }
          // Minimal UTF-8 encode (surrogate pairs land as two separate
          // 3-byte sequences; the protocol never emits them).
          if (V < 0x80)
            Out += static_cast<char>(V);
          else if (V < 0x800) {
            Out += static_cast<char>(0xC0 | (V >> 6));
            Out += static_cast<char>(0x80 | (V & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (V >> 12));
            Out += static_cast<char>(0x80 | ((V >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (V & 0x3F));
          }
          break;
        }
        default:
          return err("unknown escape");
        }
      } else {
        Out += C;
      }
    }
    return err("unterminated string");
  }

  Expected<Json> number() {
    size_t Start = P;
    if (P < T.size() && T[P] == '-')
      ++P;
    while (P < T.size() && std::isdigit(static_cast<unsigned char>(T[P])))
      ++P;
    bool IsDouble = false;
    if (P < T.size() && T[P] == '.') {
      IsDouble = true;
      ++P;
      while (P < T.size() && std::isdigit(static_cast<unsigned char>(T[P])))
        ++P;
    }
    if (P < T.size() && (T[P] == 'e' || T[P] == 'E')) {
      IsDouble = true;
      ++P;
      if (P < T.size() && (T[P] == '+' || T[P] == '-'))
        ++P;
      while (P < T.size() && std::isdigit(static_cast<unsigned char>(T[P])))
        ++P;
    }
    if (P == Start || (P == Start + 1 && T[Start] == '-'))
      return err("expected value");
    std::string Num = T.substr(Start, P - Start);
    if (IsDouble)
      return Json(std::strtod(Num.c_str(), nullptr));
    errno = 0;
    long long V = std::strtoll(Num.c_str(), nullptr, 10);
    if (errno == ERANGE)
      return Json(std::strtod(Num.c_str(), nullptr));
    return Json(static_cast<int64_t>(V));
  }

  Expected<Json> array() {
    eat('[');
    Json Out = Json::array();
    skipWs();
    if (eat(']'))
      return Out;
    for (;;) {
      auto V = value();
      if (!V)
        return V.error();
      Out.push(std::move(*V));
      if (eat(']'))
        return Out;
      if (!eat(','))
        return err("expected ',' or ']'");
    }
  }

  Expected<Json> object() {
    eat('{');
    Json Out = Json::object();
    skipWs();
    if (eat('}'))
      return Out;
    for (;;) {
      skipWs();
      auto Key = string();
      if (!Key)
        return Key.error();
      if (!eat(':'))
        return err("expected ':'");
      auto V = value();
      if (!V)
        return V.error();
      Out.set(*Key, std::move(*V));
      if (eat('}'))
        return Out;
      if (!eat(','))
        return err("expected ',' or '}'");
    }
  }
};

} // namespace

Expected<Json> Json::parse(const std::string &Text) {
  JsonParser P(Text);
  auto V = P.value();
  if (!V)
    return V;
  P.skipWs();
  if (P.P != Text.size())
    return P.err("trailing garbage");
  return V;
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

const char *exo::service::frameStatusName(FrameStatus S) {
  switch (S) {
  case FrameStatus::Ok:
    return "ok";
  case FrameStatus::Eof:
    return "eof";
  case FrameStatus::IdleTimeout:
    return "idle-timeout";
  case FrameStatus::Timeout:
    return "timeout";
  case FrameStatus::TooLarge:
    return "too-large";
  case FrameStatus::TruncatedEof:
    return "truncated-eof";
  case FrameStatus::Error:
    return "error";
  }
  return "?";
}

namespace {

/// Reads exactly N bytes, polling against an absolute deadline (-1 =
/// none). Classifies EOF as TruncatedEof because callers only use this
/// after a frame has begun (the first-byte case is handled separately).
FrameStatus readExact(int Fd, char *Buf, size_t N, int64_t DeadlineAt,
                      std::string &Detail) {
  size_t Got = 0;
  while (Got < N) {
    int Wait = -1;
    if (DeadlineAt >= 0) {
      int64_t Left = DeadlineAt - nowMillis();
      if (Left <= 0) {
        Detail = "frame incomplete at deadline (" + std::to_string(Got) +
                 "/" + std::to_string(N) + " bytes)";
        return FrameStatus::Timeout;
      }
      Wait = static_cast<int>(Left > 1000 ? 1000 : Left);
    } else {
      Wait = 1000;
    }
    struct pollfd PFD = {Fd, POLLIN, 0};
    int PR = ::poll(&PFD, 1, Wait);
    if (PR < 0) {
      if (errno == EINTR)
        continue;
      Detail = std::strerror(errno);
      return FrameStatus::Error;
    }
    if (PR == 0)
      continue; // re-check deadline
    ssize_t R = ::read(Fd, Buf + Got, N - Got);
    if (R > 0) {
      Got += static_cast<size_t>(R);
      continue;
    }
    if (R == 0) {
      Detail = "peer closed mid-frame (" + std::to_string(Got) + "/" +
               std::to_string(N) + " bytes)";
      return FrameStatus::TruncatedEof;
    }
    if (errno == EINTR || errno == EAGAIN)
      continue;
    Detail = std::strerror(errno);
    return FrameStatus::Error;
  }
  return FrameStatus::Ok;
}

} // namespace

FrameResult exo::service::readFrame(int Fd, int IdleTimeoutMillis,
                                    int FrameTimeoutMillis) {
  FrameResult Out;

  // Phase 1: wait for the first byte under the idle deadline. A clean
  // EOF here is a normal hangup.
  int64_t IdleDeadline =
      IdleTimeoutMillis < 0 ? -1 : nowMillis() + IdleTimeoutMillis;
  char Hdr[4];
  size_t Got = 0;
  while (Got == 0) {
    int Wait = -1;
    if (IdleDeadline >= 0) {
      int64_t Left = IdleDeadline - nowMillis();
      if (Left <= 0) {
        Out.Status = FrameStatus::IdleTimeout;
        return Out;
      }
      Wait = static_cast<int>(Left > 1000 ? 1000 : Left);
    } else {
      Wait = 1000;
    }
    struct pollfd PFD = {Fd, POLLIN, 0};
    int PR = ::poll(&PFD, 1, Wait);
    if (PR < 0) {
      if (errno == EINTR)
        continue;
      Out.Status = FrameStatus::Error;
      Out.Detail = std::strerror(errno);
      return Out;
    }
    if (PR == 0)
      continue;
    ssize_t R = ::read(Fd, Hdr, 1);
    if (R == 1) {
      Got = 1;
      break;
    }
    if (R == 0) {
      Out.Status = FrameStatus::Eof;
      return Out;
    }
    if (errno == EINTR || errno == EAGAIN)
      continue;
    Out.Status = FrameStatus::Error;
    Out.Detail = std::strerror(errno);
    return Out;
  }

  // Phase 2: the rest of the frame must complete within the frame
  // deadline — the slow-loris guard.
  int64_t FrameDeadline =
      FrameTimeoutMillis < 0 ? -1 : nowMillis() + FrameTimeoutMillis;
  FrameStatus St = readExact(Fd, Hdr + 1, 3, FrameDeadline, Out.Detail);
  if (St != FrameStatus::Ok) {
    Out.Status = St;
    return Out;
  }
  uint32_t Len = (static_cast<uint32_t>(static_cast<unsigned char>(Hdr[0]))
                  << 24) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(Hdr[1]))
                  << 16) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(Hdr[2]))
                  << 8) |
                 static_cast<uint32_t>(static_cast<unsigned char>(Hdr[3]));
  if (Len > MaxFrameBytes) {
    Out.Status = FrameStatus::TooLarge;
    Out.Detail = "declared frame length " + std::to_string(Len) +
                 " exceeds the " + std::to_string(MaxFrameBytes) +
                 "-byte ceiling";
    return Out;
  }
  Out.Payload.resize(Len);
  if (Len > 0) {
    St = readExact(Fd, Out.Payload.data(), Len, FrameDeadline, Out.Detail);
    if (St != FrameStatus::Ok) {
      Out.Status = St;
      Out.Payload.clear();
      return Out;
    }
  }
  Out.Status = FrameStatus::Ok;
  return Out;
}

namespace {

std::string frameBytes(const std::string &Payload) {
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  std::string Buf;
  Buf.reserve(Payload.size() + 4);
  Buf += static_cast<char>((Len >> 24) & 0xFF);
  Buf += static_cast<char>((Len >> 16) & 0xFF);
  Buf += static_cast<char>((Len >> 8) & 0xFF);
  Buf += static_cast<char>(Len & 0xFF);
  Buf += Payload;
  return Buf;
}

FrameResult writeAll(int Fd, const char *Buf, size_t N) {
  FrameResult Out;
  size_t Sent = 0;
  while (Sent < N) {
    ssize_t W = ::write(Fd, Buf + Sent, N - Sent);
    if (W > 0) {
      Sent += static_cast<size_t>(W);
      continue;
    }
    if (W < 0 && (errno == EINTR || errno == EAGAIN))
      continue;
    Out.Status = FrameStatus::Error;
    Out.Detail = W < 0 ? std::strerror(errno) : "zero-length write";
    return Out;
  }
  return Out;
}

} // namespace

FrameResult exo::service::writeFrame(int Fd, const std::string &Payload) {
  support::ignoreSigpipe();
  if (Payload.size() > MaxFrameBytes)
    return {FrameStatus::TooLarge, "",
            "refusing to send a frame above the protocol ceiling"};
  std::string Buf = frameBytes(Payload);
  return writeAll(Fd, Buf.data(), Buf.size());
}

FrameResult exo::service::clientWriteFrame(int Fd,
                                           const std::string &Payload) {
  support::ignoreSigpipe();
  support::FaultInjector &FI = support::FaultInjector::instance();
  if (!FI.enabled())
    return writeFrame(Fd, Payload);

  std::string Buf = frameBytes(Payload);

  if (FI.shouldFire(support::Fault::SockDisconnect)) {
    // Send roughly half the frame, then vanish: the server must classify
    // this as TruncatedEof and fail only this connection's work.
    size_t Half = Buf.size() / 2;
    writeAll(Fd, Buf.data(), Half ? Half : 1);
    ::shutdown(Fd, SHUT_RDWR);
    return {FrameStatus::TruncatedEof, "",
            "injected mid-frame disconnect after " + std::to_string(Half) +
                " bytes"};
  }

  bool Loris = FI.shouldFire(support::Fault::SockSlowLoris);
  bool Short = Loris || FI.shouldFire(support::Fault::SockShortRead);
  if (!Short)
    return writeFrame(Fd, Payload);

  // Dribble the frame out byte by byte; the slow-loris variant also
  // sleeps, long enough that a short server-side frame deadline fires.
  size_t Chunk = 1;
  for (size_t Sent = 0; Sent < Buf.size(); Sent += Chunk) {
    size_t N = Buf.size() - Sent < Chunk ? Buf.size() - Sent : Chunk;
    FrameResult R = writeAll(Fd, Buf.data() + Sent, N);
    if (!R.ok())
      return R;
    if (Loris)
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    else if ((Sent & 0x3F) == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return {};
}

//===----------------------------------------------------------------------===//
// ClientConnection
//===----------------------------------------------------------------------===//

ClientConnection::~ClientConnection() { close(); }

ClientConnection::ClientConnection(ClientConnection &&O) noexcept
    : Fd(O.Fd) {
  O.Fd = -1;
}

ClientConnection &ClientConnection::operator=(ClientConnection &&O) noexcept {
  if (this != &O) {
    close();
    Fd = O.Fd;
    O.Fd = -1;
  }
  return *this;
}

void ClientConnection::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

Expected<ClientConnection> ClientConnection::connectUnix(
    const std::string &Path) {
  support::ignoreSigpipe();
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return makeError(Error::Kind::Internal,
                     std::string("socket: ") + std::strerror(errno));
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    ::close(Fd);
    return makeError(Error::Kind::Internal,
                     "unix socket path too long: " + Path);
  }
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    std::string E = std::strerror(errno);
    ::close(Fd);
    return makeError(Error::Kind::Internal,
                     "connect " + Path + ": " + E);
  }
  ClientConnection C;
  C.Fd = Fd;
  return C;
}

Expected<ClientConnection> ClientConnection::connectTcp(int Port) {
  support::ignoreSigpipe();
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return makeError(Error::Kind::Internal,
                     std::string("socket: ") + std::strerror(errno));
  struct sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    std::string E = std::strerror(errno);
    ::close(Fd);
    return makeError(Error::Kind::Internal,
                     "connect 127.0.0.1:" + std::to_string(Port) + ": " + E);
  }
  ClientConnection C;
  C.Fd = Fd;
  return C;
}

FrameResult ClientConnection::send(const Json &Request, bool WithFaults) {
  if (Fd < 0)
    return {FrameStatus::Error, "", "connection is closed"};
  std::string Payload = Request.dump();
  return WithFaults ? clientWriteFrame(Fd, Payload)
                    : writeFrame(Fd, Payload);
}

FrameResult ClientConnection::receive(int TimeoutMillis) {
  if (Fd < 0)
    return {FrameStatus::Error, "", "connection is closed"};
  return readFrame(Fd, TimeoutMillis, TimeoutMillis);
}

Expected<Json> ClientConnection::call(const Json &Request,
                                      int TimeoutMillis) {
  FrameResult W = send(Request, /*WithFaults=*/false);
  if (!W.ok())
    return makeError(Error::Kind::Internal,
                     std::string("send failed: ") +
                         frameStatusName(W.Status) +
                         (W.Detail.empty() ? "" : ": " + W.Detail));
  FrameResult R = receive(TimeoutMillis);
  if (!R.ok())
    return makeError(Error::Kind::Internal,
                     std::string("receive failed: ") +
                         frameStatusName(R.Status) +
                         (R.Detail.empty() ? "" : ": " + R.Detail));
  return Json::parse(R.Payload);
}
