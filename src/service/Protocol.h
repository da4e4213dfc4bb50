//===- service/Protocol.h - Wire protocol of exocc-serve -------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile service speaks length-prefixed JSON over a stream socket:
/// every frame is a 4-byte big-endian payload length followed by exactly
/// that many bytes of UTF-8 JSON. Framing is deliberately dumb — no
/// pipelined framing tricks, no compression — because the failure modes
/// are where the engineering goes:
///
///  * reads are poll()-driven with two deadlines: an idle deadline before
///    the first byte of a frame (so server loops can wake up and notice
///    drain requests) and a completion deadline for the rest of it (so a
///    slow-loris peer that trickles one byte a minute is disconnected
///    instead of pinning a connection thread forever);
///  * a declared length above MaxFrameBytes is rejected before any
///    allocation, so garbage or hostile prefixes cannot OOM the daemon;
///  * EOF is classified: between frames it is a clean hangup, inside a
///    frame it is a protocol error the caller reports;
///  * writes loop over partial progress and rely on the process-wide
///    SIGPIPE policy (support::ignoreSigpipe) to turn dead peers into
///    EPIPE errors.
///
/// Json is a small self-contained value type (null/bool/int/double/
/// string/array/object) with a strict parser — no dependency is baked
/// into the tree for what is a flat request/response schema.
///
/// clientWriteFrame is the fault-injectable variant the soak harness and
/// tests use to misbehave on purpose (support::FaultInjector kinds
/// sock-short-read, sock-disconnect, sock-slowloris); writeFrame itself
/// is always honest.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SERVICE_PROTOCOL_H
#define EXO_SERVICE_PROTOCOL_H

#include "support/Error.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace exo {
namespace service {

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

class Json {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Json() : K(Kind::Null) {}
  Json(bool B) : K(Kind::Bool), B(B) {}
  Json(int64_t I) : K(Kind::Int), I(I) {}
  Json(int I) : K(Kind::Int), I(I) {}
  Json(uint64_t I) : K(Kind::Int), I(static_cast<int64_t>(I)) {}
  Json(double D) : K(Kind::Double), D(D) {}
  Json(std::string S) : K(Kind::String), S(std::move(S)) {}
  Json(const char *S) : K(Kind::String), S(S) {}

  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }
  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }

  /// Scalar accessors with defaults (wrong-kind reads return the
  /// default; a flat protocol prefers lenient reads + explicit schema
  /// checks at the call site).
  bool asBool(bool Def = false) const { return K == Kind::Bool ? B : Def; }
  int64_t asInt(int64_t Def = 0) const {
    if (K == Kind::Int)
      return I;
    if (K == Kind::Double)
      return static_cast<int64_t>(D);
    return Def;
  }
  double asDouble(double Def = 0) const {
    if (K == Kind::Double)
      return D;
    if (K == Kind::Int)
      return static_cast<double>(I);
    return Def;
  }
  const std::string &asString() const { return S; }

  /// Object access: null when absent or not an object.
  const Json *get(const std::string &Key) const;
  /// Convenience typed lookups on objects.
  int64_t getInt(const std::string &Key, int64_t Def = 0) const;
  bool getBool(const std::string &Key, bool Def = false) const;
  std::string getString(const std::string &Key,
                        const std::string &Def = "") const;

  /// Object/array mutation (switches kind on first use from Null).
  Json &set(const std::string &Key, Json V);
  Json &push(Json V);

  const std::vector<Json> &items() const { return Arr; }
  const std::vector<std::pair<std::string, Json>> &fields() const {
    return Obj;
  }

  /// Compact serialization (no insignificant whitespace; object fields in
  /// insertion order, so output is deterministic).
  std::string dump() const;

  /// Strict parse of one JSON document (trailing garbage is an error).
  static Expected<Json> parse(const std::string &Text);

private:
  Kind K;
  bool B = false;
  int64_t I = 0;
  double D = 0;
  std::string S;
  std::vector<Json> Arr;
  std::vector<std::pair<std::string, Json>> Obj;
};

/// FNV-1a 64-bit as 16 hex digits: the service's output fingerprint (the
/// soak harness's bit-identity check compares these instead of shipping
/// whole C files back over the socket).
std::string fingerprint(const std::string &S);

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

/// Hard ceiling on one frame's payload; declared lengths above it are a
/// protocol error, rejected before allocation.
constexpr uint32_t MaxFrameBytes = 32u << 20;

enum class FrameStatus {
  Ok,         ///< a whole frame arrived / was sent
  Eof,        ///< clean hangup between frames (read only)
  IdleTimeout,///< no first byte within the idle deadline (read only)
  Timeout,    ///< frame started but did not complete in time (slow loris)
  TooLarge,   ///< declared length exceeds MaxFrameBytes
  TruncatedEof,///< peer vanished mid-frame
  Error,      ///< errno-level socket failure (EPIPE, ECONNRESET, ...)
};

const char *frameStatusName(FrameStatus S);

struct FrameResult {
  FrameStatus Status = FrameStatus::Ok;
  std::string Payload; ///< valid when Status == Ok
  std::string Detail;  ///< diagnosis for the failure statuses

  bool ok() const { return Status == FrameStatus::Ok; }
};

/// Reads one frame. Waits up to \p IdleTimeoutMillis for the first byte
/// (-1 = forever), then up to \p FrameTimeoutMillis for the remainder
/// (-1 = forever). Loops over partial reads and EINTR.
FrameResult readFrame(int Fd, int IdleTimeoutMillis, int FrameTimeoutMillis);

/// Writes one frame, looping over partial writes. Returns Ok or Error.
FrameResult writeFrame(int Fd, const std::string &Payload);

/// The misbehaving writer used by the soak client and the protocol tests:
/// consults support::FaultInjector before sending. sock-short-read
/// dribbles the frame in 1-byte writes (the receiver must reassemble);
/// sock-slowloris inserts long pauses between those dribbles (the
/// receiver's frame deadline must fire); sock-disconnect sends roughly
/// half the frame and shuts the socket down. Faults compose with an
/// honest fallback when none fire.
FrameResult clientWriteFrame(int Fd, const std::string &Payload);

//===----------------------------------------------------------------------===//
// Client connection helper
//===----------------------------------------------------------------------===//

/// A blocking client connection (unix or TCP localhost), used by the soak
/// harness, the tests, and exocc-serve's own admin subcommands.
class ClientConnection {
public:
  ClientConnection() = default;
  ~ClientConnection();
  ClientConnection(ClientConnection &&O) noexcept;
  ClientConnection &operator=(ClientConnection &&O) noexcept;
  ClientConnection(const ClientConnection &) = delete;
  ClientConnection &operator=(const ClientConnection &) = delete;

  /// Connects to a unix socket path.
  static Expected<ClientConnection> connectUnix(const std::string &Path);
  /// Connects to 127.0.0.1:port.
  static Expected<ClientConnection> connectTcp(int Port);

  bool valid() const { return Fd >= 0; }
  int fd() const { return Fd; }
  void close();

  /// One request/response round trip: send \p Request (honestly), wait up
  /// to \p TimeoutMillis for the matching reply frame.
  Expected<Json> call(const Json &Request, int TimeoutMillis = 30000);

  /// Raw sends/receives for tests and the pipelining soak client.
  FrameResult send(const Json &Request, bool WithFaults = false);
  FrameResult receive(int TimeoutMillis);

private:
  int Fd = -1;
};

} // namespace service
} // namespace exo

#endif // EXO_SERVICE_PROTOCOL_H
