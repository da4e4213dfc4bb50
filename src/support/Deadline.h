//===- support/Deadline.h - Wall-clock deadlines & cancellation -*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative cancellation for long-running work. A Deadline is a point
/// on the steady clock (or "never"); a ScopedDeadline installs one
/// thread-locally so code deep inside the solver and scheduling pipeline
/// can poll it without threading a token through every signature. Polling
/// is cooperative: nothing is ever killed, the hot loops check
/// threadDeadlineExpired() at amortized intervals and unwind with a
/// timeout verdict (Unknown{timeout} in the solver, a failed job in the
/// batch driver). Nested scopes tighten: the effective deadline is the
/// minimum of the enclosing ones, so a caller can always narrow but never
/// extend its budget.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SUPPORT_DEADLINE_H
#define EXO_SUPPORT_DEADLINE_H

#include <chrono>
#include <cstdint>

namespace exo {
namespace support {

/// Milliseconds on the steady clock (arbitrary epoch), whole: for
/// deadlines, timeouts and grace periods.
inline int64_t nowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Milliseconds on the steady clock (arbitrary epoch), fractional: for
/// timing measurements.
inline double nowMillisPrecise() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A wall-clock deadline on the steady clock, or "never".
class Deadline {
public:
  /// The infinite deadline: never expires.
  static Deadline never() { return Deadline(); }

  /// A deadline \p Millis milliseconds from now. Non-positive values
  /// produce an already-expired deadline.
  static Deadline afterMillis(int64_t Millis) {
    Deadline D;
    D.Finite = true;
    D.At = std::chrono::steady_clock::now() +
           std::chrono::milliseconds(Millis > 0 ? Millis : 0);
    return D;
  }

  bool isFinite() const { return Finite; }

  bool expired() const {
    return Finite && std::chrono::steady_clock::now() >= At;
  }

  /// Milliseconds left, clamped at 0; -1 for the infinite deadline.
  int64_t remainingMillis() const {
    if (!Finite)
      return -1;
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    At - std::chrono::steady_clock::now())
                    .count();
    return Left > 0 ? Left : 0;
  }

  /// The earlier of two deadlines ("never" is the identity).
  static Deadline earlier(const Deadline &A, const Deadline &B) {
    if (!A.Finite)
      return B;
    if (!B.Finite)
      return A;
    return A.At <= B.At ? A : B;
  }

private:
  Deadline() = default;
  bool Finite = false;
  std::chrono::steady_clock::time_point At{};
};

/// RAII thread-local deadline scope. The installed deadline is the
/// minimum of \p D and any enclosing scope's deadline, so nesting can
/// only tighten. The destructor restores the previous scope.
class ScopedDeadline {
public:
  explicit ScopedDeadline(Deadline D);
  ~ScopedDeadline();
  ScopedDeadline(const ScopedDeadline &) = delete;
  ScopedDeadline &operator=(const ScopedDeadline &) = delete;

private:
  Deadline Prev;
};

/// The current thread's effective deadline ("never" outside any scope).
const Deadline &currentThreadDeadline();

/// True when the current thread's deadline has passed. One steady-clock
/// read; callers in hot loops should amortize (poll every N iterations).
bool threadDeadlineExpired();

/// Milliseconds left on the current thread's deadline; -1 when none.
int64_t threadDeadlineRemainingMillis();

} // namespace support
} // namespace exo

#endif // EXO_SUPPORT_DEADLINE_H
