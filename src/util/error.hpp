#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace fpgafu {

/// Error raised when the simulated hardware model itself is misused or
/// reaches an impossible state (combinational loop, watchdog timeout,
/// out-of-range register index, ...).  Configuration errors made by the
/// user of the library also surface as SimError.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

/// Throw SimError(message).  Out of line, so an inlined check() adds a
/// compare and a never-taken call to its caller, not the string build and
/// throw.
[[noreturn]] void throw_sim_error(std::string_view message);

/// Throw SimError if `cond` is false.  Used for precondition checks on the
/// public API; internal invariants use assert-style checks as well so that
/// misbehaviour is caught in release builds too (this is a simulator, and a
/// silently-wrong cycle count is worse than an abort).
///
/// A passing check costs a branch and nothing else: the message is a view,
/// and the owning string is built only when the check fails.  Per-cycle and
/// per-job callers must keep it that way — a message with runtime values in
/// it belongs under `if (!cond) { throw SimError(...); }`, not here, since
/// `check(ok, "x" + std::to_string(n))` builds the string on every call.
inline void check(bool cond, std::string_view message) {
  if (!cond) [[unlikely]] {
    throw_sim_error(message);
  }
}

}  // namespace fpgafu
