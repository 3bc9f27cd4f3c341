// MiniHPC integer arithmetic: 64-bit two's-complement wraparound, as in Go.
//
// Overflow wraps instead of being undefined, and the one quotient that does
// not fit, INT64_MIN / -1, is INT64_MIN with remainder 0 (x86's idiv would
// raise SIGFPE there). Every component that computes on user integers goes
// through these helpers — both execution engines, the constant folder and
// simmpi's reductions — so a folded and an unfolded program print the same
// values, and no user program can crash the checker.
#pragma once

#include <cstdint>

namespace parcoach {

// Unsigned arithmetic is modular, and C++20 defines the conversion back to
// int64_t as modular too.
constexpr int64_t wrap_add(int64_t a, int64_t b) noexcept {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
constexpr int64_t wrap_sub(int64_t a, int64_t b) noexcept {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
constexpr int64_t wrap_mul(int64_t a, int64_t b) noexcept {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
constexpr int64_t wrap_neg(int64_t a) noexcept { return wrap_sub(0, a); }

/// Truncating division. Precondition: b != 0 (division by zero is a runtime
/// fault the caller reports).
constexpr int64_t wrap_div(int64_t a, int64_t b) noexcept {
  return b == -1 ? wrap_neg(a) : a / b;
}
/// Remainder with the sign of the dividend. Precondition: b != 0.
constexpr int64_t wrap_mod(int64_t a, int64_t b) noexcept {
  return b == -1 ? 0 : a % b;
}

} // namespace parcoach
