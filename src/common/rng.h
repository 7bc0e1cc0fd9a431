// Deterministic pseudo-random generator for tests, workloads and benches.
//
// The simulator must be bit-reproducible across runs, so all randomness in
// the project flows through this splitmix64/xoshiro256** generator rather
// than std::random_device.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace mccp {

/// xoshiro256** seeded via splitmix64. Deterministic and fast; good enough
/// for workload generation and property tests (not for key material in a
/// real deployment, which is out of scope for a simulator).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t next_u64();
  std::uint32_t next_u32() { return static_cast<std::uint32_t>(next_u64() >> 32); }
  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);
  /// Uniform double in [0, 1).
  double next_double();
  /// Fill a buffer with random bytes.
  void fill(std::uint8_t* dst, std::size_t n);
  Bytes bytes(std::size_t n);
  /// Advance the stream exactly as fill() of `n` bytes would.
  void discard_bytes(std::size_t n);
  Block128 block();

 private:
  std::uint64_t s_[4];
};

}  // namespace mccp
