#include "common/rng.h"

namespace mccp {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : s_) s = splitmix64(seed);
}

std::uint64_t Rng::next_u64() {
  std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  std::uint64_t threshold = -bound % bound;
  for (;;) {
    std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

void Rng::fill(std::uint8_t* dst, std::size_t n) {
  std::size_t i = 0;
  while (i + 8 <= n) {
    std::uint64_t v = next_u64();
    for (int k = 0; k < 8; ++k) dst[i + static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(v >> (8 * k));
    i += 8;
  }
  if (i < n) {
    std::uint64_t v = next_u64();
    for (; i < n; ++i) {
      dst[i] = static_cast<std::uint8_t>(v);
      v >>= 8;
    }
  }
}

void Rng::discard_bytes(std::size_t n) {
  for (std::size_t words = (n + 7) / 8; words > 0; --words) next_u64();
}

Bytes Rng::bytes(std::size_t n) {
  Bytes out(n);
  fill(out.data(), n);
  return out;
}

Block128 Rng::block() {
  Block128 out;
  fill(out.b.data(), 16);
  return out;
}

}  // namespace mccp
