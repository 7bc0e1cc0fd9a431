// Byte-level utilities shared by the whole MCCP code base.
//
// The simulated hardware moves data as 32-bit words over a 32-bit datapath
// and as 128-bit blocks inside the Cryptographic Unit, so this header
// provides a 128-bit block value type plus big-endian packing helpers that
// match the bit ordering used by AES (FIPS-197) and GCM (SP 800-38D).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace mccp {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;
/// A writable byte range: the buffer an in-place transform works on.
using MutableByteSpan = std::span<std::uint8_t>;

/// A 128-bit block, stored big-endian (byte 0 is the most significant byte
/// of the block, as in the AES and GCM specifications).
struct Block128 {
  std::array<std::uint8_t, 16> b{};

  constexpr std::uint8_t& operator[](std::size_t i) { return b[i]; }
  constexpr std::uint8_t operator[](std::size_t i) const { return b[i]; }
  friend bool operator==(const Block128&, const Block128&) = default;

  /// XOR this block with another, in place.
  constexpr Block128& operator^=(const Block128& o) {
    for (std::size_t i = 0; i < 16; ++i) b[i] ^= o.b[i];
    return *this;
  }
  friend constexpr Block128 operator^(Block128 a, const Block128& c) {
    a ^= c;
    return a;
  }

  /// Extract the i-th 32-bit sub-word (0 = most significant), matching the
  /// order in which the Cryptographic Unit's 2-bit counter walks a bank
  /// register word.
  constexpr std::uint32_t word(std::size_t i) const {
    return (std::uint32_t{b[4 * i]} << 24) | (std::uint32_t{b[4 * i + 1]} << 16) |
           (std::uint32_t{b[4 * i + 2]} << 8) | std::uint32_t{b[4 * i + 3]};
  }
  constexpr void set_word(std::size_t i, std::uint32_t w) {
    b[4 * i] = static_cast<std::uint8_t>(w >> 24);
    b[4 * i + 1] = static_cast<std::uint8_t>(w >> 16);
    b[4 * i + 2] = static_cast<std::uint8_t>(w >> 8);
    b[4 * i + 3] = static_cast<std::uint8_t>(w);
  }

  static Block128 from_span(ByteSpan s) {
    Block128 out;
    std::size_t n = s.size() < 16 ? s.size() : 16;
    std::memcpy(out.b.data(), s.data(), n);
    return out;
  }
  Bytes to_bytes() const { return Bytes(b.begin(), b.end()); }
};

/// Read a big-endian 32-bit word from a byte buffer.
constexpr std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

/// Write a big-endian 32-bit word to a byte buffer.
constexpr void store_be32(std::uint8_t* p, std::uint32_t w) {
  p[0] = static_cast<std::uint8_t>(w >> 24);
  p[1] = static_cast<std::uint8_t>(w >> 16);
  p[2] = static_cast<std::uint8_t>(w >> 8);
  p[3] = static_cast<std::uint8_t>(w);
}

/// Read/write big-endian 64-bit words (GCM length block, CCM counters).
constexpr std::uint64_t load_be64(const std::uint8_t* p) {
  return (std::uint64_t{load_be32(p)} << 32) | load_be32(p + 4);
}
constexpr void store_be64(std::uint8_t* p, std::uint64_t w) {
  store_be32(p, static_cast<std::uint32_t>(w >> 32));
  store_be32(p + 4, static_cast<std::uint32_t>(w));
}

/// Constant-time byte-array comparison (tag checks must not leak timing).
inline bool ct_equal(ByteSpan a, ByteSpan c) {
  if (a.size() != c.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= static_cast<std::uint8_t>(a[i] ^ c[i]);
  return acc == 0;
}

/// Zero `s` through a volatile pointer to memset, so the wipe of a buffer
/// that is freed or handed back next (unverified plaintext) cannot be
/// optimised away.
inline void secure_wipe(MutableByteSpan s) {
  static void* (*const volatile wipe_memset)(void*, int, std::size_t) = std::memset;
  if (!s.empty()) wipe_memset(s.data(), 0, s.size());
}

}  // namespace mccp
