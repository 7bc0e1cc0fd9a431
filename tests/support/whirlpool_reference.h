// Byte-wise Whirlpool reference (ISO/IEC 10118-3), kept only as a test
// oracle for the row-table implementation in crypto/whirlpool.cpp. It
// follows the standard's description literally: an 8x8 byte state, and per
// round SubBytes, ShiftColumns, MixRows (GF(2^8) products against the
// circulant matrix) and AddRoundKey, each a separate pass. It shares no
// tables or padding code with the library: the S-box is rebuilt here from
// the E / E^-1 / R mini-boxes and the padding is appended byte by byte.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "common/bytes.h"

namespace mccp::testing::whirlpool_ref {

// 512-bit blocks map to the state row-major (byte k -> row k/8, column k%8).
using State = std::array<std::uint8_t, 64>;

inline const std::array<std::uint8_t, 256>& sbox() {
  static const std::array<std::uint8_t, 256> table = [] {
    constexpr std::uint8_t kE[16] = {0x1, 0xB, 0x9, 0xC, 0xD, 0x6, 0xF, 0x3,
                                     0xE, 0x8, 0x7, 0x4, 0xA, 0x2, 0x5, 0x0};
    constexpr std::uint8_t kR[16] = {0x7, 0xC, 0xB, 0xD, 0xE, 0x4, 0x9, 0xF,
                                     0x6, 0x3, 0x8, 0xA, 0x2, 0x5, 0x1, 0x0};
    std::uint8_t einv[16];
    for (int i = 0; i < 16; ++i) einv[kE[i]] = static_cast<std::uint8_t>(i);
    std::array<std::uint8_t, 256> s{};
    for (int x = 0; x < 256; ++x) {
      std::uint8_t hi = kE[x >> 4];
      std::uint8_t lo = einv[x & 0xF];
      std::uint8_t y = kR[hi ^ lo];
      s[static_cast<std::size_t>(x)] =
          static_cast<std::uint8_t>((kE[hi ^ y] << 4) | einv[lo ^ y]);
    }
    return s;
  }();
  return table;
}

// GF(2^8) with the Whirlpool polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D).
inline std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1D : 0x00));
    b >>= 1;
  }
  return p;
}

inline State sub_bytes(const State& s) {
  State o;
  for (std::size_t i = 0; i < 64; ++i) o[i] = sbox()[s[i]];
  return o;
}

// gamma/pi: shift column j downwards by j positions.
inline State shift_columns(const State& s) {
  State o;
  for (int c = 0; c < 8; ++c)
    for (int r = 0; r < 8; ++r)
      o[static_cast<std::size_t>(8 * ((r + c) % 8) + c)] =
          s[static_cast<std::size_t>(8 * r + c)];
  return o;
}

// theta: multiply the state by the circulant matrix on the right:
// out[r][c] = sum_k state[r][k] * cir[(c - k) mod 8], where the matrix's
// row 0 is (1, 1, 4, 1, 8, 5, 2, 9).
inline State mix_rows(const State& s) {
  constexpr std::uint8_t kCir[8] = {0x01, 0x01, 0x04, 0x01, 0x08, 0x05, 0x02, 0x09};
  State o{};
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 8; ++c) {
      std::uint8_t acc = 0;
      for (int k = 0; k < 8; ++k)
        acc ^= mul(s[static_cast<std::size_t>(8 * r + k)], kCir[(c - k + 8) % 8]);
      o[static_cast<std::size_t>(8 * r + c)] = acc;
    }
  }
  return o;
}

inline State add_key(State s, const State& k) {
  for (std::size_t i = 0; i < 64; ++i) s[i] ^= k[i];
  return s;
}

// Round constant r: first row is S[8(r-1)] .. S[8(r-1)+7], rest zero.
inline State round_constant(int r) {
  State rc{};
  for (int j = 0; j < 8; ++j)
    rc[static_cast<std::size_t>(j)] = sbox()[static_cast<std::size_t>(8 * (r - 1) + j)];
  return rc;
}

/// Miyaguchi-Preneel compression: h <- W_h(block) ^ h ^ block, with W the
/// 10-round dedicated block cipher.
inline void compress(State& h, const std::uint8_t block[64]) {
  State m;
  std::memcpy(m.data(), block, 64);
  State k = h;
  State s = add_key(m, k);  // sigma[K^0]
  for (int r = 1; r <= 10; ++r) {
    k = add_key(mix_rows(shift_columns(sub_bytes(k))), round_constant(r));
    s = add_key(mix_rows(shift_columns(sub_bytes(s))), k);
  }
  for (std::size_t i = 0; i < 64; ++i) h[i] = static_cast<std::uint8_t>(h[i] ^ s[i] ^ m[i]);
}

/// Padding: 0x80, zeros until the length is 32 mod 64, then the 256-bit
/// big-endian bit length (only its low 64 bits can be nonzero here).
inline Bytes pad(ByteSpan message) {
  Bytes out(message.begin(), message.end());
  out.push_back(0x80);
  while (out.size() % 64 != 32) out.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int i = 0; i < 24; ++i) out.push_back(0);
  for (int i = 7; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  return out;
}

/// The whole hash composed from the oracle's own padding and compression.
inline State hash(ByteSpan message) {
  Bytes padded = pad(message);
  State h{};
  for (std::size_t off = 0; off < padded.size(); off += 64) compress(h, padded.data() + off);
  return h;
}

}  // namespace mccp::testing::whirlpool_ref
