// GF(2^128) arithmetic as specified for GCM (NIST SP 800-38D §6.3).
//
// Three multiplier implementations are provided:
//  * `gf128_mul`        — the reference bit-serial algorithm from the spec.
//  * `gf128_mul_digit`  — a digit-serial multiplier processing D bits of the
//    second operand per iteration. With D = 3 it performs ceil(129/3) = 43
//    iterations, matching the 43-cycle digit-serial GHASH core the paper
//    adopts from Lemsitzer et al. (CHES'07). Both must agree bit-for-bit;
//    property tests enforce this.
//  * `Gf128Table`       — Shoup's 8-bit-table method for a fixed operand H:
//    256 precomputed multiples of H (4 KiB, built once per key) plus a
//    shared 256-entry byte-carry reduction table, multiplying in 16 table
//    lookups + shifts per block instead of 128 bit-serial iterations. This
//    is the software fast path behind GHASH; it must also agree bit-for-bit
//    with the reference.
//
// GCM convention: within a block, bit 0 is the most significant bit of byte
// 0, and the field polynomial is 1 + x + x^2 + x^7 + x^128 (represented by
// the reduction constant R = 0xE1 << 120).
#pragma once

#include <array>

#include "common/bytes.h"

namespace mccp::crypto {

/// Reference GF(2^128) multiplication (SP 800-38D Algorithm 1).
Block128 gf128_mul(const Block128& x, const Block128& y);

/// Digit-serial GF(2^128) multiplication with `digit_bits` bits consumed per
/// iteration; functionally identical to gf128_mul. digit_bits must be in
/// [1, 8].
Block128 gf128_mul_digit(const Block128& x, const Block128& y, int digit_bits);

/// Number of iterations the digit-serial multiplier needs (the paper's GHASH
/// core uses 3-bit digits -> 43 iterations / clock cycles).
constexpr int gf128_digit_iterations(int digit_bits) {
  // The hardware pipelines 128 bits plus a final reduction stage, giving
  // ceil(129 / D) iterations -- 43 for D = 3, matching the paper.
  return (129 + digit_bits - 1) / digit_bits;
}

static_assert(gf128_digit_iterations(3) == 43,
              "paper Sec. V.A: digit-serial multiplication in 43 clock cycles");

/// Powers of H a Gf128Table caches for the CLMUL GHASH kernels: enough for
/// one 16-block aggregated reduction.
inline constexpr std::size_t kClmulPowers = 16;

/// Precomputed multiplication by a fixed field element H (Shoup's 8-bit
/// table method). Table M holds poly(b)·H for every byte value b, where
/// poly(b) maps bit (7-j) of b to x^j; a 128-bit operand X = Σ poly(x_i)·x^{8i}
/// is then folded by Horner's rule, one byte-shift (multiply by x^8 with a
/// table-driven reduction of the spilled byte) per input byte.
class Gf128Table {
 public:
  Gf128Table() = default;
  explicit Gf128Table(const Block128& h) { load(h); }

  /// (Re)build the table for a new fixed operand.
  void load(const Block128& h);

  /// X * H in GF(2^128); identical to gf128_mul(x, h()). Always the
  /// portable Shoup path — this is the oracle the CLMUL kernels are
  /// differential-tested against.
  Block128 mul(const Block128& x) const;

  const Block128& h() const { return h_; }

  /// H^16..H^1, highest power first, in the byte-reflected layout the CLMUL
  /// GHASH kernels consume (16 bytes each), or nullptr when the CPU cannot
  /// build them. The last n entries are H^n..H^1: the multipliers of an
  /// n-block aggregated step, in block order. Cached by load() eagerly —
  /// gated on *hardware* support, not the dispatch override, so a table
  /// built while the portable tier is forced still serves a later tier
  /// flip.
  const std::uint8_t* clmul_powers() const { return clmul_ready_ ? clmul_pow_.data() : nullptr; }

 private:
  /// One table entry, held as two big-endian 64-bit halves so the per-byte
  /// Horner shift runs in the word domain instead of byte-by-byte.
  struct Half {
    std::uint64_t hi = 0, lo = 0;  // bytes 0..7 / 8..15 of the block
  };

  Block128 h_{};
  std::array<Half, 256> m_{};
  alignas(16) std::array<std::uint8_t, 16 * kClmulPowers> clmul_pow_{};
  bool clmul_ready_ = false;
};

namespace detail {
/// Implemented next to the CLMUL kernels (crypto/kernels_x86.cpp); declared
/// here so Gf128Table::load() can fill the power cache without gf128.h
/// depending on kernels.h. Fills 16 * kClmulPowers bytes; returns false
/// when the CPU lacks PCLMULQDQ.
bool build_clmul_powers(const Block128& h, std::uint8_t* out);
}  // namespace detail

}  // namespace mccp::crypto
