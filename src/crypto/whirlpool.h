// Whirlpool hash function (ISO/IEC 10118-3, final 2003 version).
//
// The paper demonstrates partial reconfiguration by swapping the AES
// encryption core of a Cryptographic Unit for a Whirlpool hashing core
// (Table IV). This from-scratch implementation is the functional model
// loaded into a reconfigurable CU slot.
//
// Whirlpool is a 512-bit Miyaguchi-Preneel construction over the dedicated
// block cipher W: an 8x8 byte state, 10 rounds of SubBytes (S-box built from
// E/E^-1/R mini-boxes), ShiftColumns, MixRows (circulant MDS matrix over
// GF(2^8) mod x^8+x^4+x^3+x^2+1) and AddRoundKey. The state is held as
// eight big-endian 64-bit rows, and each round's first three steps are
// eight lookups per row into 8x256 64-bit tables built at compile time.
// This is one portable path: there is no hardware Whirlpool instruction,
// so it sits outside the crypto kernel tier dispatch.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace mccp::crypto {

/// Incremental Whirlpool hasher.
class Whirlpool {
 public:
  static constexpr std::size_t kDigestSize = 64;  // 512 bits
  static constexpr std::size_t kBlockSize = 64;

  Whirlpool() = default;

  void update(ByteSpan data);
  /// Finalize and return the 512-bit digest. The object may not be reused
  /// afterwards without calling reset().
  std::array<std::uint8_t, kDigestSize> digest();
  void reset();

  /// Number of W-cipher rounds (fixed by the standard; exposed for the
  /// reconfiguration timing model).
  static constexpr int kRounds = 10;

 private:
  void compress(const std::uint8_t* block);

  std::array<std::uint8_t, 64> h_{};   // chaining value
  std::array<std::uint8_t, 64> buf_{};
  std::size_t buf_len_ = 0;
  std::uint64_t total_bytes_ = 0;      // 2^64 bytes is plenty for a simulator
};

/// One-shot convenience wrapper.
std::array<std::uint8_t, Whirlpool::kDigestSize> whirlpool(ByteSpan data);

/// Whirlpool S-box (derived from the mini-box construction; exposed for
/// tests).
std::uint8_t whirlpool_sbox(std::uint8_t x);

/// Raw Miyaguchi-Preneel compression step: h <- W_h(block) ^ h ^ block.
/// This is the operation the reconfigurable Whirlpool processing core of
/// the Cryptographic Unit performs per 64-byte block; padding is the
/// communication controller's job (format_whirlpool_hash).
void whirlpool_compress(std::array<std::uint8_t, 64>& h, const std::uint8_t block[64]);

/// Total length in bytes of a message of `n` bytes after Whirlpool padding
/// (0x80, zeros to 32 mod 64, 256-bit big-endian bit count). Always a
/// multiple of 64.
constexpr std::size_t whirlpool_padded_len(std::size_t n) {
  std::size_t after = n + 1;  // message + 0x80
  std::size_t rem = after % 64;
  std::size_t zeros = rem <= 32 ? 32 - rem : 64 + 32 - rem;
  return after + zeros + 32;
}

/// Produce the padded message (ready for blockwise compression).
Bytes whirlpool_pad(ByteSpan message);

}  // namespace mccp::crypto
