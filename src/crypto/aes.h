// From-scratch AES (FIPS-197) used both as the golden software reference and
// as the functional model inside the simulated 32-bit iterative AES core.
//
// The S-box and its inverse are derived at start-up from GF(2^8) arithmetic
// (multiplicative inverse + affine map) rather than transcribed tables, and
// validated by the FIPS-197 known-answer tests.
//
// The column-granular round helpers (`encrypt_round_column`,
// `final_round_column`) mirror the datapath of the Chodowiec–Gaj core the
// paper uses, which produces one 32-bit column of the next state per clock
// cycle. aes_test checks them against FIPS-197 and the block routine; the
// cycle-level Cryptographic Unit takes its functional result from
// aes_encrypt_block and models only that core's timing.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace mccp::crypto {

/// AES key sizes supported by the MCCP (the paper's Key Scheduler handles
/// all three; block size is always 128 bits).
enum class AesKeySize : std::uint8_t { k128 = 16, k192 = 24, k256 = 32 };

constexpr int aes_rounds(AesKeySize ks) {
  switch (ks) {
    case AesKeySize::k128: return 10;
    case AesKeySize::k192: return 12;
    case AesKeySize::k256: return 14;
  }
  return 10;
}

/// Paper §V.A: the iterative 32-bit AES core computes one 128-bit block in
/// 44 / 52 / 60 cycles for 128 / 192 / 256-bit keys.
constexpr int aes_core_cycles(AesKeySize ks) {
  switch (ks) {
    case AesKeySize::k128: return 44;
    case AesKeySize::k192: return 52;
    case AesKeySize::k256: return 60;
  }
  return 44;
}

/// Expanded round keys: (rounds + 1) 128-bit round keys, plus the
/// equivalent-inverse-cipher schedule (FIPS-197 SS5.3.5) so the word-table
/// decrypt path runs the same round structure as encryption. Both are
/// filled by aes_expand_key.
struct AesRoundKeys {
  AesKeySize key_size{AesKeySize::k128};
  std::array<Block128, 15> rk{};   // up to 14 rounds + initial
  std::array<Block128, 15> drk{};  // reversed, InvMixColumns on middle rounds
  int rounds() const { return aes_rounds(key_size); }
};

/// AES S-box access (derived, not transcribed).
std::uint8_t aes_sbox(std::uint8_t x);
std::uint8_t aes_inv_sbox(std::uint8_t x);

/// GF(2^8) multiply modulo x^8+x^4+x^3+x+1 (0x11B).
std::uint8_t gf256_mul(std::uint8_t a, std::uint8_t b);

/// FIPS-197 key expansion. `key` must contain exactly the key-size bytes.
AesRoundKeys aes_expand_key(ByteSpan key);

/// Encrypt / decrypt one block with pre-expanded keys. Dispatches to the
/// active crypto kernel tier (crypto/kernels.h): AES-NI where the CPU has
/// it, the T-table reference otherwise — bit-identical either way.
Block128 aes_encrypt_block(const AesRoundKeys& keys, const Block128& in);
Block128 aes_decrypt_block(const AesRoundKeys& keys, const Block128& in);

/// The portable T-table implementations, always compiled: the differential
/// oracle for the hardware tiers and the body of the portable kernel set.
Block128 aes_encrypt_block_portable(const AesRoundKeys& keys, const Block128& in);
Block128 aes_decrypt_block_portable(const AesRoundKeys& keys, const Block128& in);

/// One-shot helpers (expand + single block).
Block128 aes_encrypt_block(ByteSpan key, const Block128& in);

// --- Column-granular round steps of the iterative core's datapath --------

/// Compute column `col` (0..3) of SubBytes∘ShiftRows∘MixColumns(state) ^ rk.
/// Applying this for all four columns equals one full middle round.
std::uint32_t encrypt_round_column(const Block128& state, const Block128& rk, int col);

/// Same for the final round (no MixColumns).
std::uint32_t final_round_column(const Block128& state, const Block128& rk, int col);

}  // namespace mccp::crypto
