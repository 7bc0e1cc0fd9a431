// AES validation: FIPS-197 known-answer tests, S-box structure, round trips
// and the column-serial round helpers the cycle-level core model relies on.
#include "crypto/aes.h"

#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"

namespace mccp::crypto {
namespace {

// FIPS-197 Appendix C example vectors (same plaintext, three key sizes).
const char* kPlain = "00112233445566778899aabbccddeeff";

TEST(Aes, Fips197Aes128) {
  Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  Block128 ct = aes_encrypt_block(key, block_from_hex(kPlain));
  EXPECT_EQ(to_hex(ct.to_bytes()), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes, Fips197Aes192) {
  Bytes key = from_hex("000102030405060708090a0b0c0d0e0f1011121314151617");
  Block128 ct = aes_encrypt_block(key, block_from_hex(kPlain));
  EXPECT_EQ(to_hex(ct.to_bytes()), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(Aes, Fips197Aes256) {
  Bytes key = from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Block128 ct = aes_encrypt_block(key, block_from_hex(kPlain));
  EXPECT_EQ(to_hex(ct.to_bytes()), "8ea2b7ca516745bfeafc49904b496089");
}

// FIPS-197 Appendix B worked example (AES-128, different key/plaintext).
TEST(Aes, Fips197AppendixB) {
  Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Block128 ct = aes_encrypt_block(key, block_from_hex("3243f6a8885a308d313198a2e0370734"));
  EXPECT_EQ(to_hex(ct.to_bytes()), "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes, SboxKnownEntriesAndBijectivity) {
  // Spot values from the FIPS-197 table.
  EXPECT_EQ(aes_sbox(0x00), 0x63);
  EXPECT_EQ(aes_sbox(0x01), 0x7c);
  EXPECT_EQ(aes_sbox(0x53), 0xed);
  EXPECT_EQ(aes_sbox(0xff), 0x16);
  bool seen[256] = {};
  for (int i = 0; i < 256; ++i) {
    std::uint8_t s = aes_sbox(static_cast<std::uint8_t>(i));
    EXPECT_FALSE(seen[s]) << "S-box not injective at " << i;
    seen[s] = true;
    EXPECT_EQ(aes_inv_sbox(s), i);
  }
}

TEST(Aes, SboxHasNoFixedPoints) {
  for (int i = 0; i < 256; ++i) {
    auto x = static_cast<std::uint8_t>(i);
    EXPECT_NE(aes_sbox(x), x);
    EXPECT_NE(aes_sbox(x), static_cast<std::uint8_t>(~x));
  }
}

TEST(Aes, KeyExpansionFirstAndLastRoundKey128) {
  // FIPS-197 Appendix A.1: last round key for the 2b7e.. key.
  auto keys = aes_expand_key(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  EXPECT_EQ(keys.rounds(), 10);
  EXPECT_EQ(to_hex(keys.rk[0].to_bytes()), "2b7e151628aed2a6abf7158809cf4f3c");
  EXPECT_EQ(to_hex(keys.rk[10].to_bytes()), "d014f9a8c9ee2589e13f0cc8b6630ca6");
}

TEST(Aes, RejectsBadKeySizes) {
  EXPECT_THROW(aes_expand_key(Bytes(15)), std::invalid_argument);
  EXPECT_THROW(aes_expand_key(Bytes(17)), std::invalid_argument);
  EXPECT_THROW(aes_expand_key(Bytes(0)), std::invalid_argument);
}

class AesRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AesRoundTrip, DecryptInvertsEncrypt) {
  Rng rng(GetParam());
  Bytes key = rng.bytes(GetParam() % 3 == 0 ? 16 : GetParam() % 3 == 1 ? 24 : 32);
  auto keys = aes_expand_key(key);
  for (int i = 0; i < 20; ++i) {
    Block128 pt = rng.block();
    EXPECT_EQ(aes_decrypt_block(keys, aes_encrypt_block(keys, pt)), pt);
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, AesRoundTrip, ::testing::Values(0, 1, 2, 3, 4, 5));

TEST(Aes, ColumnSerialMiddleRoundMatchesFullEncryption) {
  // Drive a full encryption using only the column-granular helpers, the way
  // the paper's 32-bit iterative core computes it, and compare with the
  // block routine the simulated Cryptographic Unit uses.
  Rng rng(99);
  for (std::size_t ks : {16u, 24u, 32u}) {
    auto keys = aes_expand_key(rng.bytes(ks));
    Block128 pt = rng.block();
    Block128 state = pt ^ keys.rk[0];
    const int nr = keys.rounds();
    for (int r = 1; r < nr; ++r) {
      Block128 next;
      for (int c = 0; c < 4; ++c)
        next.set_word(static_cast<std::size_t>(c),
                      encrypt_round_column(state, keys.rk[static_cast<std::size_t>(r)], c));
      state = next;
    }
    Block128 final_state;
    for (int c = 0; c < 4; ++c)
      final_state.set_word(static_cast<std::size_t>(c),
                           final_round_column(state, keys.rk[static_cast<std::size_t>(nr)], c));
    EXPECT_EQ(final_state, aes_encrypt_block(keys, pt));
  }
}

TEST(Aes, CoreCycleContract) {
  // Paper SV.A: 44 / 52 / 60 cycles per block.
  EXPECT_EQ(aes_core_cycles(AesKeySize::k128), 44);
  EXPECT_EQ(aes_core_cycles(AesKeySize::k192), 52);
  EXPECT_EQ(aes_core_cycles(AesKeySize::k256), 60);
}

TEST(Aes, Gf256MulAgainstKnownProducts) {
  EXPECT_EQ(gf256_mul(0x57, 0x83), 0xc1);  // FIPS-197 worked example
  EXPECT_EQ(gf256_mul(0x57, 0x13), 0xfe);
  for (int a = 1; a < 256; a += 7) {
    EXPECT_EQ(gf256_mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(gf256_mul(1, static_cast<std::uint8_t>(a)), a);
  }
}

}  // namespace
}  // namespace mccp::crypto
