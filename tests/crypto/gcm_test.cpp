// AES-GCM against the classic NIST/McGrew-Viega test cases plus behavioural
// property tests (round trips, tamper rejection, IV handling).
#include "crypto/gcm.h"

#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"

namespace mccp::crypto {
namespace {

// Test Case 1: zero key, zero 96-bit IV, empty everything.
TEST(Gcm, NistTestCase1) {
  auto keys = aes_expand_key(Bytes(16, 0));
  auto sealed = gcm_seal(keys, Bytes(12, 0), {}, {});
  EXPECT_TRUE(sealed.ciphertext.empty());
  EXPECT_EQ(to_hex(sealed.tag), "58e2fccefa7e3061367f1d57a4e7455a");
}

// Test Case 2: zero key/IV, one zero plaintext block.
TEST(Gcm, NistTestCase2) {
  auto keys = aes_expand_key(Bytes(16, 0));
  auto sealed = gcm_seal(keys, Bytes(12, 0), {}, Bytes(16, 0));
  EXPECT_EQ(to_hex(sealed.ciphertext), "0388dace60b6a392f328c2b971b2fe78");
  EXPECT_EQ(to_hex(sealed.tag), "ab6e47d42cec13bdf53a67b21257bddf");
}

// Test Case 3: 4-block plaintext, no AAD.
TEST(Gcm, NistTestCase3) {
  auto keys = aes_expand_key(from_hex("feffe9928665731c6d6a8f9467308308"));
  Bytes pt = from_hex(
      "d9313225f88406e5a55909c5aff5269a"
      "86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525"
      "b16aedf5aa0de657ba637b391aafd255");
  Bytes iv = from_hex("cafebabefacedbaddecaf888");
  auto sealed = gcm_seal(keys, iv, {}, pt);
  EXPECT_EQ(to_hex(sealed.ciphertext),
            "42831ec2217774244b7221b784d0d49c"
            "e3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa05"
            "1ba30b396a0aac973d58e091473f5985");
  EXPECT_EQ(to_hex(sealed.tag), "4d5c2af327cd64a62cf35abd2ba6fab4");
}

// Test Case 4: truncated plaintext + AAD.
TEST(Gcm, NistTestCase4) {
  auto keys = aes_expand_key(from_hex("feffe9928665731c6d6a8f9467308308"));
  Bytes pt = from_hex(
      "d9313225f88406e5a55909c5aff5269a"
      "86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525"
      "b16aedf5aa0de657ba637b39");
  Bytes aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  Bytes iv = from_hex("cafebabefacedbaddecaf888");
  auto sealed = gcm_seal(keys, iv, aad, pt);
  EXPECT_EQ(to_hex(sealed.ciphertext),
            "42831ec2217774244b7221b784d0d49c"
            "e3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa05"
            "1ba30b396a0aac973d58e091");
  EXPECT_EQ(to_hex(sealed.tag), "5bc94fbc3221a5db94fae95ae7121a47");
}

TEST(Gcm, HashSubkeyIsEncryptionOfZero) {
  Rng rng(1);
  Bytes key = rng.bytes(16);
  auto keys = aes_expand_key(key);
  EXPECT_EQ(gcm_hash_subkey(keys), aes_encrypt_block(keys, Block128{}));
}

TEST(Gcm, J0FastPathFor96BitIv) {
  auto keys = aes_expand_key(Bytes(16, 1));
  Bytes iv = from_hex("000102030405060708090a0b");
  Block128 j0 = gcm_j0(keys, iv);
  EXPECT_EQ(to_hex(j0.to_bytes()), "000102030405060708090a0b00000001");
}

TEST(Gcm, NonStandardIvLengthGoesThroughGhash) {
  auto keys = aes_expand_key(Bytes(16, 1));
  Bytes iv8 = from_hex("0001020304050607");
  Block128 j0 = gcm_j0(keys, iv8);
  // Must differ from naive zero-padding and be deterministic.
  EXPECT_NE(to_hex(j0.to_bytes()), "00010203040506070000000000000001");
  EXPECT_EQ(j0, gcm_j0(keys, iv8));
}

class GcmRoundTrip : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(GcmRoundTrip, OpenInvertsSeal) {
  auto [key_len, pt_len] = GetParam();
  Rng rng(key_len * 1000 + pt_len);
  Bytes key = rng.bytes(key_len);
  auto keys = aes_expand_key(key);
  Bytes iv = rng.bytes(12);
  Bytes aad = rng.bytes(pt_len % 37);
  Bytes pt = rng.bytes(pt_len);
  auto sealed = gcm_seal(keys, iv, aad, pt);
  auto opened = gcm_open(keys, iv, aad, sealed.ciphertext, sealed.tag);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

INSTANTIATE_TEST_SUITE_P(
    SizesByKey, GcmRoundTrip,
    ::testing::Combine(::testing::Values(16u, 24u, 32u),
                       ::testing::Values(0u, 1u, 15u, 16u, 17u, 64u, 255u, 2048u)));

TEST(Gcm, TamperedCiphertextRejected) {
  Rng rng(9);
  auto keys = aes_expand_key(rng.bytes(16));
  Bytes iv = rng.bytes(12), aad = rng.bytes(8), pt = rng.bytes(64);
  auto sealed = gcm_seal(keys, iv, aad, pt);
  sealed.ciphertext[10] ^= 1;
  EXPECT_FALSE(gcm_open(keys, iv, aad, sealed.ciphertext, sealed.tag).has_value());
}

TEST(Gcm, TamperedAadRejected) {
  Rng rng(10);
  auto keys = aes_expand_key(rng.bytes(16));
  Bytes iv = rng.bytes(12), aad = rng.bytes(8), pt = rng.bytes(64);
  auto sealed = gcm_seal(keys, iv, aad, pt);
  aad[0] ^= 0x80;
  EXPECT_FALSE(gcm_open(keys, iv, aad, sealed.ciphertext, sealed.tag).has_value());
}

TEST(Gcm, TamperedTagRejected) {
  Rng rng(11);
  auto keys = aes_expand_key(rng.bytes(16));
  Bytes iv = rng.bytes(12), pt = rng.bytes(64);
  auto sealed = gcm_seal(keys, iv, {}, pt);
  sealed.tag[15] ^= 1;
  EXPECT_FALSE(gcm_open(keys, iv, {}, sealed.ciphertext, sealed.tag).has_value());
}

TEST(Gcm, TruncatedTagsSupported) {
  Rng rng(12);
  auto keys = aes_expand_key(rng.bytes(16));
  Bytes iv = rng.bytes(12), pt = rng.bytes(48);
  for (std::size_t tag_len : {4u, 8u, 12u, 16u}) {
    auto sealed = gcm_seal(keys, iv, {}, pt, tag_len);
    EXPECT_EQ(sealed.tag.size(), tag_len);
    EXPECT_TRUE(gcm_open(keys, iv, {}, sealed.ciphertext, sealed.tag).has_value());
  }
}

TEST(Gcm, RejectsBadParameters) {
  auto keys = aes_expand_key(Bytes(16, 0));
  EXPECT_THROW(gcm_seal(keys, {}, {}, Bytes(16)), std::invalid_argument);
  EXPECT_THROW(gcm_seal(keys, Bytes(12), {}, Bytes(16), 3), std::invalid_argument);
  EXPECT_THROW(gcm_seal(keys, Bytes(12), {}, Bytes(16), 17), std::invalid_argument);
}

TEST(Gcm, OpenRefusesEmptyIv) {
  // A seal throws on an empty IV (GCM defines no J0 for it), so an open
  // must not quietly derive one: it fails like a bad tag.
  Rng rng(13);
  auto keys = aes_expand_key(rng.bytes(16));
  GcmKey cached(keys);
  Bytes ct = rng.bytes(32), tag = rng.bytes(16);
  EXPECT_FALSE(gcm_open(keys, {}, {}, ct, tag).has_value());
  EXPECT_FALSE(gcm_open(cached, {}, {}, ct, tag).has_value());
  EXPECT_FALSE(gcm_open(cached, {}, {}, ct, tag, GcmCounter::kInc16).has_value());
}

TEST(Gcm, OpenAnyTagTakesOneToSixteenBytes) {
  // gcm_open_any_tag checks a truncated tag of 1..16 bytes (the MCCP GCM
  // core's range) against the full tag; gcm_open keeps SP 800-38D's 4-byte
  // floor. Neither takes an empty or over-long tag or an empty IV.
  Rng rng(15);
  GcmKey key(aes_expand_key(rng.bytes(16)));
  Bytes iv = rng.bytes(12), aad = rng.bytes(5), pt = rng.bytes(37);
  const GcmSealed sealed = gcm_seal(key, iv, aad, pt);
  const ByteSpan tag(sealed.tag);
  for (std::size_t n = 1; n <= 16; ++n) {
    const auto opened = gcm_open_any_tag(key, iv, aad, sealed.ciphertext, tag.first(n),
                                         GcmCounter::kInc32);
    ASSERT_TRUE(opened.has_value()) << n;
    EXPECT_EQ(*opened, pt) << n;
    EXPECT_EQ(gcm_open(key, iv, aad, sealed.ciphertext, tag.first(n)).has_value(), n >= 4) << n;
    Bytes bad(tag.begin(), tag.begin() + static_cast<std::ptrdiff_t>(n));
    bad[n - 1] ^= 0x04;
    EXPECT_FALSE(gcm_open_any_tag(key, iv, aad, sealed.ciphertext, bad, GcmCounter::kInc32)) << n;
  }
  Bytes long_tag = sealed.tag;
  long_tag.push_back(0);
  EXPECT_FALSE(gcm_open_any_tag(key, iv, aad, sealed.ciphertext, {}, GcmCounter::kInc32));
  EXPECT_FALSE(gcm_open_any_tag(key, iv, aad, sealed.ciphertext, long_tag, GcmCounter::kInc32));
  EXPECT_FALSE(gcm_open_any_tag(key, {}, aad, sealed.ciphertext, tag, GcmCounter::kInc32));
}

TEST(Gcm, CounterWalksAgreeFor96BitIvs) {
  // A 96-bit IV starts the walk at 2, so inc16 cannot wrap within a
  // payload of fewer than 0xFFFE blocks and both walks seal alike.
  Rng rng(14);
  GcmKey key(aes_expand_key(rng.bytes(32)));
  Bytes iv = rng.bytes(12), aad = rng.bytes(9), pt = rng.bytes(4096 + 11);
  auto a = gcm_seal(key, iv, aad, pt, 16, GcmCounter::kInc32);
  auto b = gcm_seal(key, iv, aad, pt, 16, GcmCounter::kInc16);
  EXPECT_EQ(a.ciphertext, b.ciphertext);
  EXPECT_EQ(a.tag, b.tag);
}

// ---- GcmKey: the cached-key fast path must be indistinguishable from the
// per-call overloads across key sizes, IV lengths (96-bit fast path and
// GHASH-derived J0s) and tag lengths.

TEST(GcmKey, BundlesHashSubkeyAndTable) {
  Rng rng(21);
  auto keys = aes_expand_key(rng.bytes(16));
  GcmKey cached(keys);
  EXPECT_EQ(cached.h(), gcm_hash_subkey(keys));
  EXPECT_EQ(cached.keys.key_size, keys.key_size);
}

TEST(GcmKey, SealAndOpenMatchUncachedOverloads) {
  Rng rng(22);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    GcmKey cached(keys);
    for (std::size_t iv_len : {12u, 8u, 13u, 60u}) {
      Bytes iv = rng.bytes(iv_len), aad = rng.bytes(23), pt = rng.bytes(100);
      EXPECT_EQ(gcm_j0(cached, iv), gcm_j0(keys, iv));
      auto a = gcm_seal(keys, iv, aad, pt, 12);
      auto b = gcm_seal(cached, iv, aad, pt, 12);
      EXPECT_EQ(a.ciphertext, b.ciphertext) << key_len << "/" << iv_len;
      EXPECT_EQ(a.tag, b.tag) << key_len << "/" << iv_len;
      auto opened = gcm_open(cached, iv, aad, b.ciphertext, b.tag);
      ASSERT_TRUE(opened.has_value());
      EXPECT_EQ(*opened, pt);
      b.tag[0] ^= 1;
      EXPECT_FALSE(gcm_open(cached, iv, aad, b.ciphertext, b.tag).has_value());
    }
  }
}

TEST(GcmKey, ReusableAcrossManyPackets) {
  Rng rng(23);
  auto keys = aes_expand_key(rng.bytes(16));
  GcmKey cached(keys);
  for (int i = 0; i < 32; ++i) {
    Bytes iv = rng.bytes(12), pt = rng.bytes(16 + static_cast<std::size_t>(i) * 7);
    auto a = gcm_seal(keys, iv, {}, pt);
    auto b = gcm_seal(cached, iv, {}, pt);
    EXPECT_EQ(a.tag, b.tag) << i;
  }
}

}  // namespace
}  // namespace mccp::crypto
