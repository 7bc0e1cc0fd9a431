// AES-CCM against NIST SP 800-38C worked examples and RFC 3610 packet
// vector 1, plus formatting-function unit tests and behavioural properties.
#include "crypto/ccm.h"

#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/cbc_mac.h"

namespace mccp::crypto {
namespace {

// SP 800-38C Example 1: Klen=128, Tlen=32, Nlen=56, Alen=64, Plen=32.
TEST(Ccm, Sp80038cExample1) {
  auto keys = aes_expand_key(from_hex("404142434445464748494a4b4c4d4e4f"));
  CcmParams p{.tag_len = 4, .nonce_len = 7};
  Bytes nonce = from_hex("10111213141516");
  Bytes aad = from_hex("0001020304050607");
  Bytes pt = from_hex("20212223");
  auto sealed = ccm_seal(keys, p, nonce, aad, pt);
  EXPECT_EQ(to_hex(sealed.ciphertext), "7162015b");
  EXPECT_EQ(to_hex(sealed.tag), "4dac255d");
}

// SP 800-38C Example 2: Tlen=48, Nlen=64, Alen=128, Plen=128.
TEST(Ccm, Sp80038cExample2) {
  auto keys = aes_expand_key(from_hex("404142434445464748494a4b4c4d4e4f"));
  CcmParams p{.tag_len = 6, .nonce_len = 8};
  Bytes nonce = from_hex("1011121314151617");
  Bytes aad = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes pt = from_hex("202122232425262728292a2b2c2d2e2f");
  auto sealed = ccm_seal(keys, p, nonce, aad, pt);
  EXPECT_EQ(to_hex(sealed.ciphertext), "d2a1f0e051ea5f62081a7792073d593d");
  EXPECT_EQ(to_hex(sealed.tag), "1fc64fbfaccd");
}

// RFC 3610 Packet Vector #1.
TEST(Ccm, Rfc3610Vector1) {
  auto keys = aes_expand_key(from_hex("c0c1c2c3c4c5c6c7c8c9cacbcccdcecf"));
  CcmParams p{.tag_len = 8, .nonce_len = 13};
  Bytes nonce = from_hex("00000003020100a0a1a2a3a4a5");
  Bytes aad = from_hex("0001020304050607");
  Bytes pt = from_hex("08090a0b0c0d0e0f101112131415161718191a1b1c1d1e");
  auto sealed = ccm_seal(keys, p, nonce, aad, pt);
  EXPECT_EQ(to_hex(sealed.ciphertext), "588c979a61c663d2f066d0c2c0f989806d5f6b61dac384");
  EXPECT_EQ(to_hex(sealed.tag), "17e8d12cfdf926e0");
}

TEST(Ccm, B0BlockLayout) {
  CcmParams p{.tag_len = 8, .nonce_len = 13};
  Bytes nonce = from_hex("00000003020100a0a1a2a3a4a5");
  Block128 b0 = ccm_b0(p, nonce, /*aad_len=*/8, /*msg_len=*/23);
  // flags: Adata(0x40) | ((8-2)/2)<<3 (0x18) | (q-1 = 1) -> 0x59.
  EXPECT_EQ(to_hex(b0.to_bytes()), "5900000003020100a0a1a2a3a4a50017");
}

TEST(Ccm, B0FlagsWithoutAad) {
  CcmParams p{.tag_len = 4, .nonce_len = 7};
  Block128 b0 = ccm_b0(p, Bytes(7, 0), 0, 4);
  EXPECT_EQ(b0.b[0], 0x0F);  // no Adata bit, (4-2)/2=1 -> 0x08, q-1=7
}

TEST(Ccm, CtrBlockLayout) {
  CcmParams p{.tag_len = 8, .nonce_len = 13};
  Bytes nonce = from_hex("00000003020100a0a1a2a3a4a5");
  EXPECT_EQ(to_hex(ccm_ctr_block(p, nonce, 0).to_bytes()),
            "0100000003020100a0a1a2a3a4a50000");
  EXPECT_EQ(to_hex(ccm_ctr_block(p, nonce, 1).to_bytes()),
            "0100000003020100a0a1a2a3a4a50001");
}

TEST(Ccm, AadEncodingShortForm) {
  Bytes aad(10, 0xAB);
  Bytes enc = ccm_encode_aad(aad);
  ASSERT_EQ(enc.size(), 16u);  // 2-byte length + 10 bytes + padding
  EXPECT_EQ(enc[0], 0x00);
  EXPECT_EQ(enc[1], 0x0A);
  EXPECT_EQ(enc[2], 0xAB);
  EXPECT_EQ(enc[15], 0x00);
}

TEST(Ccm, AadEncodingLongForm) {
  Bytes aad(0xFF00, 0x11);  // >= 0xFF00 needs the 0xFFFE 32-bit form
  Bytes enc = ccm_encode_aad(aad);
  EXPECT_EQ(enc[0], 0xFF);
  EXPECT_EQ(enc[1], 0xFE);
  EXPECT_EQ(enc[2], 0x00);
  EXPECT_EQ(enc[3], 0x00);
  EXPECT_EQ(enc[4], 0xFF);
  EXPECT_EQ(enc[5], 0x00);
  EXPECT_EQ(enc.size() % 16, 0u);
}

TEST(Ccm, EmptyAadEncodesEmpty) { EXPECT_TRUE(ccm_encode_aad({}).empty()); }

TEST(Ccm, AadBlocksCountTheEncodingWithoutBuildingIt) {
  for (std::size_t len : {0x0, 0x1, 0xD, 0xE, 0xF, 0x10, 0x11, 0xFEFF, 0xFF00, 0xFF01}) {
    EXPECT_EQ(ccm_aad_blocks(len), ccm_encode_aad(Bytes(len, 0)).size() / 16) << len;
  }
}

TEST(Ccm, SealTagCoversTheEncodedAadAtEveryLength) {
  // The seal streams the AAD encoding through a fixed buffer; the tag must
  // equal T ^ E(Ctr_0) with T the CBC-MAC of B0, ccm_encode_aad(aad) and the
  // padded payload, built the long way, across short and long forms and
  // buffer boundaries.
  Rng rng(38);
  const AesRoundKeys keys = aes_expand_key(rng.bytes(16));
  const CcmParams p{16, 13};
  const Bytes nonce = rng.bytes(13), pt = rng.bytes(40);
  for (std::size_t len : {1, 14, 15, 16, 253, 254, 255, 256, 510, 4000, 0xFEFF, 0xFF00, 0x1000F}) {
    const Bytes aad = rng.bytes(len);
    CbcMac mac(keys);
    mac.update(ccm_b0(p, nonce, aad.size(), pt.size()));
    mac.update_padded(ccm_encode_aad(aad));
    mac.update_padded(pt);
    const Block128 tag = mac.mac() ^ aes_encrypt_block(keys, ccm_ctr_block(p, nonce, 0));
    EXPECT_EQ(ccm_seal(keys, p, nonce, aad, pt).tag, Bytes(tag.b.begin(), tag.b.end())) << len;
  }
}

TEST(Ccm, ParamValidation) {
  EXPECT_TRUE(ccm_params_valid({.tag_len = 8, .nonce_len = 13}));
  EXPECT_FALSE(ccm_params_valid({.tag_len = 3, .nonce_len = 13}));
  EXPECT_FALSE(ccm_params_valid({.tag_len = 7, .nonce_len = 13}));   // odd
  EXPECT_FALSE(ccm_params_valid({.tag_len = 18, .nonce_len = 13}));
  EXPECT_FALSE(ccm_params_valid({.tag_len = 8, .nonce_len = 6}));
  EXPECT_FALSE(ccm_params_valid({.tag_len = 8, .nonce_len = 14}));
}

class CcmRoundTrip : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(CcmRoundTrip, OpenInvertsSeal) {
  auto [key_len, pt_len] = GetParam();
  Rng rng(key_len * 7919 + pt_len);
  auto keys = aes_expand_key(rng.bytes(key_len));
  CcmParams p{.tag_len = 8, .nonce_len = 13};
  Bytes nonce = rng.bytes(p.nonce_len);
  Bytes aad = rng.bytes(pt_len % 29);
  Bytes pt = rng.bytes(pt_len);
  auto sealed = ccm_seal(keys, p, nonce, aad, pt);
  auto opened = ccm_open(keys, p, nonce, aad, sealed.ciphertext, sealed.tag);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

INSTANTIATE_TEST_SUITE_P(
    SizesByKey, CcmRoundTrip,
    ::testing::Combine(::testing::Values(16u, 24u, 32u),
                       ::testing::Values(0u, 1u, 16u, 31u, 64u, 333u, 2048u)));

TEST(Ccm, TamperingRejected) {
  Rng rng(13);
  auto keys = aes_expand_key(rng.bytes(16));
  CcmParams p{.tag_len = 10, .nonce_len = 12};
  Bytes nonce = rng.bytes(12), aad = rng.bytes(5), pt = rng.bytes(50);
  auto sealed = ccm_seal(keys, p, nonce, aad, pt);
  auto bad_ct = sealed.ciphertext;
  bad_ct[0] ^= 1;
  EXPECT_FALSE(ccm_open(keys, p, nonce, aad, bad_ct, sealed.tag).has_value());
  auto bad_tag = sealed.tag;
  bad_tag[0] ^= 1;
  EXPECT_FALSE(ccm_open(keys, p, nonce, aad, sealed.ciphertext, bad_tag).has_value());
  Bytes bad_aad = aad;
  bad_aad[0] ^= 1;
  EXPECT_FALSE(ccm_open(keys, p, nonce, bad_aad, sealed.ciphertext, sealed.tag).has_value());
}

TEST(Ccm, WrongTagLengthRejectedCleanly) {
  Rng rng(14);
  auto keys = aes_expand_key(rng.bytes(16));
  CcmParams p{.tag_len = 8, .nonce_len = 13};
  Bytes nonce = rng.bytes(13), pt = rng.bytes(10);
  auto sealed = ccm_seal(keys, p, nonce, {}, pt);
  Bytes short_tag(sealed.tag.begin(), sealed.tag.begin() + 4);
  EXPECT_FALSE(ccm_open(keys, p, nonce, {}, sealed.ciphertext, short_tag).has_value());
}

TEST(Ccm, NonceLengthMismatchThrows) {
  auto keys = aes_expand_key(Bytes(16, 0));
  CcmParams p{.tag_len = 8, .nonce_len = 13};
  EXPECT_THROW(ccm_seal(keys, p, Bytes(12), {}, Bytes(4)), std::invalid_argument);
}

}  // namespace
}  // namespace mccp::crypto
