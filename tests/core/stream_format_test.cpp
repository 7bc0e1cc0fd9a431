// Stream-formatting contract tests: layouts, sizes, parameter validation
// and output parsing — the interface between the communication controller
// and the core firmware.
#include "core/stream_format.h"

#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/gcm.h"
#include "crypto/whirlpool.h"

namespace mccp::core {
namespace {

TEST(StreamFormat, GcmEncryptLayout) {
  Rng rng(1);
  Bytes iv = rng.bytes(12), aad = rng.bytes(20), pt = rng.bytes(48);
  auto job = format_gcm_encrypt(iv, aad, pt);
  // [J0][2 aad blocks][3 pt blocks][LEN] = 7 blocks = 28 words.
  EXPECT_EQ(job.stream.size(), 28u);
  EXPECT_EQ(job.params.aad_blocks, 2);
  EXPECT_EQ(job.params.data_blocks, 3);
  EXPECT_EQ(job.params.iv_blocks, 0);  // 96-bit fast path
  EXPECT_FALSE(job.hold_output_until_done);
  EXPECT_EQ(job.expected_output_words, 48u / 4 + 4);
  // First block is J0 = IV || 0x00000001.
  Block128 j0;
  for (std::size_t i = 0; i < 4; ++i) j0.set_word(i, job.stream[i]);
  EXPECT_EQ(to_hex(ByteSpan(j0.b.data(), 12)), to_hex(iv));
  EXPECT_EQ(j0.b[15], 1);
}

TEST(StreamFormat, GcmLongIvLayout) {
  Rng rng(9);
  Bytes iv = rng.bytes(20);  // 2 padded blocks + 1 length block
  Bytes pt = rng.bytes(16);
  auto job = format_gcm_encrypt(iv, {}, pt);
  EXPECT_EQ(job.params.iv_blocks, 3);
  // [IV x2][IVLEN][1 pt][LEN] = 5 blocks.
  EXPECT_EQ(job.stream.size(), 20u);
  // The IV-length block carries len(IV) in bits in its low 64 bits.
  Block128 ivlen;
  for (std::size_t i = 0; i < 4; ++i) ivlen.set_word(i, job.stream[8 + i]);
  EXPECT_EQ(load_be64(ivlen.b.data() + 8), 160u);
  EXPECT_EQ(load_be64(ivlen.b.data()), 0u);
}

TEST(StreamFormat, GcmDecryptCarriesTagAndHoldsOutput) {
  Rng rng(2);
  Bytes iv = rng.bytes(12), ct = rng.bytes(32), tag = rng.bytes(16);
  auto job = format_gcm_decrypt(iv, {}, ct, tag);
  EXPECT_TRUE(job.hold_output_until_done);
  EXPECT_EQ(job.params.alg, AlgId::kGcmDecrypt);
  // Tag rides in the final block.
  Block128 last;
  std::size_t base = job.stream.size() - 4;
  for (std::size_t i = 0; i < 4; ++i) last.set_word(i, job.stream[base + i]);
  EXPECT_EQ(to_hex(last.to_bytes()), to_hex(tag));
}

TEST(StreamFormat, GcmRejectsBadInput) {
  Bytes iv12(12);
  EXPECT_THROW(format_gcm_encrypt({}, {}, Bytes(16)), std::invalid_argument);    // empty IV
  EXPECT_THROW(format_gcm_encrypt(iv12, {}, Bytes(15)), std::invalid_argument);  // ragged payload
  EXPECT_THROW(format_gcm_encrypt(iv12, {}, Bytes(16), 3), std::invalid_argument);
  EXPECT_THROW(format_gcm_encrypt(iv12, {}, Bytes(256 * 16)), std::invalid_argument);
  // AAD up to the header field's block count, and not a byte past it.
  const std::size_t max_aad = kMaxInstructionBlocks * 16;
  EXPECT_EQ(format_gcm_encrypt(iv12, Bytes(max_aad), Bytes(16)).params.aad_blocks,
            kMaxInstructionBlocks);
  EXPECT_THROW(format_gcm_encrypt(iv12, Bytes(max_aad + 1), Bytes(16)), std::invalid_argument);
  EXPECT_THROW(format_gcm_decrypt(iv12, Bytes(max_aad + 1), Bytes(16), Bytes(16)),
               std::invalid_argument);
}

TEST(StreamFormat, CcmRejectsAadPastTheHeaderField) {
  // CCM's 2-byte length prefix counts toward the header blocks.
  crypto::CcmParams p{.tag_len = 8, .nonce_len = 13};
  const Bytes nonce(13), pt(16), tag(8);
  const Bytes fits(kMaxInstructionBlocks * 16 - 2), over(kMaxInstructionBlocks * 16 - 1);
  EXPECT_EQ(format_ccm1_encrypt(p, nonce, fits, pt).params.aad_blocks, kMaxInstructionBlocks);
  EXPECT_EQ(format_ccm2_encrypt(p, nonce, fits, pt).mac.params.aad_blocks,
            kMaxInstructionBlocks);
  EXPECT_THROW(format_ccm1_encrypt(p, nonce, over, pt), std::invalid_argument);
  EXPECT_THROW(format_ccm1_decrypt(p, nonce, over, pt, tag), std::invalid_argument);
  EXPECT_THROW(format_ccm2_encrypt(p, nonce, over, pt), std::invalid_argument);
  EXPECT_THROW(format_ccm2_decrypt(p, nonce, over, pt, tag), std::invalid_argument);
}

TEST(StreamFormat, Ccm1LayoutStartsWithCtr1ThenB0) {
  Rng rng(3);
  crypto::CcmParams p{.tag_len = 8, .nonce_len = 13};
  Bytes nonce = rng.bytes(13), pt = rng.bytes(16);
  auto job = format_ccm1_encrypt(p, nonce, {}, pt);
  Block128 first, second;
  for (std::size_t i = 0; i < 4; ++i) first.set_word(i, job.stream[i]);
  for (std::size_t i = 0; i < 4; ++i) second.set_word(i, job.stream[4 + i]);
  EXPECT_EQ(first, crypto::ccm_ctr_block(p, nonce, 1));
  EXPECT_EQ(second, crypto::ccm_b0(p, nonce, 0, 16));
  // Trailing block is CTR0.
  Block128 last;
  std::size_t base = job.stream.size() - 4;
  for (std::size_t i = 0; i < 4; ++i) last.set_word(i, job.stream[base + i]);
  EXPECT_EQ(last, crypto::ccm_ctr_block(p, nonce, 0));
}

TEST(StreamFormat, Ccm2SplitRolesAndExpectations) {
  Rng rng(4);
  crypto::CcmParams p{.tag_len = 8, .nonce_len = 13};
  Bytes nonce = rng.bytes(13), aad = rng.bytes(10), pt = rng.bytes(64);
  auto jobs = format_ccm2_encrypt(p, nonce, aad, pt);
  EXPECT_EQ(jobs.ctr.params.alg, AlgId::kCcmCtrEncrypt);
  EXPECT_EQ(jobs.mac.params.alg, AlgId::kCcmMacEncrypt);
  EXPECT_EQ(jobs.ctr.expected_output_words, 64u / 4 + 4);  // ct + tag
  EXPECT_EQ(jobs.mac.expected_output_words, 0u);           // T goes over the ring
  EXPECT_EQ(jobs.mac.params.aad_blocks, 1);                // 10B aad encodes into 1 block
}

TEST(StreamFormat, TagMaskMatchesTagLength) {
  EXPECT_EQ(tag_mask_for_len(16), 0xFFFF);
  EXPECT_EQ(tag_mask_for_len(8), 0x00FF);
  EXPECT_EQ(tag_mask_for_len(4), 0x000F);
  EXPECT_EQ(tag_mask_for_len(1), 0x0001);
}

TEST(StreamFormat, WhirlpoolPaddingBlocks) {
  // 0..31 bytes -> 1 block; 32..95 -> 2 blocks (length field straddles).
  EXPECT_EQ(format_whirlpool_hash(Bytes(0)).params.data_blocks, 1);
  EXPECT_EQ(format_whirlpool_hash(Bytes(31)).params.data_blocks, 1);
  EXPECT_EQ(format_whirlpool_hash(Bytes(32)).params.data_blocks, 2);
  EXPECT_EQ(format_whirlpool_hash(Bytes(95)).params.data_blocks, 2);
  EXPECT_EQ(format_whirlpool_hash(Bytes(96)).params.data_blocks, 3);
  EXPECT_EQ(crypto::whirlpool_padded_len(0), 64u);
  EXPECT_EQ(crypto::whirlpool_padded_len(31), 64u);
  EXPECT_EQ(crypto::whirlpool_padded_len(32), 128u);
}

TEST(StreamFormat, ParseSealedOutputSplitsPayloadAndTag) {
  WordStream ws;
  for (std::uint32_t i = 0; i < 12; ++i) ws.push_back(i);  // 2 blocks data + 1 block tag
  auto parsed = parse_sealed_output(ws, 32, 8);
  EXPECT_EQ(parsed.payload.size(), 32u);
  EXPECT_EQ(parsed.tag.size(), 8u);
  EXPECT_THROW(parse_sealed_output(ws, 64, 8), std::runtime_error);
}

TEST(StreamFormat, CbcMacBlocksConvention) {
  // data_blocks excludes the first block (loaded by the prologue).
  auto gen = format_cbcmac_generate(Bytes(5 * 16), 8);
  EXPECT_EQ(gen.params.data_blocks, 4);
  EXPECT_THROW(format_cbcmac_generate(Bytes{}, 8), std::invalid_argument);
}

TEST(StreamFormat, WordsToBytesBigEndian) {
  WordStream ws{0x01020304, 0xA1B2C3D4};
  EXPECT_EQ(to_hex(words_to_bytes(ws)), "01020304a1b2c3d4");
}

}  // namespace
}  // namespace mccp::core
