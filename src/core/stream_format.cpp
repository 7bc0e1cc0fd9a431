#include "core/stream_format.h"

#include <stdexcept>
#include <string>

#include "crypto/gcm.h"
#include "crypto/whirlpool.h"

namespace mccp::core {

namespace {

void require_aligned(ByteSpan payload, const char* what) {
  if (payload.size() % 16 != 0)
    throw std::invalid_argument(std::string(what) +
                                ": payload must be a multiple of 16 bytes "
                                "(hardware blockwise datapath; see DESIGN.md)");
  if (payload.size() / 16 > kMaxInstructionBlocks)
    throw std::invalid_argument(std::string(what) + ": payload exceeds " +
                                std::to_string(kMaxInstructionBlocks) + " blocks");
}

/// The 8-bit header-block field of a task.
std::uint8_t header_field(std::size_t blocks, const char* what) {
  if (blocks > kMaxInstructionBlocks)
    throw std::invalid_argument(std::string(what) + ": AAD exceeds " +
                                std::to_string(kMaxInstructionBlocks) + " header blocks");
  return static_cast<std::uint8_t>(blocks);
}

Block128 gcm_j0_from_iv96(ByteSpan iv) {
  Block128 j0 = Block128::from_span(iv);
  j0.b[15] = 1;
  return j0;
}

}  // namespace

void append_block(WordStream& ws, const Block128& b) {
  for (std::size_t i = 0; i < 4; ++i) ws.push_back(b.word(i));
}

void append_padded(WordStream& ws, ByteSpan data) {
  std::size_t off = 0;
  while (off < data.size()) {
    std::size_t n = data.size() - off < 16 ? data.size() - off : 16;
    append_block(ws, Block128::from_span(data.subspan(off, n)));
    off += n;
  }
}

std::size_t blocks_of(std::size_t n) { return (n + 15) / 16; }

Bytes words_to_bytes(const WordStream& ws) {
  Bytes out(ws.size() * 4);
  for (std::size_t i = 0; i < ws.size(); ++i) store_be32(out.data() + 4 * i, ws[i]);
  return out;
}

ParsedOutput parse_sealed_output(const WordStream& ws, std::size_t data_len,
                                 std::size_t tag_len) {
  Bytes all = words_to_bytes(ws);
  if (all.size() < data_len + (tag_len ? 16 : 0))
    throw std::runtime_error("parse_sealed_output: core produced too little output");
  ParsedOutput out;
  out.payload.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(data_len));
  if (tag_len > 0) {
    auto tag_block = all.begin() + static_cast<std::ptrdiff_t>(data_len);
    out.tag.assign(tag_block, tag_block + static_cast<std::ptrdiff_t>(tag_len));
  }
  return out;
}

// --- GCM ---------------------------------------------------------------------

namespace {
CoreJob format_gcm(bool encrypt, ByteSpan iv, ByteSpan aad, ByteSpan payload,
                   std::size_t tag_len, ByteSpan tag) {
  require_aligned(payload, "gcm");
  if (tag_len < 4 || tag_len > 16) throw std::invalid_argument("gcm: tag_len 4..16");
  Block128 j0 = iv.size() == 12 ? gcm_j0_from_iv96(iv) : Block128{};

  CoreJob job;
  job.params.alg = encrypt ? AlgId::kGcmEncrypt : AlgId::kGcmDecrypt;
  job.params.aad_blocks = header_field(blocks_of(aad.size()), "gcm");
  job.params.data_blocks = static_cast<std::uint8_t>(payload.size() / 16);
  job.params.tag_mask = tag_mask_for_len(static_cast<unsigned>(tag_len));

  if (iv.size() == 12) {
    // Fast path: J0 = IV || 0x00000001, pre-formatted by the controller.
    append_block(job.stream, j0);
  } else {
    // Long-IV path: the core derives J0 = GHASH(IV || pad || len(IV)).
    if (iv.empty()) throw std::invalid_argument("gcm: IV must be non-empty");
    append_padded(job.stream, iv);
    Block128 ivlen{};
    store_be64(ivlen.b.data() + 8, static_cast<std::uint64_t>(iv.size()) * 8);
    append_block(job.stream, ivlen);
    std::size_t n = blocks_of(iv.size()) + 1;
    if (n > kMaxInstructionBlocks) throw std::invalid_argument("gcm: IV too long");
    job.params.iv_blocks = static_cast<std::uint8_t>(n);
  }
  append_padded(job.stream, aad);
  append_padded(job.stream, payload);
  append_block(job.stream, crypto::gcm_length_block(aad.size(), payload.size()));
  if (!encrypt) append_block(job.stream, Block128::from_span(tag));

  job.expected_output_words = payload.size() / 4 + (encrypt ? 4 : 0);
  job.hold_output_until_done = !encrypt;
  return job;
}
}  // namespace

CoreJob format_gcm_encrypt(ByteSpan iv, ByteSpan aad, ByteSpan plaintext,
                           std::size_t tag_len) {
  return format_gcm(true, iv, aad, plaintext, tag_len, {});
}

CoreJob format_gcm_decrypt(ByteSpan iv, ByteSpan aad, ByteSpan ciphertext, ByteSpan tag) {
  return format_gcm(false, iv, aad, ciphertext, tag.size(), tag);
}

// --- CCM single core ---------------------------------------------------------

namespace {
CoreJob format_ccm1(bool encrypt, const crypto::CcmParams& p, ByteSpan nonce, ByteSpan aad,
                    ByteSpan payload, ByteSpan tag) {
  require_aligned(payload, "ccm");
  if (!crypto::ccm_params_valid(p)) throw std::invalid_argument("ccm: invalid parameters");
  if (nonce.size() != p.nonce_len) throw std::invalid_argument("ccm: nonce length mismatch");

  Bytes enc_aad = crypto::ccm_encode_aad(aad);

  CoreJob job;
  job.params.alg = encrypt ? AlgId::kCcm1Encrypt : AlgId::kCcm1Decrypt;
  job.params.aad_blocks = header_field(enc_aad.size() / 16, "ccm");
  job.params.data_blocks = static_cast<std::uint8_t>(payload.size() / 16);
  job.params.tag_mask = tag_mask_for_len(static_cast<unsigned>(p.tag_len));

  append_block(job.stream, crypto::ccm_ctr_block(p, nonce, 1));  // CTR1
  append_block(job.stream, crypto::ccm_b0(p, nonce, aad.size(), payload.size()));
  append_padded(job.stream, enc_aad);
  append_padded(job.stream, payload);
  append_block(job.stream, crypto::ccm_ctr_block(p, nonce, 0));  // CTR0
  if (!encrypt) append_block(job.stream, Block128::from_span(tag));

  job.expected_output_words = payload.size() / 4 + (encrypt ? 4 : 0);
  job.hold_output_until_done = !encrypt;
  return job;
}
}  // namespace

CoreJob format_ccm1_encrypt(const crypto::CcmParams& p, ByteSpan nonce, ByteSpan aad,
                            ByteSpan plaintext) {
  return format_ccm1(true, p, nonce, aad, plaintext, {});
}

CoreJob format_ccm1_decrypt(const crypto::CcmParams& p, ByteSpan nonce, ByteSpan aad,
                            ByteSpan ciphertext, ByteSpan tag) {
  return format_ccm1(false, p, nonce, aad, ciphertext, tag);
}

// --- CCM two-core split ------------------------------------------------------

CcmSplitJobs format_ccm2_encrypt(const crypto::CcmParams& p, ByteSpan nonce, ByteSpan aad,
                                 ByteSpan plaintext) {
  require_aligned(plaintext, "ccm2");
  if (!crypto::ccm_params_valid(p)) throw std::invalid_argument("ccm: invalid parameters");
  if (nonce.size() != p.nonce_len) throw std::invalid_argument("ccm: nonce length mismatch");
  Bytes enc_aad = crypto::ccm_encode_aad(aad);

  CcmSplitJobs jobs;
  jobs.ctr.params.alg = AlgId::kCcmCtrEncrypt;
  jobs.ctr.params.data_blocks = static_cast<std::uint8_t>(plaintext.size() / 16);
  jobs.ctr.params.tag_mask = tag_mask_for_len(static_cast<unsigned>(p.tag_len));
  append_block(jobs.ctr.stream, crypto::ccm_ctr_block(p, nonce, 0));
  append_padded(jobs.ctr.stream, plaintext);
  jobs.ctr.expected_output_words = plaintext.size() / 4 + 4;

  jobs.mac.params.alg = AlgId::kCcmMacEncrypt;
  jobs.mac.params.aad_blocks = header_field(enc_aad.size() / 16, "ccm2");
  jobs.mac.params.data_blocks = static_cast<std::uint8_t>(plaintext.size() / 16);
  append_block(jobs.mac.stream, crypto::ccm_b0(p, nonce, aad.size(), plaintext.size()));
  append_padded(jobs.mac.stream, enc_aad);
  append_padded(jobs.mac.stream, plaintext);
  jobs.mac.expected_output_words = 0;
  return jobs;
}

CcmSplitJobs format_ccm2_decrypt(const crypto::CcmParams& p, ByteSpan nonce, ByteSpan aad,
                                 ByteSpan ciphertext, ByteSpan tag) {
  require_aligned(ciphertext, "ccm2");
  if (!crypto::ccm_params_valid(p)) throw std::invalid_argument("ccm: invalid parameters");
  if (nonce.size() != p.nonce_len) throw std::invalid_argument("ccm: nonce length mismatch");
  Bytes enc_aad = crypto::ccm_encode_aad(aad);

  CcmSplitJobs jobs;
  jobs.ctr.params.alg = AlgId::kCcmCtrDecrypt;
  jobs.ctr.params.data_blocks = static_cast<std::uint8_t>(ciphertext.size() / 16);
  append_block(jobs.ctr.stream, crypto::ccm_ctr_block(p, nonce, 0));
  append_padded(jobs.ctr.stream, ciphertext);
  jobs.ctr.expected_output_words = ciphertext.size() / 4;
  jobs.ctr.hold_output_until_done = true;

  jobs.mac.params.alg = AlgId::kCcmMacDecrypt;
  jobs.mac.params.aad_blocks = header_field(enc_aad.size() / 16, "ccm2");
  jobs.mac.params.data_blocks = static_cast<std::uint8_t>(ciphertext.size() / 16);
  jobs.mac.params.tag_mask = tag_mask_for_len(static_cast<unsigned>(p.tag_len));
  append_block(jobs.mac.stream, crypto::ccm_b0(p, nonce, aad.size(), ciphertext.size()));
  append_padded(jobs.mac.stream, enc_aad);
  append_block(jobs.mac.stream, Block128::from_span(tag));
  jobs.mac.expected_output_words = 0;
  return jobs;
}

// --- plain CTR / CBC-MAC ------------------------------------------------------

CoreJob format_ctr(const Block128& initial_counter, ByteSpan data) {
  require_aligned(data, "ctr");
  CoreJob job;
  job.params.alg = AlgId::kCtr;
  job.params.data_blocks = static_cast<std::uint8_t>(data.size() / 16);
  append_block(job.stream, initial_counter);
  append_padded(job.stream, data);
  job.expected_output_words = data.size() / 4;
  return job;
}

CoreJob format_cbcmac_generate(ByteSpan message, std::size_t tag_len) {
  require_aligned(message, "cbcmac");
  if (message.empty()) throw std::invalid_argument("cbcmac: empty message");
  CoreJob job;
  job.params.alg = AlgId::kCbcMacGenerate;
  job.params.data_blocks = static_cast<std::uint8_t>(message.size() / 16 - 1);
  job.params.tag_mask = tag_mask_for_len(static_cast<unsigned>(tag_len));
  append_padded(job.stream, message);
  job.expected_output_words = 4;
  return job;
}

CoreJob format_whirlpool_hash(ByteSpan message) {
  if (crypto::whirlpool_padded_len(message.size()) / 64 > kMaxInstructionBlocks)
    throw std::invalid_argument("whirlpool: message exceeds " +
                                std::to_string(kMaxInstructionBlocks) + " blocks");
  Bytes padded = crypto::whirlpool_pad(message);
  CoreJob job;
  job.params.alg = AlgId::kWhirlpoolHash;
  job.params.data_blocks = static_cast<std::uint8_t>(padded.size() / 64);
  append_padded(job.stream, padded);
  job.expected_output_words = 16;  // 512-bit digest
  return job;
}

CoreJob format_cbcmac_verify(ByteSpan message, ByteSpan tag) {
  require_aligned(message, "cbcmac");
  if (message.empty()) throw std::invalid_argument("cbcmac: empty message");
  CoreJob job;
  job.params.alg = AlgId::kCbcMacVerify;
  job.params.data_blocks = static_cast<std::uint8_t>(message.size() / 16 - 1);
  job.params.tag_mask = tag_mask_for_len(static_cast<unsigned>(tag.size()));
  append_padded(job.stream, message);
  append_block(job.stream, Block128::from_span(tag));
  job.expected_output_words = 0;
  return job;
}

}  // namespace mccp::core
