// Core input/output stream formatting.
//
// "Data must be sent in a specific way to be correctly interpreted by the
// cores. At first, algorithm IV must be filed into the FIFO, then packet
// data must be filed. To finish, communication controller must append a
// message authentication tag. ... the communication controller must format
// data prior to send them to the cryptographic cores." (paper SVI.B)
//
// These helpers are that formatting function: they build the exact 32-bit
// word streams the firmware expects (layouts documented in firmware.cpp)
// and parse core output back into bytes. The communication controller in
// host::SimDevice is the production user; core-level tests use them
// directly.
//
// Constraint inherited from the 128-bit blockwise datapath: payloads must
// be multiples of 16 bytes (see DESIGN.md); AAD and tag lengths are free.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "core/params.h"
#include "crypto/ccm.h"

namespace mccp::core {

using WordStream = std::vector<std::uint32_t>;

/// Largest block count a task field can carry: the header, data and IV
/// block counts travel in 8-bit fields (CoreTaskParams and the
/// ENCRYPT/DECRYPT instruction word). The formatters throw past it rather
/// than let a count wrap.
inline constexpr std::size_t kMaxInstructionBlocks = 255;

/// Append a 128-bit block as four big-endian 32-bit words.
void append_block(WordStream& ws, const Block128& b);
/// Append bytes, zero-padding the final partial block.
void append_padded(WordStream& ws, ByteSpan data);
/// Number of 16-byte blocks `n` bytes occupy.
std::size_t blocks_of(std::size_t n);

/// A formatted core task: the input word stream plus mailbox parameters.
struct CoreJob {
  CoreTaskParams params;
  WordStream stream;
  /// Expected number of output words the core will produce.
  std::size_t expected_output_words = 0;
  /// Security policy (paper SIV.C): for decryption the communication
  /// controller must not read the output FIFO until the core has verified
  /// the authentication tag (RETRIEVE_DATA returns OK). Ciphertext from an
  /// encryption may stream out concurrently.
  bool hold_output_until_done = false;
};

// --- GCM (96-bit IV fast path, the communication-protocol standard) -------
CoreJob format_gcm_encrypt(ByteSpan iv, ByteSpan aad, ByteSpan plaintext,
                           std::size_t tag_len = 16);
CoreJob format_gcm_decrypt(ByteSpan iv, ByteSpan aad, ByteSpan ciphertext, ByteSpan tag);

// --- CCM on one core -------------------------------------------------------
CoreJob format_ccm1_encrypt(const crypto::CcmParams& p, ByteSpan nonce, ByteSpan aad,
                            ByteSpan plaintext);
CoreJob format_ccm1_decrypt(const crypto::CcmParams& p, ByteSpan nonce, ByteSpan aad,
                            ByteSpan ciphertext, ByteSpan tag);

// --- CCM split across two cores (jobs for the CTR core and the MAC core) --
struct CcmSplitJobs {
  CoreJob ctr;  // runs kCcmCtrEncrypt / kCcmCtrDecrypt
  CoreJob mac;  // runs kCcmMacEncrypt / kCcmMacDecrypt
};
CcmSplitJobs format_ccm2_encrypt(const crypto::CcmParams& p, ByteSpan nonce, ByteSpan aad,
                                 ByteSpan plaintext);
CcmSplitJobs format_ccm2_decrypt(const crypto::CcmParams& p, ByteSpan nonce, ByteSpan aad,
                                 ByteSpan ciphertext, ByteSpan tag);

// --- plain CTR and CBC-MAC -------------------------------------------------
CoreJob format_ctr(const Block128& initial_counter, ByteSpan data);
CoreJob format_cbcmac_generate(ByteSpan message, std::size_t tag_len = 16);
CoreJob format_cbcmac_verify(ByteSpan message, ByteSpan tag);

// --- Whirlpool hashing (reconfigured Whirlpool CU image) --------------------
/// Pads the message per ISO/IEC 10118-3 and streams it as 512-bit blocks;
/// the core returns the 64-byte digest.
CoreJob format_whirlpool_hash(ByteSpan message);

// --- output parsing ----------------------------------------------------------
/// Drain a word vector into bytes (big-endian words).
Bytes words_to_bytes(const WordStream& ws);
/// Split `data_len` payload bytes + a `tag_len` tag out of core output
/// (output blocks are 16-byte aligned; the tag occupies one final block).
struct ParsedOutput {
  Bytes payload;
  Bytes tag;
};
ParsedOutput parse_sealed_output(const WordStream& ws, std::size_t data_len,
                                 std::size_t tag_len);

}  // namespace mccp::core
