// AES-CCM: Counter with CBC-MAC (NIST SP 800-38C / RFC 3610).
//
// CcmLanes keeps running packets as lanes of the multi-lane CCM kernel
// (up to kMaxCcmLanes per kernel call), the software form of the MCCP
// running independent packets on independent cores: a packet is submitted
// when it starts, and finishing one advances the other parked lanes of its
// round count beside it, so lanes stay busy across packets that start and
// end at different times. ccm_batch submits every job of a batch and
// finishes them all; ccm_seal / ccm_open are out-of-place batches of one.
// Every job is computed in one buffer: an in-place job's own
// (host::FastDevice seals and opens in the job's payload buffer), or a
// copy of an out-of-place job's input.
//
// Besides the seal/open API this header exposes the *formatting
// function* (B0 block, encoded AAD, counter blocks) as standalone helpers.
// The paper's communication controller "must format data prior to send them
// to the cryptographic cores" (§VI.B) — the radio substrate reuses exactly
// these helpers so the simulated cores receive spec-formatted input.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/kernels.h"

namespace mccp::crypto {

struct CcmParams {
  std::size_t tag_len = 16;    // t: 4, 6, 8, 10, 12, 14 or 16 bytes
  std::size_t nonce_len = 13;  // n: 7..13 bytes (q = 15 - n)
};

/// True if the (tag_len, nonce_len) pair is allowed by SP 800-38C.
bool ccm_params_valid(const CcmParams& p);

/// True if a `len`-byte message fits the q = 15 - nonce_len byte length
/// field of B0: with a 13-byte nonce, at most 65 535 bytes.
constexpr bool ccm_length_fits(std::size_t nonce_len, std::uint64_t len) {
  const std::size_t q = 15 - nonce_len;
  return q >= 8 || (len >> (8 * q)) == 0;
}

/// The B0 block: flags || nonce || message length.
Block128 ccm_b0(const CcmParams& p, ByteSpan nonce, std::size_t aad_len, std::size_t msg_len);

/// The a-encoding of the AAD length prepended to the AAD (SP 800-38C A.2.2).
Bytes ccm_encode_aad(ByteSpan aad);

/// ccm_encode_aad(aad).size() / 16 for an `aad_len`-byte AAD, without
/// building the encoding: 0 for no AAD, otherwise the 2-, 6- or 10-byte
/// length prefix plus the AAD, rounded up to whole blocks.
constexpr std::size_t ccm_aad_blocks(std::size_t aad_len) {
  if (aad_len == 0) return 0;
  const std::size_t prefix = aad_len < 0xFF00 ? 2 : aad_len <= 0xFFFFFFFFULL ? 6 : 10;
  return (prefix + aad_len + 15) / 16;
}

/// Counter block Ctr_i: flags(q-1) || nonce || i.
Block128 ccm_ctr_block(const CcmParams& p, ByteSpan nonce, std::uint64_t index);

struct CcmSealed {
  Bytes ciphertext;  // same length as plaintext
  Bytes tag;         // tag_len bytes
};

/// One packet of CcmLanes or ccm_batch: seal `input` (plaintext) or, when `decrypt`,
/// open it (ciphertext) against `tag`. An out-of-place job (seal/open)
/// leaves `input` as it is and puts the result in `output`; an in-place
/// job (seal_in_place/open_in_place) overwrites its buffer with the result
/// and leaves `output` empty. Finishing it fills the results. The spans
/// and `keys` must outlive the job's finish.
struct CcmJob {
  static CcmJob seal(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce, ByteSpan aad,
                     ByteSpan plaintext) {
    CcmJob job;
    job.keys = &keys;
    job.params = p;
    job.nonce = nonce;
    job.aad = aad;
    job.input = plaintext;
    return job;
  }
  static CcmJob open(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce, ByteSpan aad,
                     ByteSpan ciphertext, ByteSpan tag) {
    CcmJob job = seal(keys, p, nonce, aad, ciphertext);
    job.decrypt = true;
    job.tag = tag;
    return job;
  }
  static CcmJob seal_in_place(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce,
                              ByteSpan aad, MutableByteSpan data) {
    CcmJob job = seal(keys, p, nonce, aad, data);
    job.in_place = data;
    return job;
  }
  static CcmJob open_in_place(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce,
                              ByteSpan aad, MutableByteSpan data, ByteSpan tag) {
    CcmJob job = open(keys, p, nonce, aad, data, tag);
    job.in_place = data;
    return job;
  }

  const AesRoundKeys* keys = nullptr;
  CcmParams params;
  bool decrypt = false;
  ByteSpan nonce;
  ByteSpan aad;
  ByteSpan input;
  /// An in-place job's buffer: `input`'s own bytes, which the call
  /// overwrites with the ciphertext, or the plaintext, or zeros when the
  /// open fails. Empty for an out-of-place job.
  MutableByteSpan in_place;
  ByteSpan tag;  // open only

  Bytes output;       // out of place: ciphertext, or plaintext (empty when the open fails)
  Bytes sealed_tag;   // seal only: tag_len bytes
  bool ok = false;    // seal: true; open: the tag verified
};

/// Resumable multi-lane CCM, after the job manager of the multi-buffer
/// papers (Guilford et al., Intel, 2010; ipsec-mb's submit/flush).
/// submit() checks a job, computes its header MAC and parks its payload as
/// a kernel lane. finish() runs one job's lane to its end beside up to
/// kMaxCcmLanes - 1 other parked lanes of its AES round count, refilling a
/// lane whose packet runs out while more wait, then seals or checks the
/// tag. The other lanes keep their progress for their own finish(). Every
/// order of submits and finishes gives ccm_seal / ccm_open's results.
class CcmLanes {
 public:
  /// Room for `capacity` parked jobs before submit() allocates.
  explicit CcmLanes(std::size_t capacity = 0) { slots_.reserve(capacity); }

  /// Park `job` and return its handle. Clears its results and fills an
  /// out-of-place job's `output` with its input (reusing the capacity of
  /// an `output` moved in). An open whose tag is not tag_len bytes fails
  /// (!ok) here, uncomputed. The job's spans and keys must stay valid
  /// until its finish(). Throws std::invalid_argument, parking nothing, on
  /// bad parameters, a nonce of the wrong length or a message too long for
  /// the nonce length.
  std::size_t submit(CcmJob job);

  /// Finish the job parked under `handle` and return it, results filled;
  /// the handle is free again. The reference is valid until the next
  /// submit(). A failed open never leaves unverified plaintext behind: its
  /// buffer is wiped to zeros before `output` is cleared.
  CcmJob& finish(std::size_t handle);

 private:
  struct Slot {
    CcmJob job;
    /// The full payload blocks not yet run, from `lane.in` on.
    CcmLane lane;
    bool live = false;
    bool failed = false;  // refused at submit: nothing to run
  };
  std::vector<Slot> slots_;
  std::size_t live_ = 0;
};

/// Seal or open every job, mixed directions, keys and key sizes in any
/// order: submit all to the calling thread's CcmLanes, then finish all.
/// Jobs of equal AES round count share kernel calls. Throws
/// std::invalid_argument, before any job runs, on bad parameters, a nonce
/// of the wrong length or a message too long for the nonce length. An open
/// whose tag is not tag_len bytes fails (!ok) without being computed. A
/// failed open never leaves unverified plaintext behind: its buffer is
/// wiped to zeros before `output` is cleared.
void ccm_batch(std::span<CcmJob> jobs);

/// Authenticated encryption of a copy of `plaintext`. Throws
/// std::invalid_argument on bad parameters.
CcmSealed ccm_seal(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce, ByteSpan aad,
                   ByteSpan plaintext);

/// Authenticated decryption of a copy of `ciphertext`; nullopt when the
/// tag does not verify (the unverified plaintext is wiped first).
std::optional<Bytes> ccm_open(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce,
                              ByteSpan aad, ByteSpan ciphertext, ByteSpan tag);

}  // namespace mccp::crypto
