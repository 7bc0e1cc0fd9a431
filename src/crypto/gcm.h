// AES-GCM: Galois/Counter Mode (NIST SP 800-38D).
//
// One seal and one open serve every caller, and both work in place: each
// runs the caller's one buffer through the kernel tier's CTR keystream and
// its GHASH (16 blocks per reduction on `vaes`, 8 on `aesni`) over the
// ciphertext, and takes the counter walk as a parameter: the spec's inc32,
// or the MCCP INC core's inc16, which host::FastDevice uses to match the
// simulated hardware. host::FastDevice seals and opens in the job's own
// payload buffer; the Bytes-returning gcm_seal/gcm_open copy their input
// and run the same in-place pass on the copy.
//
// Like the CCM header, the IV-to-J0 derivation and length-block formatting
// are exposed so the radio substrate can pre-format packets exactly the way
// the paper's communication controller does before streaming them into the
// core FIFOs.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/gf128.h"

namespace mccp::crypto {

/// Hash subkey H = E(K, 0^128).
Block128 gcm_hash_subkey(const AesRoundKeys& keys);

/// Precomputed per-key GCM material: the expanded round keys bundled with
/// the hash subkey H, its 4 KiB Shoup multiplication table and its CLMUL
/// powers H^1..H^16. Building one costs a block encryption plus 256 field
/// multiplications (~0.5 µs) — the work `gcm_seal`/`gcm_open` would
/// otherwise redo per packet — so callers that serve many packets under
/// one key (e.g. `host::FastDevice`, which caches one per (key id,
/// generation)) construct a GcmKey once and reuse it.
struct GcmKey {
  AesRoundKeys keys{};
  Gf128Table htable;  // table for H = E(K, 0^128)

  GcmKey() = default;
  explicit GcmKey(const AesRoundKeys& round_keys);

  const Block128& h() const { return htable.h(); }
};

/// How the payload counter steps from J0: inc32 as SP 800-38D specifies,
/// or inc16, the MCCP INC core's walk, which wraps the low 16 bits at
/// 0xFFFF instead of carrying into byte 13. The two agree unless those 16
/// bits wrap within the packet: never for a 96-bit IV (the walk starts at
/// 2) and a payload under 2^16 - 1 blocks; a J0 derived from another IV
/// length can start anywhere.
enum class GcmCounter : std::uint8_t { kInc32, kInc16 };

/// Pre-counter block J0 from an IV of any length (96-bit IVs take the fast
/// path IV || 0^31 || 1; other lengths go through GHASH).
Block128 gcm_j0(const AesRoundKeys& keys, ByteSpan iv);
Block128 gcm_j0(const GcmKey& key, ByteSpan iv);

/// The final GHASH length block: len64(aad_bits) || len64(ct_bits).
Block128 gcm_length_block(std::size_t aad_len_bytes, std::size_t ct_len_bytes);

/// Authenticated encryption in place: `data` holds the plaintext and is
/// overwritten with the ciphertext. Returns the full 16-byte tag; a
/// shorter tag is its prefix. Throws std::invalid_argument on an empty IV.
Block128 gcm_seal_in_place(const GcmKey& key, ByteSpan iv, ByteSpan aad, MutableByteSpan data,
                           GcmCounter walk = GcmCounter::kInc32);

/// Authenticated decryption in place, for a tag of any 1..16 bytes (the
/// range of the MCCP GCM core's 4-bit tag_len field): `data` holds the
/// ciphertext, which is hashed and decrypted, then the tag is compared in
/// constant time. True when it verifies and `data` holds the plaintext.
/// Otherwise false, and `data` is wiped to zeros — also for a tag outside
/// 1..16 bytes or an empty IV — so it never holds unverified plaintext.
bool gcm_open_in_place(const GcmKey& key, ByteSpan iv, ByteSpan aad, MutableByteSpan data,
                       ByteSpan tag, GcmCounter walk = GcmCounter::kInc32);

struct GcmSealed {
  Bytes ciphertext;
  Bytes tag;  // tag_len bytes (<= 16)
};

/// gcm_seal_in_place on a copy of `plaintext`; tag_len in [4, 16] bytes
/// (SP 800-38D permits 12..16 plus 4 and 8 for special applications).
/// Throws std::invalid_argument on a bad tag_len or an empty IV.
GcmSealed gcm_seal(const GcmKey& key, ByteSpan iv, ByteSpan aad, ByteSpan plaintext,
                   std::size_t tag_len = 16, GcmCounter walk = GcmCounter::kInc32);

/// gcm_open_in_place on a copy of `ciphertext`, for a 4..16-byte tag:
/// nullopt when the tag does not verify, is not 4..16 bytes long, or the IV
/// is empty; the unverified plaintext is wiped, never returned.
std::optional<Bytes> gcm_open(const GcmKey& key, ByteSpan iv, ByteSpan aad, ByteSpan ciphertext,
                              ByteSpan tag, GcmCounter walk = GcmCounter::kInc32);

/// gcm_open for a tag of any 1..16 bytes: host::FastDevice serves 1..3-byte
/// tags, which SP 800-38D does not allow. (A seal with such a tag is
/// gcm_seal's full tag, truncated.)
std::optional<Bytes> gcm_open_any_tag(const GcmKey& key, ByteSpan iv, ByteSpan aad,
                                      ByteSpan ciphertext, ByteSpan tag, GcmCounter walk);

/// The same seal and open for a one-off key: they build the GcmKey (H and
/// its tables) per call.
GcmSealed gcm_seal(const AesRoundKeys& keys, ByteSpan iv, ByteSpan aad, ByteSpan plaintext,
                   std::size_t tag_len = 16);
std::optional<Bytes> gcm_open(const AesRoundKeys& keys, ByteSpan iv, ByteSpan aad,
                              ByteSpan ciphertext, ByteSpan tag);

}  // namespace mccp::crypto
