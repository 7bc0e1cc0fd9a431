#include "crypto/gcm.h"

#include <stdexcept>

#include "crypto/ctr.h"
#include "crypto/ghash.h"
#include "crypto/kernels.h"

namespace mccp::crypto {

Block128 gcm_hash_subkey(const AesRoundKeys& keys) {
  return aes_encrypt_block(keys, Block128{});
}

GcmKey::GcmKey(const AesRoundKeys& round_keys)
    : keys(round_keys), htable(gcm_hash_subkey(round_keys)) {}

namespace {

/// The fast path for a 96-bit IV: J0 = IV || 0^31 || 1.
Block128 j0_from_iv96(ByteSpan iv) {
  Block128 j0 = Block128::from_span(iv);
  j0.b[15] = 1;
  return j0;
}

}  // namespace

Block128 gcm_j0(const GcmKey& key, ByteSpan iv) {
  if (iv.size() == 12) return j0_from_iv96(iv);
  Ghash g(key.htable);
  g.update_padded(iv);
  Block128 len{};
  store_be64(len.b.data() + 8, static_cast<std::uint64_t>(iv.size()) * 8);
  g.update(len);
  return g.digest();
}

Block128 gcm_j0(const AesRoundKeys& keys, ByteSpan iv) {
  return iv.size() == 12 ? j0_from_iv96(iv) : gcm_j0(GcmKey(keys), iv);
}

Block128 gcm_length_block(std::size_t aad_len_bytes, std::size_t ct_len_bytes) {
  Block128 len{};
  store_be64(len.b.data(), static_cast<std::uint64_t>(aad_len_bytes) * 8);
  store_be64(len.b.data() + 8, static_cast<std::uint64_t>(ct_len_bytes) * 8);
  return len;
}

namespace {

/// data ^= keystream from the counter after J0, and GHASH over the AAD and
/// the ciphertext (an open hashes `data` before the keystream overwrites
/// it); returns the full 16-byte tag GHASH(A, C) ^ E(K, J0).
Block128 gcm_pass(const GcmKey& key, GcmCounter walk, bool decrypt, ByteSpan iv, ByteSpan aad,
                  MutableByteSpan data) {
  const CryptoKernels& k = active_kernels();
  const Block128 j0 = gcm_j0(key, iv);
  Ghash g(key.htable);
  g.update_padded(aad);
  if (decrypt) g.update_padded(data);
  const bool wide = walk == GcmCounter::kInc32;
  k.ctr_xor(key.keys, wide ? inc32(j0) : inc16(j0, 1), wide, data.data(), data.data(),
            data.size());
  if (!decrypt) g.update_padded(data);
  g.update(gcm_length_block(aad.size(), data.size()));
  return g.digest() ^ k.aes_encrypt(key.keys, j0);
}

/// gcm_open_in_place on a copy of the ciphertext.
std::optional<Bytes> open_copy(const GcmKey& key, ByteSpan iv, ByteSpan aad,
                               ByteSpan ciphertext, ByteSpan tag, GcmCounter walk) {
  Bytes plaintext(ciphertext.begin(), ciphertext.end());
  if (!gcm_open_in_place(key, iv, aad, plaintext, tag, walk)) return std::nullopt;
  return plaintext;
}

}  // namespace

Block128 gcm_seal_in_place(const GcmKey& key, ByteSpan iv, ByteSpan aad, MutableByteSpan data,
                           GcmCounter walk) {
  if (iv.empty()) throw std::invalid_argument("gcm: IV must be non-empty");
  return gcm_pass(key, walk, /*decrypt=*/false, iv, aad, data);
}

bool gcm_open_in_place(const GcmKey& key, ByteSpan iv, ByteSpan aad, MutableByteSpan data,
                       ByteSpan tag, GcmCounter walk) {
  if (iv.empty() || tag.empty() || tag.size() > 16) {
    secure_wipe(data);
    return false;
  }
  const Block128 full = gcm_pass(key, walk, /*decrypt=*/true, iv, aad, data);
  if (ct_equal(ByteSpan(full.b.data(), tag.size()), tag)) return true;
  secure_wipe(data);
  return false;
}

GcmSealed gcm_seal(const GcmKey& key, ByteSpan iv, ByteSpan aad, ByteSpan plaintext,
                   std::size_t tag_len, GcmCounter walk) {
  if (tag_len < 4 || tag_len > 16) throw std::invalid_argument("gcm: tag_len must be 4..16");
  GcmSealed out;
  out.ciphertext.assign(plaintext.begin(), plaintext.end());
  const Block128 tag = gcm_seal_in_place(key, iv, aad, out.ciphertext, walk);
  out.tag.assign(tag.b.begin(), tag.b.begin() + static_cast<std::ptrdiff_t>(tag_len));
  return out;
}

std::optional<Bytes> gcm_open(const GcmKey& key, ByteSpan iv, ByteSpan aad, ByteSpan ciphertext,
                              ByteSpan tag, GcmCounter walk) {
  if (tag.size() < 4 || tag.size() > 16) return std::nullopt;
  return open_copy(key, iv, aad, ciphertext, tag, walk);
}

std::optional<Bytes> gcm_open_any_tag(const GcmKey& key, ByteSpan iv, ByteSpan aad,
                                      ByteSpan ciphertext, ByteSpan tag, GcmCounter walk) {
  return open_copy(key, iv, aad, ciphertext, tag, walk);
}

GcmSealed gcm_seal(const AesRoundKeys& keys, ByteSpan iv, ByteSpan aad, ByteSpan plaintext,
                   std::size_t tag_len) {
  return gcm_seal(GcmKey(keys), iv, aad, plaintext, tag_len);
}

std::optional<Bytes> gcm_open(const AesRoundKeys& keys, ByteSpan iv, ByteSpan aad,
                              ByteSpan ciphertext, ByteSpan tag) {
  return gcm_open(GcmKey(keys), iv, aad, ciphertext, tag);
}

}  // namespace mccp::crypto
