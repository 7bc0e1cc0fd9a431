#include "crypto/gcm.h"

#include <cstring>
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

/// memset through a volatile pointer, so the wipe of a buffer that is
/// freed next cannot be optimised away.
void* (*const volatile wipe_memset)(void*, int, std::size_t) = std::memset;

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

/// out = in ^ keystream from the counter after J0, and GHASH over the AAD
/// and the ciphertext (an open hashes its input before the keystream can
/// overwrite it); returns the full 16-byte tag GHASH(A, C) ^ E(K, J0).
Block128 gcm_pass(const GcmKey& key, GcmCounter walk, bool decrypt, ByteSpan iv, ByteSpan aad,
                  const std::uint8_t* in, std::uint8_t* out, std::size_t len) {
  const CryptoKernels& k = active_kernels();
  const Block128 j0 = gcm_j0(key, iv);
  Ghash g(key.htable);
  g.update_padded(aad);
  if (decrypt) g.update_padded(ByteSpan(in, len));
  const bool wide = walk == GcmCounter::kInc32;
  k.ctr_xor(key.keys, wide ? inc32(j0) : inc16(j0, 1), wide, in, out, len);
  if (!decrypt) g.update_padded(ByteSpan(out, len));
  g.update(gcm_length_block(aad.size(), len));
  return g.digest() ^ k.aes_encrypt(key.keys, j0);
}

/// The open behind gcm_open and gcm_open_any_tag: the caller has checked
/// the tag length.
std::optional<Bytes> open_checked(const GcmKey& key, ByteSpan iv, ByteSpan aad,
                                  ByteSpan ciphertext, ByteSpan tag, GcmCounter walk) {
  if (iv.empty()) return std::nullopt;
  Bytes plaintext(ciphertext.size());
  const Block128 full = gcm_pass(key, walk, /*decrypt=*/true, iv, aad, ciphertext.data(),
                                 plaintext.data(), ciphertext.size());
  if (ct_equal(ByteSpan(full.b.data(), tag.size()), tag)) return plaintext;
  wipe_memset(plaintext.data(), 0, plaintext.size());
  return std::nullopt;
}

}  // namespace

GcmSealed gcm_seal(const GcmKey& key, ByteSpan iv, ByteSpan aad, ByteSpan plaintext,
                   std::size_t tag_len, GcmCounter walk) {
  if (tag_len < 4 || tag_len > 16) throw std::invalid_argument("gcm: tag_len must be 4..16");
  if (iv.empty()) throw std::invalid_argument("gcm: IV must be non-empty");
  GcmSealed out;
  out.ciphertext.resize(plaintext.size());
  const Block128 tag = gcm_pass(key, walk, /*decrypt=*/false, iv, aad, plaintext.data(),
                                out.ciphertext.data(), plaintext.size());
  out.tag.assign(tag.b.begin(), tag.b.begin() + static_cast<std::ptrdiff_t>(tag_len));
  return out;
}

std::optional<Bytes> gcm_open(const GcmKey& key, ByteSpan iv, ByteSpan aad, ByteSpan ciphertext,
                              ByteSpan tag, GcmCounter walk) {
  if (tag.size() < 4 || tag.size() > 16) return std::nullopt;
  return open_checked(key, iv, aad, ciphertext, tag, walk);
}

std::optional<Bytes> gcm_open_any_tag(const GcmKey& key, ByteSpan iv, ByteSpan aad,
                                      ByteSpan ciphertext, ByteSpan tag, GcmCounter walk) {
  if (tag.empty() || tag.size() > 16) return std::nullopt;
  return open_checked(key, iv, aad, ciphertext, tag, walk);
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
