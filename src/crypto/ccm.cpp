#include "crypto/ccm.h"

#include <stdexcept>

#include "crypto/kernels.h"

namespace mccp::crypto {

bool ccm_params_valid(const CcmParams& p) {
  bool tag_ok = p.tag_len >= 4 && p.tag_len <= 16 && p.tag_len % 2 == 0;
  bool nonce_ok = p.nonce_len >= 7 && p.nonce_len <= 13;
  return tag_ok && nonce_ok;
}

Block128 ccm_b0(const CcmParams& p, ByteSpan nonce, std::size_t aad_len, std::size_t msg_len) {
  const std::size_t q = 15 - p.nonce_len;
  Block128 b0{};
  std::uint8_t flags = 0;
  if (aad_len > 0) flags |= 0x40;
  flags |= static_cast<std::uint8_t>(((p.tag_len - 2) / 2) << 3);
  flags |= static_cast<std::uint8_t>(q - 1);
  b0.b[0] = flags;
  for (std::size_t i = 0; i < p.nonce_len; ++i) b0.b[1 + i] = nonce[i];
  std::uint64_t len = msg_len;
  for (std::size_t i = 0; i < q; ++i) {
    b0.b[15 - i] = static_cast<std::uint8_t>(len);
    len >>= 8;
  }
  if (len != 0) throw std::invalid_argument("ccm: message too long for nonce length");
  return b0;
}

Bytes ccm_encode_aad(ByteSpan aad) {
  Bytes out;
  const std::size_t a = aad.size();
  if (a == 0) return out;
  if (a < 0xFF00) {
    out.push_back(static_cast<std::uint8_t>(a >> 8));
    out.push_back(static_cast<std::uint8_t>(a));
  } else if (a <= 0xFFFFFFFFULL) {
    out.push_back(0xFF);
    out.push_back(0xFE);
    for (int i = 3; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(a >> (8 * i)));
  } else {
    out.push_back(0xFF);
    out.push_back(0xFF);
    for (int i = 7; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(a >> (8 * i)));
  }
  out.insert(out.end(), aad.begin(), aad.end());
  // Zero-pad to a block boundary (the padded-AAD blocks feed CBC-MAC).
  while (out.size() % 16 != 0) out.push_back(0);
  return out;
}

Block128 ccm_ctr_block(const CcmParams& p, ByteSpan nonce, std::uint64_t index) {
  const std::size_t q = 15 - p.nonce_len;
  Block128 ctr{};
  ctr.b[0] = static_cast<std::uint8_t>(q - 1);
  for (std::size_t i = 0; i < p.nonce_len; ++i) ctr.b[1 + i] = nonce[i];
  for (std::size_t i = 0; i < q; ++i) {
    ctr.b[15 - i] = static_cast<std::uint8_t>(index);
    index >>= 8;
  }
  return ctr;
}

namespace {

/// The CBC-MAC chain over B0 and the encoded AAD: everything the tag covers
/// before the payload.
Block128 ccm_header_mac(const CryptoKernels& k, const AesRoundKeys& keys, const CcmParams& p,
                        ByteSpan nonce, ByteSpan aad, std::size_t msg_len) {
  Block128 x{};
  const Block128 b0 = ccm_b0(p, nonce, aad.size(), msg_len);
  k.cbc_mac_blocks(keys, x, b0.b.data(), 1);
  const Bytes encoded = ccm_encode_aad(aad);
  k.cbc_mac_blocks(keys, x, encoded.data(), encoded.size() / 16);
  return x;
}

/// One pass over the payload: the CTR transform from Ctr_1 (inc32 walk,
/// as ctr_transform) and the CBC-MAC chain over the plaintext, which is
/// `in` when sealing and `out` when opening. The full blocks go through
/// the kernel; the zero-padded tail is finished here.
void ccm_payload(const CryptoKernels& k, const AesRoundKeys& keys, Block128& mac, Block128 ctr,
                 bool decrypt, ByteSpan in, std::uint8_t* out) {
  const std::size_t full = in.size() / 16;
  k.ccm_blocks(keys, mac, ctr, decrypt, in.data(), out, full);
  const std::size_t done = 16 * full;
  if (done == in.size()) return;
  k.ctr_xor(keys, ctr, /*wide_counter=*/true, in.data() + done, out + done, in.size() - done);
  const Block128 tail = Block128::from_span(decrypt ? ByteSpan(out + done, in.size() - done)
                                                    : in.subspan(done));
  k.cbc_mac_blocks(keys, mac, tail.b.data(), 1);
}

/// T ^ E(K, Ctr_0), truncated to the tag length.
Bytes ccm_tag(const CryptoKernels& k, const AesRoundKeys& keys, const CcmParams& p,
              ByteSpan nonce, const Block128& mac) {
  const Block128 a0_ks = k.aes_encrypt(keys, ccm_ctr_block(p, nonce, 0));
  Bytes tag(p.tag_len);
  for (std::size_t i = 0; i < p.tag_len; ++i) tag[i] = mac.b[i] ^ a0_ks.b[i];
  return tag;
}

}  // namespace

CcmSealed ccm_seal(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce, ByteSpan aad,
                   ByteSpan plaintext) {
  if (!ccm_params_valid(p)) throw std::invalid_argument("ccm: invalid parameters");
  if (nonce.size() != p.nonce_len) throw std::invalid_argument("ccm: nonce length mismatch");

  const CryptoKernels& k = active_kernels();
  Block128 mac = ccm_header_mac(k, keys, p, nonce, aad, plaintext.size());
  CcmSealed out;
  out.ciphertext.resize(plaintext.size());
  ccm_payload(k, keys, mac, ccm_ctr_block(p, nonce, 1), /*decrypt=*/false, plaintext,
              out.ciphertext.data());
  out.tag = ccm_tag(k, keys, p, nonce, mac);
  return out;
}

std::optional<Bytes> ccm_open(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce,
                              ByteSpan aad, ByteSpan ciphertext, ByteSpan tag) {
  if (!ccm_params_valid(p)) throw std::invalid_argument("ccm: invalid parameters");
  if (nonce.size() != p.nonce_len) throw std::invalid_argument("ccm: nonce length mismatch");
  if (tag.size() != p.tag_len) return std::nullopt;

  const CryptoKernels& k = active_kernels();
  Block128 mac = ccm_header_mac(k, keys, p, nonce, aad, ciphertext.size());
  Bytes plaintext(ciphertext.size());
  ccm_payload(k, keys, mac, ccm_ctr_block(p, nonce, 1), /*decrypt=*/true, ciphertext,
              plaintext.data());
  if (!ct_equal(ccm_tag(k, keys, p, nonce, mac), tag)) return std::nullopt;
  return plaintext;
}

}  // namespace mccp::crypto
