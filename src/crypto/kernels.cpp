#include "crypto/kernels.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <stdexcept>

#include "crypto/ctr.h"

namespace mccp::crypto {

namespace {

// ---- portable reference kernels --------------------------------------------

Block128 portable_aes_encrypt(const AesRoundKeys& keys, const Block128& in) {
  return aes_encrypt_block_portable(keys, in);
}

Block128 portable_aes_decrypt(const AesRoundKeys& keys, const Block128& in) {
  return aes_decrypt_block_portable(keys, in);
}

void portable_ctr_xor(const AesRoundKeys& keys, const Block128& ctr0, bool wide_counter,
                      const std::uint8_t* in, std::uint8_t* out, std::size_t len) {
  // Keystream in multi-block batches, folded in with word-wide XORs — the
  // historical ctr_transform loop, operating on raw buffers so every tier
  // shares the same (allocation-free) signature.
  constexpr std::size_t kBatchBlocks = 8;
  std::uint8_t ks[16 * kBatchBlocks];

  Block128 ctr = ctr0;
  std::size_t off = 0;
  while (off < len) {
    std::size_t n = len - off;
    if (n > sizeof(ks)) n = sizeof(ks);
    for (std::size_t b = 0; b < (n + 15) / 16; ++b) {
      Block128 block = aes_encrypt_block_portable(keys, ctr);
      std::memcpy(ks + 16 * b, block.b.data(), 16);
      ctr = wide_counter ? inc32(ctr) : inc16(ctr, 1);
    }
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t a, k;
      std::memcpy(&a, in + off + i, 8);
      std::memcpy(&k, ks + i, 8);
      a ^= k;
      std::memcpy(out + off + i, &a, 8);
    }
    for (; i < n; ++i) out[off + i] = in[off + i] ^ ks[i];
    off += n;
  }
}

void portable_cbc_mac_blocks(const AesRoundKeys& keys, Block128& x, const std::uint8_t* data,
                             std::size_t nblocks) {
  for (std::size_t i = 0; i < nblocks; ++i)
    x = aes_encrypt_block_portable(keys, x ^ Block128::from_span(ByteSpan(data + 16 * i, 16)));
}

void portable_ccm_lanes(CcmLane* lanes, std::size_t n) {
  // The oracle: each lane on its own, one block at a time.
  for (CcmLane& l : std::span(lanes, n)) {
    for (std::size_t i = 0; i < l.nblocks; ++i) {
      const Block128 x = Block128::from_span(ByteSpan(l.in + 16 * i, 16));
      const Block128 y = x ^ aes_encrypt_block_portable(*l.keys, l.ctr);
      l.ctr = inc32(l.ctr);
      std::memcpy(l.out + 16 * i, y.b.data(), 16);
      l.mac = aes_encrypt_block_portable(*l.keys, l.mac ^ (l.decrypt ? y : x));
    }
  }
}

Block128 portable_ghash_mul(const Gf128Table& table, const Block128& x) { return table.mul(x); }

void portable_ghash_blocks(const Gf128Table& table, Block128& y, const std::uint8_t* data,
                           std::size_t nblocks) {
  for (std::size_t i = 0; i < nblocks; ++i)
    y = table.mul(y ^ Block128::from_span(ByteSpan(data + 16 * i, 16)));
}

constexpr CryptoKernels kPortableKernels{
    "portable",          portable_aes_encrypt,    portable_aes_decrypt,
    portable_ctr_xor,    portable_cbc_mac_blocks, portable_ccm_lanes,
    portable_ghash_mul,  portable_ghash_blocks,
};

// ---- selection --------------------------------------------------------------

const CryptoKernels* kernels_for(KernelTier tier) {
  switch (tier) {
    case KernelTier::kVaes:
      if (const CryptoKernels* k = detail::vaes_kernels()) return k;
      return nullptr;
    case KernelTier::kAesni:
      if (const CryptoKernels* k = detail::aesni_kernels()) return k;
      return nullptr;
    case KernelTier::kPortable: return &kPortableKernels;
  }
  return nullptr;
}

const CryptoKernels* best_kernels() {
  if (const CryptoKernels* k = detail::vaes_kernels()) return k;
  if (const CryptoKernels* k = detail::aesni_kernels()) return k;
  return &kPortableKernels;
}

const CryptoKernels* resolve(std::string_view name, bool from_env) {
  if (name == "auto") return best_kernels();
  if (name == "portable") return &kPortableKernels;
  if (name == "aesni" || name == "vaes") {
    const CryptoKernels* k =
        kernels_for(name == "vaes" ? KernelTier::kVaes : KernelTier::kAesni);
    if (k) return k;
    if (from_env) {
      std::fprintf(stderr,
                   "mccp: MCCP_CRYPTO_KERNEL=%.*s is not supported on this CPU; using auto\n",
                   static_cast<int>(name.size()), name.data());
      return best_kernels();
    }
    throw std::invalid_argument("set_crypto_kernel: tier '" + std::string(name) +
                                "' is not supported on this CPU");
  }
  if (from_env) {
    std::fprintf(stderr, "mccp: unknown MCCP_CRYPTO_KERNEL=%.*s (want portable|auto); using auto\n",
                 static_cast<int>(name.size()), name.data());
    return best_kernels();
  }
  throw std::invalid_argument("set_crypto_kernel: unknown kernel '" + std::string(name) +
                              "' (want portable|auto|aesni|vaes)");
}

std::atomic<const CryptoKernels*>& active_slot() {
  // First use consults the environment exactly once (thread-safe local
  // static init); later reads are one relaxed load.
  static std::atomic<const CryptoKernels*> slot{[] {
    const char* env = std::getenv("MCCP_CRYPTO_KERNEL");
    return resolve(env && *env ? env : "auto", /*from_env=*/true);
  }()};
  return slot;
}

}  // namespace

KernelTier detected_kernel_tier() {
  if (detail::vaes_kernels()) return KernelTier::kVaes;
  if (detail::aesni_kernels()) return KernelTier::kAesni;
  return KernelTier::kPortable;
}

const CryptoKernels& active_kernels() {
  return *active_slot().load(std::memory_order_relaxed);
}

const char* active_kernel_name() { return active_kernels().name; }

void set_crypto_kernel(std::string_view name) {
  active_slot().store(resolve(name, /*from_env=*/false), std::memory_order_relaxed);
}

std::vector<std::string> supported_crypto_kernels() {
  std::vector<std::string> out{"portable"};
  if (detail::aesni_kernels()) out.push_back("aesni");
  if (detail::vaes_kernels()) out.push_back("vaes");
  out.push_back("auto");
  return out;
}

}  // namespace mccp::crypto
