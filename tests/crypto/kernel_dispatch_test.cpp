// Kernel-dispatch layer: tier detection/override plumbing, and the core
// contract — every hardware tier is bit-identical to the portable
// T-table/Shoup reference across AES block ops, CTR keystreams (both
// counter widths, including the inc16 and inc32 wraps inside a batch),
// GHASH (every aggregation width and tail), GCM seal/open (both counter
// walks, tampered and wrong-length tags), CCM (the multi-lane kernel,
// batches of mixed keys, directions and lengths, every tail length,
// tampered inputs, and the CcmLanes manager under seeded submit/finish
// interleavings), the in-place seal/open cores against the out-of-place
// calls, and the CBC-MAC chain, over all key sizes and non-block-aligned
// tails.
#include "crypto/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/cbc_mac.h"
#include "crypto/ccm.h"
#include "crypto/ctr.h"
#include "crypto/gcm.h"
#include "crypto/ghash.h"

namespace mccp::crypto {
namespace {

/// Flip to a tier for one scope, restoring the previously dispatched tier
/// on exit so test order never leaks state.
class ScopedKernel {
 public:
  explicit ScopedKernel(const std::string& tier) : previous_(active_kernel_name()) {
    set_crypto_kernel(tier);
  }
  ~ScopedKernel() { set_crypto_kernel(previous_); }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

 private:
  std::string previous_;
};

/// The hardware tiers this host can actually run ("auto"/"portable"
/// excluded — they are aliases of entries already covered).
std::vector<std::string> hardware_tiers() {
  std::vector<std::string> tiers;
  for (const std::string& t : supported_crypto_kernels())
    if (t != "auto" && t != "portable") tiers.push_back(t);
  return tiers;
}

/// Every concrete tier, the portable reference included.
std::vector<std::string> concrete_tiers() {
  std::vector<std::string> tiers{"portable"};
  for (const std::string& t : hardware_tiers()) tiers.push_back(t);
  return tiers;
}

TEST(KernelDispatch, DetectionSmoke) {
  // supported_crypto_kernels() always offers the reference and auto...
  auto tiers = supported_crypto_kernels();
  EXPECT_NE(std::find(tiers.begin(), tiers.end(), "portable"), tiers.end());
  EXPECT_NE(std::find(tiers.begin(), tiers.end(), "auto"), tiers.end());
  // ...and the active set is one of them (auto resolves to a concrete name).
  std::string active = active_kernel_name();
  EXPECT_NE(std::find(tiers.begin(), tiers.end(), active), tiers.end());
  if (detected_kernel_tier() == KernelTier::kPortable) {
    EXPECT_EQ(hardware_tiers().size(), 0u);
  } else {
    EXPECT_GE(hardware_tiers().size(), 1u);
  }
}

TEST(KernelDispatch, OverrideRoundTrip) {
  std::string before = active_kernel_name();
  for (const std::string& tier : supported_crypto_kernels()) {
    set_crypto_kernel(tier);
    if (tier != "auto") {
      EXPECT_EQ(active_kernel_name(), tier);
    }
  }
  set_crypto_kernel(before);
  EXPECT_EQ(active_kernel_name(), before);
}

TEST(KernelDispatch, RejectsUnknownAndUnsupportedNames) {
  std::string before = active_kernel_name();
  EXPECT_THROW(set_crypto_kernel("sse9000"), std::invalid_argument);
  EXPECT_THROW(set_crypto_kernel(""), std::invalid_argument);
  EXPECT_THROW(set_crypto_kernel("PORTABLE"), std::invalid_argument);  // case-sensitive
  if (detected_kernel_tier() < KernelTier::kVaes) {
    EXPECT_THROW(set_crypto_kernel("vaes"), std::invalid_argument);
  }
  if (detected_kernel_tier() < KernelTier::kAesni) {
    EXPECT_THROW(set_crypto_kernel("aesni"), std::invalid_argument);
  }
  // A failed set leaves the dispatched tier untouched.
  EXPECT_EQ(active_kernel_name(), before);
}

// Payload lengths exercising empty input, sub-block, exact blocks, the
// 64- and 256-byte boundaries (4- and 16-block steps), and non-aligned
// tails beyond them.
const std::size_t kLens[] = {0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 1000, 2048};

TEST(KernelDispatch, AesBlockBitIdentity) {
  Rng rng(101);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    for (int i = 0; i < 64; ++i) {
      Block128 pt = rng.block();
      Block128 want_ct, want_pt;
      {
        ScopedKernel k("portable");
        want_ct = aes_encrypt_block(keys, pt);
        want_pt = aes_decrypt_block(keys, want_ct);
      }
      ASSERT_EQ(want_pt, pt);
      for (const auto& tier : hardware_tiers()) {
        ScopedKernel k(tier);
        ASSERT_EQ(aes_encrypt_block(keys, pt), want_ct) << tier << " key_len=" << key_len;
        ASSERT_EQ(aes_decrypt_block(keys, want_ct), pt) << tier << " key_len=" << key_len;
      }
    }
  }
}

TEST(KernelDispatch, CtrKeystreamBitIdentity) {
  Rng rng(102);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    for (std::size_t len : kLens) {
      Bytes data = rng.bytes(len);
      Block128 ctr = rng.block();
      Bytes want32, want16;
      {
        ScopedKernel k("portable");
        want32 = ctr_transform(keys, ctr, data);
        want16 = ctr_transform_inc16(keys, ctr, data);
      }
      for (const auto& tier : hardware_tiers()) {
        ScopedKernel k(tier);
        ASSERT_EQ(ctr_transform(keys, ctr, data), want32) << tier << " len=" << len;
        ASSERT_EQ(ctr_transform_inc16(keys, ctr, data), want16) << tier << " len=" << len;
      }
    }
  }
}

/// The first `len` keystream bytes from `ctr` (CTR over zeros).
Bytes keystream(const AesRoundKeys& keys, const Block128& ctr, bool wide, std::size_t len) {
  Bytes zeros(len, 0);
  return wide ? ctr_transform(keys, ctr, zeros) : ctr_transform_inc16(keys, ctr, zeros);
}

TEST(KernelDispatch, CtrInc16WrapBitIdentity) {
  // Start the 16-bit counter close enough to 0xFFFF that the keystream
  // wraps it — the INC-core semantics the hardware tiers must reproduce
  // with their in-register 16-bit lane add. Starts 0xFFF1, 0xFFF8 and
  // 0xFFFF put the wrap at every position of a 16-block VAES batch and an
  // 8-block AES-NI batch, and at the first block; the lengths cover one
  // whole batch, many, and a partial tail.
  Rng rng(103);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    for (unsigned start : {0xFFFEu, 0xFFFFu, 0xFF80u, 0xFFF1u, 0xFFF8u}) {
      Block128 ctr = rng.block();
      ctr.b[14] = static_cast<std::uint8_t>(start >> 8);
      ctr.b[15] = static_cast<std::uint8_t>(start & 0xFF);
      for (std::size_t len : {256u, 2048u, 4096u, 4096u + 5u}) {
        Bytes data = rng.bytes(len);
        Bytes want;
        {
          ScopedKernel k("portable");
          want = ctr_transform_inc16(keys, ctr, data);
          // The reference itself: the block after 0xFFFF uses 0x0000 and
          // leaves bytes 0..13 alone.
          Block128 wrapped = ctr;
          wrapped.b[14] = wrapped.b[15] = 0;
          const std::size_t at = 16 * (0x10000u - start);
          Bytes ks = keystream(keys, ctr, /*wide=*/false, at + 16);
          ASSERT_EQ(Bytes(ks.begin() + static_cast<std::ptrdiff_t>(at), ks.end()),
                    aes_encrypt_block(keys, wrapped).to_bytes());
        }
        for (const auto& tier : hardware_tiers()) {
          ScopedKernel k(tier);
          ASSERT_EQ(ctr_transform_inc16(keys, ctr, data), want)
              << tier << " key=" << key_len << " start=" << start << " len=" << len;
        }
      }
    }
  }
}

TEST(KernelDispatch, CtrInc32WrapDoesNotCarryIntoByte11) {
  // inc32 wraps bytes 12..15 from 0xFFFFFFFF to 0 and must leave byte 11
  // (and everything before it) untouched, on every tier, wherever the wrap
  // falls in a batch.
  Rng rng(110);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    for (std::uint32_t start : {0xFFFFFFF1u, 0xFFFFFFF8u, 0xFFFFFFFFu}) {
      Block128 ctr = rng.block();
      ctr.b[11] = 0x7F;
      ctr.set_word(3, start);
      Block128 wrapped = ctr;
      wrapped.set_word(3, 0);
      const std::size_t at = 16 * static_cast<std::size_t>(0x100000000ull - start);
      for (std::size_t len : {256u, 4096u, 4096u + 5u}) {
        Bytes data = rng.bytes(len);
        Bytes want;
        {
          ScopedKernel k("portable");
          want = ctr_transform(keys, ctr, data);
          Bytes ks = keystream(keys, ctr, /*wide=*/true, at + 16);
          ASSERT_EQ(Bytes(ks.begin() + static_cast<std::ptrdiff_t>(at), ks.end()),
                    aes_encrypt_block(keys, wrapped).to_bytes());
        }
        for (const auto& tier : hardware_tiers()) {
          ScopedKernel k(tier);
          ASSERT_EQ(ctr_transform(keys, ctr, data), want)
              << tier << " start=" << start << " len=" << len;
          Bytes ks = keystream(keys, ctr, /*wide=*/true, at + 16);
          ASSERT_EQ(Bytes(ks.begin() + static_cast<std::ptrdiff_t>(at), ks.end()),
                    aes_encrypt_block(keys, wrapped).to_bytes())
              << tier << " start=" << start;
        }
      }
    }
  }
}

TEST(KernelDispatch, GhashBitIdentity) {
  Rng rng(104);
  for (int rep = 0; rep < 8; ++rep) {
    Block128 h = rng.block();
    for (std::size_t len : kLens) {
      Bytes data = rng.bytes(len);
      Block128 want;
      {
        ScopedKernel k("portable");
        Ghash g(h);
        g.update_padded(data);
        want = g.digest();
      }
      for (const auto& tier : hardware_tiers()) {
        ScopedKernel k(tier);
        Ghash g(h);
        g.update_padded(data);
        ASSERT_EQ(g.digest(), want) << tier << " len=" << len;
      }
    }
  }
}

TEST(KernelDispatch, GcmSealOpenBitIdentity) {
  Rng rng(105);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    GcmKey cached(keys);
    for (std::size_t len : kLens) {
      Bytes iv = rng.bytes(12);
      Bytes aad = rng.bytes(len % 48);  // varies 0..47, non-aligned
      Bytes pt = rng.bytes(len);
      GcmSealed want;
      {
        ScopedKernel k("portable");
        want = gcm_seal(keys, iv, aad, pt);
      }
      for (const auto& tier : hardware_tiers()) {
        ScopedKernel k(tier);
        GcmSealed got = gcm_seal(keys, iv, aad, pt);
        ASSERT_EQ(got.ciphertext, want.ciphertext) << tier << " key=" << key_len << " len=" << len;
        ASSERT_EQ(got.tag, want.tag) << tier << " key=" << key_len << " len=" << len;
        // The cached-key fast path and the portable-produced tag interoperate.
        GcmSealed cached_got = gcm_seal(cached, iv, aad, pt);
        ASSERT_EQ(cached_got.tag, want.tag) << tier;
        auto opened = gcm_open(cached, iv, aad, want.ciphertext, want.tag);
        ASSERT_TRUE(opened.has_value()) << tier;
        ASSERT_EQ(*opened, pt) << tier;
      }
    }
  }
}

TEST(KernelDispatch, CbcMacBitIdentity) {
  // The one-shot MAC over aligned data, and CbcMac::update_padded — full
  // blocks through cbc_mac_blocks, the tail padded — over unaligned
  // lengths with several updates chained.
  Rng rng(107);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    for (std::size_t blocks : {1u, 2u, 5u, 128u}) {
      Bytes data = rng.bytes(blocks * 16);
      Block128 want;
      {
        ScopedKernel k("portable");
        want = cbc_mac(keys, data);
      }
      for (const auto& tier : hardware_tiers()) {
        ScopedKernel k(tier);
        ASSERT_EQ(cbc_mac(keys, data), want) << tier << " blocks=" << blocks;
      }
    }
    for (std::size_t len : kLens) {
      Bytes a = rng.bytes(len), b = rng.bytes(len / 3 + 16);
      Block128 want;
      {
        ScopedKernel k("portable");
        CbcMac m(keys);
        m.update_padded(a);
        m.update_padded(b);
        want = m.mac();
      }
      for (const auto& tier : hardware_tiers()) {
        ScopedKernel k(tier);
        CbcMac m(keys);
        m.update_padded(a);
        m.update_padded(b);
        ASSERT_EQ(m.mac(), want) << tier << " key=" << key_len << " len=" << len;
      }
    }
  }
}

TEST(KernelDispatch, CcmSealOpenBitIdentity) {
  // Every payload length 0..600 (each tail length, the one-pass kernel's
  // block loop at every count up to 37) plus 4 KiB and 16 KiB, against
  // AAD lengths around the 2-byte encoding and block boundaries, all key
  // sizes, with the tag/nonce lengths at their limits. Each tier must
  // match the portable seal, open it, and refuse a tampered tag or
  // ciphertext.
  Rng rng(106);
  const CcmParams params[] = {{.tag_len = 4, .nonce_len = 7},
                              {.tag_len = 16, .nonce_len = 13},
                              {.tag_len = 4, .nonce_len = 13},
                              {.tag_len = 16, .nonce_len = 7},
                              {.tag_len = 8, .nonce_len = 13}};
  std::vector<std::size_t> lens;
  for (std::size_t len = 0; len <= 600; ++len) lens.push_back(len);
  lens.push_back(4096);
  lens.push_back(16384);
  std::size_t case_no = 0;
  for (std::size_t key_len : {16u, 24u, 32u}) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    for (std::size_t len : lens) {
      for (std::size_t aad_len : {0u, 1u, 14u, 15u, 16u, 300u}) {
        const CcmParams& p = params[case_no++ % std::size(params)];
        Bytes nonce = rng.bytes(p.nonce_len);
        Bytes aad = rng.bytes(aad_len);
        Bytes pt = rng.bytes(len);
        CcmSealed want;
        {
          ScopedKernel k("portable");
          want = ccm_seal(keys, p, nonce, aad, pt);
        }
        Bytes bad_tag = want.tag;
        bad_tag[case_no % bad_tag.size()] ^= 0x01;
        Bytes bad_ct = want.ciphertext;
        if (!bad_ct.empty()) bad_ct[case_no % bad_ct.size()] ^= 0x80;
        for (const auto& tier : concrete_tiers()) {
          ScopedKernel k(tier);
          CcmSealed got = ccm_seal(keys, p, nonce, aad, pt);
          ASSERT_EQ(got.ciphertext, want.ciphertext)
              << tier << " key=" << key_len << " len=" << len << " aad=" << aad_len;
          ASSERT_EQ(got.tag, want.tag)
              << tier << " key=" << key_len << " len=" << len << " aad=" << aad_len;
          auto opened = ccm_open(keys, p, nonce, aad, want.ciphertext, want.tag);
          ASSERT_TRUE(opened.has_value()) << tier << " len=" << len << " aad=" << aad_len;
          ASSERT_EQ(*opened, pt) << tier << " len=" << len;
          ASSERT_FALSE(ccm_open(keys, p, nonce, aad, want.ciphertext, bad_tag).has_value())
              << tier << " len=" << len;
          if (!bad_ct.empty()) {
            ASSERT_FALSE(ccm_open(keys, p, nonce, aad, bad_ct, want.tag).has_value())
                << tier << " len=" << len;
          }
        }
      }
    }
  }
}

TEST(KernelDispatch, CbcMacBlocksKernelDirect) {
  // The kernel entry itself: x <- E(x ^ B_i) from an arbitrary starting x,
  // for block counts 0 (x unchanged) through several batches.
  Rng rng(113);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    auto keys = aes_expand_key(rng.bytes(key_len));
    for (std::size_t nblocks : {0u, 1u, 2u, 3u, 8u, 9u, 17u, 255u}) {
      Bytes data = rng.bytes(16 * nblocks);
      const Block128 x0 = rng.block();
      Block128 want = x0;
      for (std::size_t i = 0; i < nblocks; ++i)
        want = aes_encrypt_block_portable(
            keys, want ^ Block128::from_span(ByteSpan(data.data() + 16 * i, 16)));
      for (const auto& tier : concrete_tiers()) {
        ScopedKernel k(tier);
        Block128 x = x0;
        active_kernels().cbc_mac_blocks(keys, x, data.data(), nblocks);
        ASSERT_EQ(x, want) << tier << " key=" << key_len << " nblocks=" << nblocks;
      }
    }
  }
}

/// One kernel lane computed block by block with the portable AES: the
/// ciphertext (or plaintext), the chained MAC and the next unused counter.
struct LaneResult {
  Bytes out;
  Block128 mac, ctr;
};

LaneResult lane_reference(const AesRoundKeys& keys, Block128 mac, Block128 ctr, bool decrypt,
                          const Bytes& in) {
  LaneResult r{Bytes(in.size()), mac, ctr};
  for (std::size_t i = 0; i < in.size() / 16; ++i) {
    const Block128 x = Block128::from_span(ByteSpan(in.data() + 16 * i, 16));
    const Block128 y = x ^ aes_encrypt_block_portable(keys, r.ctr);
    std::copy(y.b.begin(), y.b.end(), r.out.begin() + static_cast<std::ptrdiff_t>(16 * i));
    r.ctr = inc32(r.ctr);
    r.mac = aes_encrypt_block_portable(keys, r.mac ^ (decrypt ? y : x));
  }
  return r;
}

// Block counts the lane tests rotate through: empty, one, either side of
// the 16-block boundary, and the hardware's 255-block maximum.
const std::size_t kLaneBlocks[] = {0, 1, 15, 16, 17, 255};

TEST(KernelDispatch, CcmLanesKernelDirect) {
  // The multi-lane entry: 1..kMaxCcmLanes lanes per call, each with its own
  // key of one shared size, block counts rotating through kLaneBlocks so
  // lanes finish at different steps (and a 0-block lane is left alone),
  // seal and open lanes side by side, in place and out of place, and
  // counters whose inc32 walk wraps mid-lane. Every lane must leave `mac`
  // chained over its plaintext and `ctr` at its next unused counter.
  Rng rng(114);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    std::vector<AesRoundKeys> keys;
    for (std::size_t j = 0; j < kMaxCcmLanes; ++j)
      keys.push_back(aes_expand_key(rng.bytes(key_len)));
    for (std::size_t n = 1; n <= kMaxCcmLanes; ++n) {
      for (std::size_t rot = 0; rot < std::size(kLaneBlocks); ++rot) {
        struct Case {
          Bytes in;
          Block128 mac0, ctr0;
          bool decrypt, in_place;
          LaneResult want;
        };
        std::vector<Case> cases(n);
        for (std::size_t j = 0; j < n; ++j) {
          Case& c = cases[j];
          c.in = rng.bytes(16 * kLaneBlocks[(rot + 2 * j) % std::size(kLaneBlocks)]);
          c.mac0 = rng.block();
          c.ctr0 = rng.block();
          c.ctr0.set_word(3, 0xFFFFFFFEu - static_cast<std::uint32_t>(j));
          c.decrypt = (rot + j) % 2 == 1;
          c.in_place = (rot + j) % 3 == 0;
          c.want = lane_reference(keys[j], c.mac0, c.ctr0, c.decrypt, c.in);
        }
        for (const auto& tier : concrete_tiers()) {
          ScopedKernel k(tier);
          std::vector<Bytes> bufs(n);
          std::vector<CcmLane> lanes(n);
          for (std::size_t j = 0; j < n; ++j) {
            const Case& c = cases[j];
            bufs[j] = c.in_place ? c.in : Bytes(c.in.size(), 0);
            lanes[j] = {.keys = &keys[j],
                        .mac = c.mac0,
                        .ctr = c.ctr0,
                        .decrypt = c.decrypt,
                        .in = c.in_place ? bufs[j].data() : c.in.data(),
                        .out = bufs[j].data(),
                        .nblocks = c.in.size() / 16};
          }
          active_kernels().ccm_lanes(lanes.data(), n);
          for (std::size_t j = 0; j < n; ++j) {
            const auto where = ::testing::Message()
                               << tier << " key=" << key_len << " lanes=" << n << " rot=" << rot
                               << " lane=" << j << " blocks=" << lanes[j].nblocks;
            ASSERT_EQ(bufs[j], cases[j].want.out) << where;
            ASSERT_EQ(lanes[j].mac, cases[j].want.mac) << where;
            ASSERT_EQ(lanes[j].ctr, cases[j].want.ctr) << where;
          }
        }
      }
    }
  }
}

TEST(KernelDispatch, CcmBatchBitIdentity) {
  // ccm_batch over 1..5 jobs, with seals and opens, tampered tags and tags
  // of the wrong length, and payloads of kLaneBlocks blocks plus partial
  // tails. Even reps give every job one of two AES-128 keys (five jobs
  // split into kernel calls of four and one); odd reps mix key sizes, so
  // lanes group by round count. Every tier must equal the jobs run one at a time through
  // ccm_seal / ccm_open on the portable tier.
  Rng rng(115);
  std::vector<AesRoundKeys> keys;
  for (std::size_t key_len : {16u, 16u, 24u, 32u, 24u})
    keys.push_back(aes_expand_key(rng.bytes(key_len)));
  const CcmParams params[] = {{.tag_len = 16, .nonce_len = 13},
                              {.tag_len = 8, .nonce_len = 12},
                              {.tag_len = 4, .nonce_len = 7}};
  for (std::size_t n = 1; n <= 5; ++n) {
    for (std::size_t rep = 0; rep < 12; ++rep) {
      struct Case {
        std::size_t key;
        CcmParams p;
        bool decrypt;
        Bytes nonce, aad, input, tag;
        std::optional<Bytes> want_out;
        Bytes want_tag;
      };
      std::vector<Case> cases(n);
      for (std::size_t j = 0; j < n; ++j) {
        Case& c = cases[j];
        const std::size_t v = rep + 3 * j;
        c.key = rep % 2 == 0 ? j % 2 : v % keys.size();
        c.p = params[v % std::size(params)];
        c.decrypt = v % 2 == 1;
        c.nonce = rng.bytes(c.p.nonce_len);
        c.aad = rng.bytes(v % 3 == 0 ? 0 : 5 * v);
        const std::size_t tail = v % 4 == 0 ? 0 : (7 * v) % 16;
        Bytes pt = rng.bytes(16 * kLaneBlocks[v % std::size(kLaneBlocks)] + tail);
        ScopedKernel k("portable");
        if (!c.decrypt) {
          c.input = pt;
          CcmSealed want = ccm_seal(keys[c.key], c.p, c.nonce, c.aad, pt);
          c.want_out = want.ciphertext;
          c.want_tag = want.tag;
          continue;
        }
        CcmSealed sealed = ccm_seal(keys[c.key], c.p, c.nonce, c.aad, pt);
        c.input = sealed.ciphertext;
        c.tag = sealed.tag;
        if (v % 5 == 2) c.tag[v % c.tag.size()] ^= 0x40;  // tampered
        if (v % 7 == 3) c.tag.push_back(0);                // wrong length
        c.want_out = ccm_open(keys[c.key], c.p, c.nonce, c.aad, c.input, c.tag);
      }
      for (const auto& tier : concrete_tiers()) {
        ScopedKernel k(tier);
        std::vector<CcmJob> jobs(n);
        for (std::size_t j = 0; j < n; ++j) {
          const Case& c = cases[j];
          jobs[j] = c.decrypt ? CcmJob::open(keys[c.key], c.p, c.nonce, c.aad, c.input, c.tag)
                              : CcmJob::seal(keys[c.key], c.p, c.nonce, c.aad, c.input);
        }
        ccm_batch(jobs);
        for (std::size_t j = 0; j < n; ++j) {
          const Case& c = cases[j];
          const auto where = ::testing::Message() << tier << " jobs=" << n << " rep=" << rep
                                                  << " job=" << j << " len=" << c.input.size();
          ASSERT_EQ(jobs[j].ok, c.want_out.has_value()) << where;
          ASSERT_EQ(jobs[j].output, c.want_out.value_or(Bytes{})) << where;
          ASSERT_EQ(jobs[j].sealed_tag, c.want_tag) << where;
        }
      }
    }
  }
}

TEST(KernelDispatch, CcmBatchValidatesBeforeRunning) {
  // A bad job anywhere in the batch throws before any job is computed.
  Rng rng(116);
  const AesRoundKeys keys = aes_expand_key(rng.bytes(16));
  const Bytes nonce = rng.bytes(13), pt = rng.bytes(64);
  std::vector<CcmJob> jobs{CcmJob::seal(keys, {}, nonce, {}, pt),
                           CcmJob::seal(keys, {}, ByteSpan(nonce).first(12), {}, pt)};
  EXPECT_THROW(ccm_batch(jobs), std::invalid_argument);
  EXPECT_TRUE(jobs[0].output.empty());
  EXPECT_FALSE(jobs[0].ok);
  jobs[1].nonce = nonce;
  jobs[1].params.tag_len = 5;
  EXPECT_THROW(ccm_batch(jobs), std::invalid_argument);
  jobs[1].params.tag_len = 16;
  ccm_batch(jobs);
  EXPECT_TRUE(jobs[0].ok && jobs[1].ok);
  EXPECT_EQ(jobs[0].output, jobs[1].output);
  EXPECT_EQ(jobs[0].sealed_tag, jobs[1].sealed_tag);
}

TEST(KernelDispatch, CcmLanesMatchOneAtATimeInAnyFinishOrder) {
  // Seeded submit/finish interleavings on one CcmLanes: up to 7 jobs live
  // at once (more than kMaxCcmLanes), finished in random order, not
  // submit order. Jobs carry 0..1100 full blocks plus tails that are
  // mostly not block-aligned, AES-128/192/256 keys live together, and mix
  // seals and opens, in place and out of place, with tampered tags and
  // tags of the wrong length. Every result must equal ccm_seal / ccm_open
  // on the portable tier.
  Rng rng(117);
  std::vector<AesRoundKeys> keys;
  for (std::size_t key_len : {16u, 24u, 32u, 16u})
    keys.push_back(aes_expand_key(rng.bytes(key_len)));
  const CcmParams params[] = {{.tag_len = 16, .nonce_len = 13},
                              {.tag_len = 8, .nonce_len = 12},
                              {.tag_len = 4, .nonce_len = 7}};
  const std::size_t kEdgeBlocks[] = {0, 1, 3, 4, 5, 255, 1100};
  constexpr std::size_t kMaxLive = 7;
  for (std::size_t rep = 0; rep < 6; ++rep) {
    struct Case {
      const AesRoundKeys* keys;
      CcmParams p;
      bool decrypt, in_place;
      Bytes nonce, aad, input, tag;
      std::optional<Bytes> want_out;
      Bytes want_tag;
    };
    std::vector<Case> cases(10 + rng.next_below(6));
    for (Case& c : cases) {
      c.keys = &keys[rng.next_below(keys.size())];
      c.p = params[rng.next_below(std::size(params))];
      c.decrypt = rng.next_below(2) == 1;
      c.in_place = rng.next_below(2) == 1;
      c.nonce = rng.bytes(c.p.nonce_len);
      c.aad = rng.bytes(rng.next_below(3) == 0 ? 0 : rng.next_below(40));
      const std::size_t blocks = rng.next_below(3) == 0
                                     ? kEdgeBlocks[rng.next_below(std::size(kEdgeBlocks))]
                                     : rng.next_below(1101);
      const std::size_t tail = rng.next_below(4) == 0 ? 0 : 1 + rng.next_below(15);
      const Bytes pt = rng.bytes(16 * blocks + tail);
      ScopedKernel k("portable");
      const CcmSealed sealed = ccm_seal(*c.keys, c.p, c.nonce, c.aad, pt);
      if (!c.decrypt) {
        c.input = pt;
        c.want_out = sealed.ciphertext;
        c.want_tag = sealed.tag;
        continue;
      }
      c.input = sealed.ciphertext;
      c.tag = sealed.tag;
      const std::uint64_t spoil = rng.next_below(6);
      if (spoil == 0) c.tag[rng.next_below(c.tag.size())] ^= 0x10;  // tampered
      if (spoil == 1) c.tag.push_back(0);                             // wrong length
      if (spoil == 2) c.tag.pop_back();
      c.want_out = ccm_open(*c.keys, c.p, c.nonce, c.aad, c.input, c.tag);
    }
    // One interleaving per rep, the same on every tier: submit while fewer
    // than kMaxLive are live (and by coin flip once any are), otherwise
    // finish a random live job.
    std::vector<std::size_t> order;  // case index to submit, or ~finish slot
    {
      std::size_t next = 0;
      std::vector<std::size_t> live;
      while (next < cases.size() || !live.empty()) {
        const bool submit = next < cases.size() && live.size() < kMaxLive &&
                            (live.empty() || rng.next_below(3) != 0);
        if (submit) {
          order.push_back(next);
          live.push_back(next++);
          continue;
        }
        const std::size_t pick = rng.next_below(live.size());
        order.push_back(~live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    for (const auto& tier : concrete_tiers()) {
      ScopedKernel k(tier);
      CcmLanes lanes;
      std::vector<Bytes> bufs(cases.size());
      std::vector<std::size_t> handle(cases.size());
      std::size_t peak = 0, live = 0;
      for (std::size_t step : order) {
        if (step < cases.size()) {
          Case& c = cases[step];
          CcmJob job;
          if (c.in_place) {
            bufs[step] = c.input;
            job = c.decrypt ? CcmJob::open_in_place(*c.keys, c.p, c.nonce, c.aad, bufs[step], c.tag)
                            : CcmJob::seal_in_place(*c.keys, c.p, c.nonce, c.aad, bufs[step]);
          } else {
            job = c.decrypt ? CcmJob::open(*c.keys, c.p, c.nonce, c.aad, c.input, c.tag)
                            : CcmJob::seal(*c.keys, c.p, c.nonce, c.aad, c.input);
          }
          handle[step] = lanes.submit(job);
          peak = std::max(peak, ++live);
          continue;
        }
        const std::size_t i = ~step;
        const Case& c = cases[i];
        const CcmJob& done = lanes.finish(handle[i]);
        --live;
        const auto where = ::testing::Message()
                           << tier << " rep=" << rep << " job=" << i << " len=" << c.input.size()
                           << " decrypt=" << c.decrypt << " in_place=" << c.in_place;
        ASSERT_EQ(done.ok, c.want_out.has_value()) << where;
        ASSERT_EQ(done.sealed_tag, c.want_tag) << where;
        if (!c.in_place) {
          ASSERT_EQ(done.output, c.want_out.value_or(Bytes{})) << where;
          continue;
        }
        ASSERT_TRUE(done.output.empty()) << where;
        // A failed open leaves its buffer zeroed.
        ASSERT_EQ(bufs[i], c.want_out.value_or(Bytes(c.input.size(), 0))) << where;
      }
      EXPECT_GT(peak, kMaxCcmLanes) << tier << " rep=" << rep;
    }
  }
}

TEST(KernelDispatch, TableBuiltUnderPortableStillAcceleratesGhash) {
  // Gf128Table caches its CLMUL powers on hardware capability, not on the
  // dispatched tier — a table built while portable was forced must still
  // produce identical digests after flipping to a hardware tier, through
  // the bulk GHASH kernel (37 blocks: 16-block steps on `vaes`, 8-block
  // ones on `aesni`, then the tail) and through a GCM seal whose GcmKey
  // was built under portable too.
  if (hardware_tiers().empty()) GTEST_SKIP() << "no hardware tiers on this host";
  Rng rng(108);
  Block128 h = rng.block();
  Bytes data = rng.bytes(16 * 37 + 8);
  const Bytes iv = rng.bytes(12), aad = rng.bytes(19);
  Block128 want;
  GcmSealed want_sealed;
  std::optional<GcmKey> key;
  Gf128Table table = [&] {
    ScopedKernel k("portable");
    Gf128Table t(h);
    Ghash g(h);
    g.update_padded(data);
    want = g.digest();
    key.emplace(aes_expand_key(rng.bytes(16)));
    want_sealed = gcm_seal(*key, iv, aad, data);
    return t;
  }();
  for (const auto& tier : hardware_tiers()) {
    ScopedKernel k(tier);
    Block128 y{};
    const std::size_t full = data.size() / 16;
    active_kernels().ghash_blocks(table, y, data.data(), full);
    const Block128 tail = Block128::from_span(ByteSpan(data).subspan(16 * full));
    y = active_kernels().ghash_mul(table, y ^ tail);
    ASSERT_EQ(y, want) << tier;
    const GcmSealed sealed = gcm_seal(*key, iv, aad, data);
    ASSERT_EQ(sealed.ciphertext, want_sealed.ciphertext) << tier;
    ASSERT_EQ(sealed.tag, want_sealed.tag) << tier;
  }
}

// Block counts of the GHASH, CTR and GCM sweeps: every count 0..40 (each
// position of the 4-, 8- and 16-block aggregation steps and their tails)
// and 255..257, around the hardware's 255-block packet limit.
std::vector<std::size_t> sweep_blocks() {
  std::vector<std::size_t> blocks;
  for (std::size_t n = 0; n <= 40; ++n) blocks.push_back(n);
  for (std::size_t n : {255u, 256u, 257u}) blocks.push_back(n);
  return blocks;
}

TEST(KernelDispatch, GhashBlocksKernelDirect) {
  // The bulk entry itself, from a random (non-zero) starting digest, on
  // every tier against the portable Shoup-table loop.
  Rng rng(117);
  for (int rep = 0; rep < 3; ++rep) {
    const Gf128Table table(rng.block());
    for (std::size_t nblocks : sweep_blocks()) {
      const Bytes data = rng.bytes(16 * nblocks);
      const Block128 y0 = rng.block();
      Block128 want = y0;
      {
        ScopedKernel k("portable");
        active_kernels().ghash_blocks(table, want, data.data(), nblocks);
      }
      for (const auto& tier : hardware_tiers()) {
        ScopedKernel k(tier);
        Block128 y = y0;
        active_kernels().ghash_blocks(table, y, data.data(), nblocks);
        ASSERT_EQ(y, want) << tier << " nblocks=" << nblocks;
      }
    }
  }
}

TEST(KernelDispatch, CtrXorKernelDirect) {
  // The CTR entry GCM runs on, on every tier against the portable one: a
  // seeded sweep over sweep_blocks() whole blocks plus a final partial
  // block of 0..15 bytes, AES-128/192/256, both counter walks, out of
  // place and in place (in == out), from a random counter.
  Rng rng(119);
  std::size_t case_no = 0;
  for (std::size_t key_len : {16u, 24u, 32u}) {
    const AesRoundKeys keys = aes_expand_key(rng.bytes(key_len));
    for (std::size_t nblocks : sweep_blocks()) {
      const std::size_t len = 16 * nblocks + (case_no / 4) % 16;  // every tail 0..15
      const Bytes in = rng.bytes(len);
      const Block128 ctr = rng.block();
      const bool wide = case_no % 2 == 0;
      const bool in_place = case_no % 4 >= 2;
      ++case_no;
      Bytes want(len);
      {
        ScopedKernel k("portable");
        active_kernels().ctr_xor(keys, ctr, wide, in.data(), want.data(), len);
      }
      for (const auto& tier : hardware_tiers()) {
        ScopedKernel k(tier);
        Bytes buf = in_place ? in : Bytes(len, 0);
        active_kernels().ctr_xor(keys, ctr, wide, in_place ? buf.data() : in.data(), buf.data(),
                                 len);
        ASSERT_EQ(buf, want) << tier << " key=" << key_len << " len=" << len << " wide=" << wide
                             << " in_place=" << in_place;
      }
    }
  }
}

TEST(KernelDispatch, GcmSealOpenSweep) {
  // GCM seal and open on every tier against the portable tier, over the
  // same lengths (sweep_blocks() whole blocks plus a 0..15-byte tail),
  // AES-128/192/256, both counter walks, and 12-byte or derived-J0 IVs.
  Rng rng(120);
  std::size_t case_no = 0;
  for (std::size_t key_len : {16u, 24u, 32u}) {
    const GcmKey key(aes_expand_key(rng.bytes(key_len)));
    for (std::size_t nblocks : sweep_blocks()) {
      const std::size_t len = 16 * nblocks + (case_no / 2) % 16;
      const Bytes iv = rng.bytes(case_no % 3 == 2 ? 8 : 12), aad = rng.bytes(case_no % 37);
      const Bytes pt = rng.bytes(len);
      const GcmCounter walk = case_no % 2 == 0 ? GcmCounter::kInc32 : GcmCounter::kInc16;
      ++case_no;
      GcmSealed want;
      {
        ScopedKernel k("portable");
        want = gcm_seal(key, iv, aad, pt, 16, walk);
      }
      for (const auto& tier : hardware_tiers()) {
        ScopedKernel k(tier);
        const auto where = ::testing::Message() << tier << " key=" << key_len << " len=" << len;
        const GcmSealed got = gcm_seal(key, iv, aad, pt, 16, walk);
        ASSERT_EQ(got.ciphertext, want.ciphertext) << where;
        ASSERT_EQ(got.tag, want.tag) << where;
        const auto opened = gcm_open(key, iv, aad, want.ciphertext, want.tag, walk);
        ASSERT_TRUE(opened.has_value()) << where;
        ASSERT_EQ(*opened, pt) << where;
      }
    }
  }
}

/// An 8-byte IV whose GHASH-derived J0 puts the low 16 counter bits within
/// `room` of 0xFFFF, found by a seeded search.
Bytes iv_with_j0_near_wrap(const GcmKey& key, Rng& rng, unsigned room) {
  for (;;) {
    Bytes iv = rng.bytes(8);
    const Block128 j0 = gcm_j0(key, iv);
    if (((unsigned{j0.b[14]} << 8) | j0.b[15]) >= 0xFFFFu - room) return iv;
  }
}

TEST(KernelDispatch, GcmInc16WalkFromDerivedJ0) {
  // The MCCP INC core's walk from a derived (non-96-bit) J0 that wraps the
  // low 16 bits within the packet: every tier seals and opens exactly like
  // the portable tier, the walk differs from inc32 once it wraps, and the
  // seal is the inc16 CTR transform plus the GHASH tag built from the
  // generic pieces.
  Rng rng(121);
  for (std::size_t key_len : {16u, 24u, 32u}) {
    const GcmKey key(aes_expand_key(rng.bytes(key_len)));
    const Bytes iv = iv_with_j0_near_wrap(key, rng, 16);
    const Bytes aad = rng.bytes(21), pt = rng.bytes(16 * 40 + 5);
    GcmSealed want;
    {
      ScopedKernel k("portable");
      want = gcm_seal(key, iv, aad, pt, 16, GcmCounter::kInc16);
      const Block128 j0 = gcm_j0(key, iv);
      ASSERT_EQ(want.ciphertext, ctr_transform_inc16(key.keys, inc16(j0, 1), pt));
      EXPECT_NE(want.ciphertext, gcm_seal(key, iv, aad, pt).ciphertext);
      Ghash g(key.htable);
      g.update_padded(aad);
      g.update_padded(want.ciphertext);
      g.update(gcm_length_block(aad.size(), pt.size()));
      ASSERT_EQ(want.tag, (g.digest() ^ aes_encrypt_block(key.keys, j0)).to_bytes());
    }
    for (const auto& tier : concrete_tiers()) {
      ScopedKernel k(tier);
      const GcmSealed got = gcm_seal(key, iv, aad, pt, 16, GcmCounter::kInc16);
      ASSERT_EQ(got.ciphertext, want.ciphertext) << tier << " key=" << key_len;
      ASSERT_EQ(got.tag, want.tag) << tier << " key=" << key_len;
      const auto opened = gcm_open(key, iv, aad, want.ciphertext, want.tag, GcmCounter::kInc16);
      ASSERT_TRUE(opened.has_value()) << tier;
      ASSERT_EQ(*opened, pt) << tier;
    }
  }
}

TEST(KernelDispatch, GcmOpenNeverReturnsUnverifiedPlaintext) {
  // On every tier and both walks, an open whose tag does not verify — a
  // flipped tag, ciphertext or AAD bit, a tag of the wrong length, an
  // empty IV — returns nothing at all, whatever the payload length, and
  // an in-place open leaves zeros in its buffer.
  Rng rng(122);
  const GcmKey key(aes_expand_key(rng.bytes(16)));
  for (const auto& tier : concrete_tiers()) {
    ScopedKernel k(tier);
    for (GcmCounter walk : {GcmCounter::kInc32, GcmCounter::kInc16}) {
      for (std::size_t len : {0u, 7u, 16u, 255u, 256u, 4096u + 3u}) {
        const Bytes iv = rng.bytes(12), aad = rng.bytes(len % 29), pt = rng.bytes(len);
        const GcmSealed sealed = gcm_seal(key, iv, aad, pt, 16, walk);
        const auto opened = gcm_open(key, iv, aad, sealed.ciphertext, sealed.tag, walk);
        ASSERT_TRUE(opened.has_value()) << tier;
        ASSERT_EQ(*opened, pt) << tier;
        const auto where = ::testing::Message() << tier << " len=" << len;
        auto expect_refused = [&](ByteSpan v, ByteSpan a, ByteSpan ct, ByteSpan tag) {
          EXPECT_FALSE(gcm_open(key, v, a, ct, tag, walk)) << where;
          Bytes buf(ct.begin(), ct.end());
          EXPECT_FALSE(gcm_open_in_place(key, v, a, buf, tag, walk)) << where;
          EXPECT_EQ(buf, Bytes(ct.size(), 0)) << where;
        };
        for (std::size_t i = 0; i < sealed.tag.size(); i += 5) {
          Bytes bad = sealed.tag;
          bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
          expect_refused(iv, aad, sealed.ciphertext, bad);
        }
        if (!pt.empty()) {
          Bytes bad = sealed.ciphertext;
          bad[len / 2] ^= 0x20;
          expect_refused(iv, aad, bad, sealed.tag);
        }
        if (!aad.empty()) {
          Bytes bad = aad;
          bad.back() ^= 0x01;
          expect_refused(iv, bad, sealed.ciphertext, sealed.tag);
        }
        const ByteSpan tag(sealed.tag);
        EXPECT_FALSE(gcm_open(key, iv, aad, sealed.ciphertext, tag.first(3), walk)) << where;
        Bytes long_tag = sealed.tag;
        long_tag.push_back(0);
        expect_refused(iv, aad, sealed.ciphertext, long_tag);
        expect_refused({}, aad, sealed.ciphertext, sealed.tag);
      }
    }
  }
}

TEST(Ccm, OpenNeverReturnsUnverifiedPlaintext) {
  // The CCM mirror of the GCM case: on every tier, an open whose tag does
  // not verify — a flipped tag, ciphertext or AAD bit, a tag of the wrong
  // length — returns nothing, out of place or in place, and an in-place
  // open leaves zeros in its buffer.
  Rng rng(123);
  const AesRoundKeys keys = aes_expand_key(rng.bytes(16));
  const CcmParams params[] = {{.tag_len = 16, .nonce_len = 13}, {.tag_len = 4, .nonce_len = 7}};
  for (const auto& tier : concrete_tiers()) {
    ScopedKernel k(tier);
    for (const CcmParams& p : params) {
      for (std::size_t len : {0u, 7u, 16u, 255u, 256u, 4096u + 3u}) {
        const Bytes nonce = rng.bytes(p.nonce_len), aad = rng.bytes(len % 29);
        const Bytes pt = rng.bytes(len);
        const CcmSealed sealed = ccm_seal(keys, p, nonce, aad, pt);
        const auto opened = ccm_open(keys, p, nonce, aad, sealed.ciphertext, sealed.tag);
        ASSERT_TRUE(opened.has_value()) << tier;
        ASSERT_EQ(*opened, pt) << tier;
        const auto where = ::testing::Message() << tier << " tag_len=" << p.tag_len
                                                << " len=" << len;
        auto expect_refused = [&](ByteSpan a, ByteSpan ct, ByteSpan tag) {
          EXPECT_FALSE(ccm_open(keys, p, nonce, a, ct, tag)) << where;
          Bytes buf(ct.begin(), ct.end());
          CcmJob jobs[] = {CcmJob::open(keys, p, nonce, a, ct, tag),
                           CcmJob::open_in_place(keys, p, nonce, a, buf, tag)};
          ccm_batch(jobs);
          for (const CcmJob& job : jobs) {
            EXPECT_FALSE(job.ok) << where;
            EXPECT_TRUE(job.output.empty()) << where;
          }
          EXPECT_EQ(buf, Bytes(ct.size(), 0)) << where;
        };
        for (std::size_t i = 0; i < sealed.tag.size(); i += 3) {
          Bytes bad = sealed.tag;
          bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
          expect_refused(aad, sealed.ciphertext, bad);
        }
        if (!pt.empty()) {
          Bytes bad = sealed.ciphertext;
          bad[len / 2] ^= 0x20;
          expect_refused(aad, bad, sealed.tag);
        }
        if (!aad.empty()) {
          Bytes bad = aad;
          bad.back() ^= 0x01;
          expect_refused(bad, sealed.ciphertext, sealed.tag);
        }
        expect_refused(aad, sealed.ciphertext, ByteSpan(sealed.tag).first(p.tag_len - 2));
        Bytes long_tag = sealed.tag;
        long_tag.push_back(0);
        expect_refused(aad, sealed.ciphertext, long_tag);
      }
    }
  }
}

TEST(KernelDispatch, InPlaceSweep) {
  // The in-place cores FastDevice runs on the job's own payload buffer —
  // GCM seal/open (both walks), CCM seal/open through ccm_batch and the
  // inc16 CTR transform — on every tier against the out-of-place calls
  // and the portable tier: sweep_blocks() whole blocks with every tail of
  // 0..15 bytes, AES-128/192/256, 8- and 12-byte GCM IVs, and tampered
  // opens. Each CCM batch mixes in-place and out-of-place jobs, seals and
  // opens.
  Rng rng(124);
  const CcmParams ccm_params[] = {{.tag_len = 16, .nonce_len = 13},
                                  {.tag_len = 8, .nonce_len = 12},
                                  {.tag_len = 4, .nonce_len = 7}};
  std::size_t case_no = 0;
  for (std::size_t key_len : {16u, 24u, 32u}) {
    const GcmKey key(aes_expand_key(rng.bytes(key_len)));
    for (std::size_t nblocks : sweep_blocks()) {
      for (std::size_t tail = 0; tail < 16; ++tail, ++case_no) {
        const std::size_t len = 16 * nblocks + tail;
        const Bytes pt = rng.bytes(len), aad = rng.bytes(case_no % 23);
        const Bytes iv = rng.bytes(case_no % 3 == 2 ? 8 : 12);
        const GcmCounter walk = case_no % 2 == 0 ? GcmCounter::kInc32 : GcmCounter::kInc16;
        const CcmParams& p = ccm_params[case_no % std::size(ccm_params)];
        const Bytes nonce = rng.bytes(p.nonce_len);
        const Block128 ctr = rng.block();
        GcmSealed gcm_want;
        CcmSealed ccm_want;
        Bytes ctr_want;
        {
          ScopedKernel k("portable");
          gcm_want = gcm_seal(key, iv, aad, pt, 16, walk);
          ccm_want = ccm_seal(key.keys, p, nonce, aad, pt);
          ctr_want = ctr_transform_inc16(key.keys, ctr, pt);
        }
        Bytes bad_tag = ccm_want.tag;
        bad_tag[case_no % bad_tag.size()] ^= 0x10;
        for (const auto& tier : concrete_tiers()) {
          ScopedKernel k(tier);
          const auto where = ::testing::Message() << tier << " key=" << key_len << " len=" << len
                                                  << " iv=" << iv.size() << " case=" << case_no;
          // GCM: out of place, then in place.
          const GcmSealed gcm_got = gcm_seal(key, iv, aad, pt, 16, walk);
          ASSERT_EQ(gcm_got.ciphertext, gcm_want.ciphertext) << where;
          ASSERT_EQ(gcm_got.tag, gcm_want.tag) << where;
          Bytes buf = pt;
          ASSERT_EQ(gcm_seal_in_place(key, iv, aad, buf, walk).to_bytes(), gcm_want.tag) << where;
          ASSERT_EQ(buf, gcm_want.ciphertext) << where;
          ASSERT_EQ(gcm_open(key, iv, aad, gcm_want.ciphertext, gcm_want.tag, walk), pt) << where;
          ASSERT_TRUE(gcm_open_in_place(key, iv, aad, buf, gcm_want.tag, walk)) << where;
          ASSERT_EQ(buf, pt) << where;
          buf = gcm_want.ciphertext;
          Bytes gcm_bad = gcm_want.tag;
          gcm_bad[case_no % 16] ^= 0x01;
          ASSERT_FALSE(gcm_open(key, iv, aad, buf, gcm_bad, walk)) << where;
          ASSERT_FALSE(gcm_open_in_place(key, iv, aad, buf, gcm_bad, walk)) << where;
          ASSERT_EQ(buf, Bytes(len, 0)) << where;

          // CCM: one batch of seals and opens, in place and out of place,
          // a tampered one of each.
          Bytes seal_buf = pt, open_buf = ccm_want.ciphertext, bad_buf = ccm_want.ciphertext;
          std::vector<CcmJob> jobs{
              CcmJob::seal_in_place(key.keys, p, nonce, aad, seal_buf),
              CcmJob::open(key.keys, p, nonce, aad, ccm_want.ciphertext, ccm_want.tag),
              CcmJob::open_in_place(key.keys, p, nonce, aad, open_buf, ccm_want.tag),
              CcmJob::seal(key.keys, p, nonce, aad, pt),
              CcmJob::open_in_place(key.keys, p, nonce, aad, bad_buf, bad_tag),
              CcmJob::open(key.keys, p, nonce, aad, ccm_want.ciphertext, bad_tag)};
          ccm_batch(jobs);
          ASSERT_TRUE(jobs[0].ok && jobs[1].ok && jobs[2].ok && jobs[3].ok) << where;
          ASSERT_EQ(seal_buf, ccm_want.ciphertext) << where;
          ASSERT_EQ(jobs[0].sealed_tag, ccm_want.tag) << where;
          ASSERT_TRUE(jobs[0].output.empty()) << where;
          ASSERT_EQ(jobs[1].output, pt) << where;
          ASSERT_EQ(open_buf, pt) << where;
          ASSERT_TRUE(jobs[2].output.empty()) << where;
          ASSERT_EQ(jobs[3].output, ccm_want.ciphertext) << where;
          ASSERT_EQ(jobs[3].sealed_tag, ccm_want.tag) << where;
          ASSERT_FALSE(jobs[4].ok || jobs[5].ok) << where;
          ASSERT_EQ(bad_buf, Bytes(len, 0)) << where;
          ASSERT_TRUE(jobs[5].output.empty()) << where;

          // The inc16 CTR transform.
          buf = pt;
          ctr_transform_inc16_in_place(key.keys, ctr, buf);
          ASSERT_EQ(buf, ctr_want) << where;
          ASSERT_EQ(ctr_transform_inc16(key.keys, ctr, pt), ctr_want) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mccp::crypto
