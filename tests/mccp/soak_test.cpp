// Deterministic soak test: a long, mixed, adversarial session on one
// platform instance — every mode, both directions, forged packets, a
// mid-session reconfiguration and a key rotation — everything must stay
// correct and every resource must come back.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/ccm.h"
#include "crypto/gcm.h"
#include "crypto/whirlpool.h"
#include "host/engine.h"
#include "support/one_device.h"

namespace mccp::host {
namespace {

using mccp::testing::one_device;

TEST(Soak, LongMixedSession) {
  Engine engine = one_device({.num_cores = 4, .ccm_mapping = top::CcmMapping::kAdaptive});
  top::Mccp& mccp = engine.sim_device(0)->mccp();
  Rng rng(20260612);

  Bytes k_gcm = rng.bytes(32), k_ccm = rng.bytes(16);
  engine.provision_key(1, k_gcm);
  engine.provision_key(2, k_ccm);
  Channel gcm = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel ccm = engine.open_channel(ChannelMode::kCcm, 2, 8, 13);
  ASSERT_TRUE(gcm.valid() && ccm.valid());
  auto keys_gcm = crypto::aes_expand_key(k_gcm);
  auto keys_ccm = crypto::aes_expand_key(k_ccm);

  struct Expect {
    Completion job;
    enum Kind { kSeal, kOpenOk, kOpenForged, kHash } kind;
    Bytes payload_ref;  // expected output payload (or digest)
    Bytes tag_ref;      // expected tag (seal only)
  };
  std::vector<Expect> expects;

  // Phase 1: 30 mixed encrypt/decrypt/forged packets.
  for (int i = 0; i < 30; ++i) {
    Bytes pt = rng.bytes(16 * (1 + rng.next_below(40)));
    bool use_gcm = rng.next_below(2) == 0;
    Bytes iv = rng.bytes(use_gcm ? 12 : 13);
    Bytes aad = rng.bytes(rng.next_below(25));
    switch (rng.next_below(3)) {
      case 0: {  // encrypt on-platform, check against reference
        Completion job = engine.submit_encrypt(use_gcm ? gcm : ccm, iv, aad, pt,
                                               static_cast<unsigned>(rng.next_below(4)) * 50);
        if (use_gcm) {
          auto ref = crypto::gcm_seal(keys_gcm, iv, aad, pt);
          expects.push_back({job, Expect::kSeal, ref.ciphertext, ref.tag});
        } else {
          auto ref = crypto::ccm_seal(keys_ccm, {.tag_len = 8, .nonce_len = 13}, iv, aad, pt);
          expects.push_back({job, Expect::kSeal, ref.ciphertext, ref.tag});
        }
        break;
      }
      case 1: {  // decrypt a good packet
        Bytes ct, tag;
        if (use_gcm) {
          auto ref = crypto::gcm_seal(keys_gcm, iv, aad, pt);
          ct = ref.ciphertext;
          tag = ref.tag;
        } else {
          auto ref = crypto::ccm_seal(keys_ccm, {.tag_len = 8, .nonce_len = 13}, iv, aad, pt);
          ct = ref.ciphertext;
          tag = ref.tag;
        }
        Completion job = engine.submit_decrypt(use_gcm ? gcm : ccm, iv, aad, ct, tag);
        expects.push_back({job, Expect::kOpenOk, pt, {}});
        break;
      }
      default: {  // decrypt a forgery
        Bytes ct, tag;
        if (use_gcm) {
          auto ref = crypto::gcm_seal(keys_gcm, iv, aad, pt);
          ct = ref.ciphertext;
          tag = ref.tag;
        } else {
          auto ref = crypto::ccm_seal(keys_ccm, {.tag_len = 8, .nonce_len = 13}, iv, aad, pt);
          ct = ref.ciphertext;
          tag = ref.tag;
        }
        std::size_t victim = rng.next_below(ct.size());
        ct[victim] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
        Completion job = engine.submit_decrypt(use_gcm ? gcm : ccm, iv, aad, ct, tag);
        expects.push_back({job, Expect::kOpenForged, {}, {}});
        break;
      }
    }
  }
  engine.wait_all();

  // Phase 2: reconfigure core 3 for hashing and mix hash jobs with traffic.
  auto swap = mccp.begin_core_reconfiguration(3, reconfig::CoreImage::kWhirlpool,
                                              reconfig::BitstreamStore::kRam);
  ASSERT_TRUE(swap.has_value());
  engine.run(*swap + 2);
  Channel wp = engine.open_channel(ChannelMode::kWhirlpool, 0);
  ASSERT_TRUE(wp.valid());
  for (int i = 0; i < 6; ++i) {
    Bytes msg = rng.bytes(rng.next_below(700));
    Completion job = engine.submit_encrypt(wp, {}, {}, msg);
    auto ref = crypto::whirlpool(msg);
    expects.push_back({job, Expect::kHash, Bytes(ref.begin(), ref.end()), {}});
    Bytes pt = rng.bytes(256);
    Bytes iv = rng.bytes(12);
    Completion ejob = engine.submit_encrypt(gcm, iv, {}, pt);
    auto eref = crypto::gcm_seal(keys_gcm, iv, {}, pt);
    expects.push_back({ejob, Expect::kSeal, eref.ciphertext, eref.tag});
  }
  engine.wait_all();

  // Phase 3: rotate the GCM key and confirm the new epoch takes.
  Bytes k_gcm2 = rng.bytes(32);
  engine.provision_key(1, k_gcm2);
  auto keys_gcm2 = crypto::aes_expand_key(k_gcm2);
  {
    Bytes iv = rng.bytes(12), pt = rng.bytes(160);
    Completion job = engine.submit_encrypt(gcm, iv, {}, pt);
    auto ref = crypto::gcm_seal(keys_gcm2, iv, {}, pt);
    expects.push_back({job, Expect::kSeal, ref.ciphertext, ref.tag});
  }
  engine.wait_all();

  // Verdicts.
  for (const auto& e : expects) {
    const JobResult& r = e.job.result();
    ASSERT_TRUE(r.complete) << "job " << e.job.id();
    switch (e.kind) {
      case Expect::kSeal:
        EXPECT_TRUE(r.auth_ok);
        EXPECT_EQ(to_hex(r.payload), to_hex(e.payload_ref)) << "job " << e.job.id();
        EXPECT_EQ(to_hex(r.tag), to_hex(e.tag_ref)) << "job " << e.job.id();
        break;
      case Expect::kOpenOk:
        EXPECT_TRUE(r.auth_ok) << "job " << e.job.id();
        EXPECT_EQ(to_hex(r.payload), to_hex(e.payload_ref)) << "job " << e.job.id();
        break;
      case Expect::kOpenForged:
        EXPECT_FALSE(r.auth_ok) << "job " << e.job.id();
        EXPECT_TRUE(r.payload.empty()) << "job " << e.job.id();
        break;
      case Expect::kHash:
        EXPECT_EQ(to_hex(r.payload), to_hex(e.payload_ref)) << "job " << e.job.id();
        break;
    }
  }

  // All resources returned.
  EXPECT_EQ(mccp.idle_core_count(), 4u);
  EXPECT_TRUE(engine.idle());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(mccp.core(i).in_fifo().empty()) << i;
    EXPECT_TRUE(mccp.core(i).out_fifo().empty()) << i;
    EXPECT_TRUE(mccp.core(i).idle()) << i;
  }
}

}  // namespace
}  // namespace mccp::host
