// Adaptive CCM mapping policy + the analytic baseline models used by
// bench/flexibility_tradeoff.
#include <gtest/gtest.h>

#include "baseline/pipelined_model.h"
#include "common/rng.h"
#include "crypto/ccm.h"
#include "host/engine.h"
#include "support/one_device.h"

namespace mccp::host {
namespace {

using mccp::testing::one_device;

TEST(AdaptiveMapping, UsesPairWhenCoresArePlentiful) {
  Engine engine = one_device({.num_cores = 4, .ccm_mapping = top::CcmMapping::kAdaptive});
  Rng rng(1);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
  ASSERT_TRUE(ch.valid());
  // Single packet on an idle processor: adaptive must choose the pair.
  Completion job = engine.submit_encrypt(ch, rng.bytes(13), {}, rng.bytes(2048));
  engine.run(3000);  // past acceptance
  top::Mccp& mccp = engine.sim_device(0)->mccp();
  bool split_seen = false;
  for (std::uint8_t req = 0; req < 64; ++req)
    if (const auto* info = mccp.request_info(req))
      if (info->split_ccm) split_seen = true;
  EXPECT_TRUE(split_seen);
  engine.wait_all();
  EXPECT_TRUE(job.result().complete);
  EXPECT_TRUE(job.result().auth_ok);
}

TEST(AdaptiveMapping, FallsBackToSingleUnderSaturation) {
  Engine engine = one_device({.num_cores = 4, .ccm_mapping = top::CcmMapping::kAdaptive});
  Rng rng(2);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  Channel ch = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
  ASSERT_TRUE(ch.valid());
  std::vector<Completion> jobs;
  for (int i = 0; i < 12; ++i)
    jobs.push_back(engine.submit_encrypt(ch, rng.bytes(13), {}, rng.bytes(1024)));
  engine.wait_all();
  // All complete and correct regardless of the mapping each packet got.
  for (const Completion& job : jobs) {
    ASSERT_TRUE(job.result().complete);
    EXPECT_TRUE(job.result().auth_ok);
  }
  // Saturation forces some single-core mappings: with pure pairing only two
  // packets fit at once; twelve packets complete noticeably faster here.
  EXPECT_EQ(engine.sim_device(0)->mccp().idle_core_count(), 4u);
}

TEST(AdaptiveMapping, ResultsIdenticalAcrossPolicies) {
  // The mapping is a performance choice, never a correctness one.
  Rng rng(3);
  Bytes key = rng.bytes(16);
  Bytes nonce = rng.bytes(13), aad = rng.bytes(9), pt = rng.bytes(512);
  Bytes tags[3];
  int i = 0;
  for (auto mapping : {top::CcmMapping::kSingleCore, top::CcmMapping::kPairPreferred,
                       top::CcmMapping::kAdaptive}) {
    Engine engine = one_device({.num_cores = 4, .ccm_mapping = mapping});
    engine.provision_key(1, key);
    Channel ch = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
    ASSERT_TRUE(ch.valid());
    tags[i++] = engine.submit_encrypt(ch, nonce, aad, pt).wait().tag;
  }
  EXPECT_EQ(tags[0], tags[1]);
  EXPECT_EQ(tags[1], tags[2]);
}

TEST(BaselineModels, PipelinedCoreShape) {
  baseline::PipelinedGcmCore pipe;
  // Streaming GCM approaches the published 32 Mbps/MHz for large packets...
  double large = baseline::pipelined_gcm_mbps(pipe, 1 << 20);
  EXPECT_NEAR(large, 32.0 * 140.0, 32.0 * 140.0 * 0.01);
  // ...but short packets pay the fill.
  double small = baseline::pipelined_gcm_mbps(pipe, 64);
  EXPECT_LT(small, large / 2);
  // CCM collapses to one block per pipeline latency.
  EXPECT_NEAR(baseline::pipelined_ccm_mbps(pipe), 128.0 * 140.0 / 40.0, 1e-9);
}

TEST(BaselineModels, MonoCoreMatchesLoopBound) {
  EXPECT_NEAR(baseline::mono_core_mbps({49, 190.0}), 496.3, 0.1);
  EXPECT_NEAR(baseline::mono_core_mbps({104, 190.0}), 233.8, 0.1);
}

TEST(BaselineModels, MixedTrafficIsHarmonic) {
  // Equal split of 100 and 300 Mbps engines -> 150 Mbps, not 200.
  EXPECT_NEAR(baseline::mixed_traffic_mbps(0.5, 300, 100), 150.0, 1e-9);
  // Degenerate cases.
  EXPECT_NEAR(baseline::mixed_traffic_mbps(1.0, 300, 100), 300.0, 1e-9);
  EXPECT_NEAR(baseline::mixed_traffic_mbps(0.0, 300, 100), 100.0, 1e-9);
}

TEST(Ccm2Property, RandomShapesThroughThePlatform) {
  // Split-CCM property sweep: random nonce/tag/aad/payload shapes across
  // the two-core path must match the software reference.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed * 7919 + 3);
    std::size_t key_len = (rng.next_below(3) + 2) * 8;
    Bytes key = rng.bytes(key_len);
    crypto::CcmParams p{.tag_len = 4 + 2 * rng.next_below(7),
                        .nonce_len = 7 + rng.next_below(7)};
    Bytes nonce = rng.bytes(p.nonce_len);
    Bytes aad = rng.bytes(rng.next_below(30));
    Bytes pt = rng.bytes(16 * (1 + rng.next_below(20)));

    Engine engine = one_device({.num_cores = 2, .ccm_mapping = top::CcmMapping::kPairPreferred});
    engine.provision_key(1, key);
    Channel ch = engine.open_channel(ChannelMode::kCcm, 1, static_cast<unsigned>(p.tag_len),
                                     static_cast<unsigned>(p.nonce_len));
    ASSERT_TRUE(ch.valid()) << "seed " << seed;
    const JobResult& r = engine.submit_encrypt(ch, nonce, aad, pt).wait();
    ASSERT_TRUE(r.complete) << "seed " << seed;
    auto ref = crypto::ccm_seal(crypto::aes_expand_key(key), p, nonce, aad, pt);
    EXPECT_EQ(r.payload, ref.ciphertext) << "seed " << seed;
    EXPECT_EQ(r.tag, ref.tag) << "seed " << seed << " nonce " << p.nonce_len << " tag "
                              << p.tag_len;
    // And the split decrypt path verifies it.
    const JobResult& d = engine.submit_decrypt(ch, nonce, aad, ref.ciphertext, ref.tag).wait();
    EXPECT_TRUE(d.auth_ok) << "seed " << seed;
    EXPECT_EQ(d.payload, pt) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mccp::host
