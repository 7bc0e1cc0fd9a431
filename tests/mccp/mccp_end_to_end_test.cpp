// Full-platform integration: the host driver plays the communication
// controller, driving the MCCP through the control protocol and crossbar;
// results must match the golden software references, including two-core
// split CCM through the inter-core ring, concurrent multi-channel traffic,
// and the cross-core authentication-failure wipe. All traffic runs through
// the asynchronous host::Engine API (completion tokens, RAII channels).
#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/cbc_mac.h"
#include "crypto/ccm.h"
#include "crypto/ctr.h"
#include "crypto/gcm.h"
#include "host/engine.h"
#include "support/one_device.h"
#include "workload/jobgen.h"

namespace mccp::host {
namespace {

using mccp::testing::one_device;

TEST(EndToEnd, GcmEncryptDecryptThroughPlatform) {
  Engine engine = one_device({.num_cores = 4});
  Rng rng(1);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch.valid());

  Bytes iv = rng.bytes(12), aad = rng.bytes(20), pt = rng.bytes(1024);
  const JobResult& er = engine.submit_encrypt(ch, iv, aad, pt).wait();
  ASSERT_TRUE(er.complete);
  auto keys = crypto::aes_expand_key(key);
  auto ref = crypto::gcm_seal(keys, iv, aad, pt);
  EXPECT_EQ(to_hex(er.payload), to_hex(ref.ciphertext));
  EXPECT_EQ(to_hex(er.tag), to_hex(ref.tag));

  const JobResult& dr = engine.submit_decrypt(ch, iv, aad, er.payload, er.tag).wait();
  ASSERT_TRUE(dr.complete);
  EXPECT_TRUE(dr.auth_ok);
  EXPECT_EQ(to_hex(dr.payload), to_hex(pt));
}

TEST(EndToEnd, CcmSingleCoreMatchesReference) {
  Engine engine = one_device({.num_cores = 4, .ccm_mapping = top::CcmMapping::kSingleCore});
  Rng rng(2);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  Channel ch = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
  ASSERT_TRUE(ch.valid());

  Bytes nonce = rng.bytes(13), aad = rng.bytes(9), pt = rng.bytes(512);
  const JobResult& er = engine.submit_encrypt(ch, nonce, aad, pt).wait();
  ASSERT_TRUE(er.complete);
  auto keys = crypto::aes_expand_key(key);
  auto ref = crypto::ccm_seal(keys, {.tag_len = 8, .nonce_len = 13}, nonce, aad, pt);
  EXPECT_EQ(to_hex(er.payload), to_hex(ref.ciphertext));
  EXPECT_EQ(to_hex(er.tag), to_hex(ref.tag));
}

TEST(EndToEnd, CcmTwoCoreSplitMatchesReference) {
  // SIV.D: "Using inter-core communication port, any single CCM packet can
  // be processed with two Cryptographic Cores."
  Engine engine = one_device({.num_cores = 4, .ccm_mapping = top::CcmMapping::kPairPreferred});
  Rng rng(3);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  Channel ch = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
  ASSERT_TRUE(ch.valid());

  Bytes nonce = rng.bytes(13), aad = rng.bytes(11), pt = rng.bytes(768);
  const JobResult& er = engine.submit_encrypt(ch, nonce, aad, pt).wait();
  ASSERT_TRUE(er.complete);
  auto keys = crypto::aes_expand_key(key);
  auto ref = crypto::ccm_seal(keys, {.tag_len = 8, .nonce_len = 13}, nonce, aad, pt);
  EXPECT_EQ(to_hex(er.payload), to_hex(ref.ciphertext));
  EXPECT_EQ(to_hex(er.tag), to_hex(ref.tag));
}

TEST(EndToEnd, CcmTwoCoreDecryptRoundTripsAndVerifies) {
  Engine engine = one_device({.num_cores = 4, .ccm_mapping = top::CcmMapping::kPairPreferred});
  Rng rng(4);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  Channel ch = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
  ASSERT_TRUE(ch.valid());

  Bytes nonce = rng.bytes(13), aad = rng.bytes(5), pt = rng.bytes(256);
  auto keys = crypto::aes_expand_key(key);
  auto ref = crypto::ccm_seal(keys, {.tag_len = 8, .nonce_len = 13}, nonce, aad, pt);

  const JobResult& dr = engine.submit_decrypt(ch, nonce, aad, ref.ciphertext, ref.tag).wait();
  ASSERT_TRUE(dr.complete);
  EXPECT_TRUE(dr.auth_ok);
  EXPECT_EQ(to_hex(dr.payload), to_hex(pt));
}

TEST(EndToEnd, CcmTwoCoreAuthFailureWipesPartnerCoreOutput) {
  // The MAC half detects the forgery; the CTR half has already produced
  // plaintext into its output FIFO. The Task Scheduler must wipe it before
  // anything can be read (cross-core extension of the SIV.C rule).
  Engine engine = one_device({.num_cores = 4, .ccm_mapping = top::CcmMapping::kPairPreferred});
  Rng rng(5);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  Channel ch = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
  ASSERT_TRUE(ch.valid());

  Bytes nonce = rng.bytes(13), pt = rng.bytes(128);
  auto keys = crypto::aes_expand_key(key);
  auto ref = crypto::ccm_seal(keys, {.tag_len = 8, .nonce_len = 13}, nonce, {}, pt);
  Bytes bad_tag = ref.tag;
  bad_tag[0] ^= 1;

  const JobResult& dr = engine.submit_decrypt(ch, nonce, {}, ref.ciphertext, bad_tag).wait();
  ASSERT_TRUE(dr.complete);
  EXPECT_FALSE(dr.auth_ok);
  EXPECT_TRUE(dr.payload.empty());
  top::Mccp& mccp = engine.sim_device(0)->mccp();
  for (std::size_t i = 0; i < mccp.num_cores(); ++i)
    EXPECT_TRUE(mccp.core(i).out_fifo().empty()) << "core " << i;
}

TEST(EndToEnd, CtrAndCbcMacChannels) {
  Engine engine = one_device({.num_cores = 2});
  Rng rng(6);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  auto keys = crypto::aes_expand_key(key);

  Channel ctr_ch = engine.open_channel(ChannelMode::kCtr, 1);
  ASSERT_TRUE(ctr_ch.valid());
  Bytes ctr0(16, 0);
  ctr0[0] = 0x42;
  Bytes data = rng.bytes(320);
  Completion j1 = engine.submit_encrypt(ctr_ch, ctr0, {}, data);

  Channel mac_ch = engine.open_channel(ChannelMode::kCbcMac, 1, 8);
  ASSERT_TRUE(mac_ch.valid());
  Bytes msg = rng.bytes(160);
  Completion j2 = engine.submit_encrypt(mac_ch, {}, {}, msg);

  engine.wait_all();
  EXPECT_EQ(to_hex(j1.result().payload),
            to_hex(crypto::ctr_transform(keys, Block128::from_span(ctr0), data)));
  Bytes ref_mac = crypto::cbc_mac(keys, msg).to_bytes();
  ref_mac.resize(8);
  EXPECT_EQ(to_hex(j2.result().tag), to_hex(ref_mac));

  // Verify through the platform too.
  const JobResult& j3 = engine.submit_decrypt(mac_ch, {}, {}, msg, j2.result().tag).wait();
  EXPECT_TRUE(j3.auth_ok);
}

TEST(EndToEnd, FourConcurrentChannelsAllCorrect) {
  // SIV.D rules: packets from the same or different channels may be
  // processed concurrently on different cores.
  Engine engine = one_device({.num_cores = 4});
  Rng rng(7);
  Bytes k16 = rng.bytes(16), k32 = rng.bytes(32);
  engine.provision_key(1, k16);
  engine.provision_key(2, k32);
  Channel gcm_ch = engine.open_channel(ChannelMode::kGcm, 2, 16, 12);
  Channel ccm_ch = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
  ASSERT_TRUE(gcm_ch.valid() && ccm_ch.valid());

  struct Pkt {
    Completion job;
    bool gcm;
    Bytes iv, aad, pt;
  };
  std::vector<Pkt> pkts;
  for (int i = 0; i < 8; ++i) {
    Pkt p;
    p.gcm = (i % 2 == 0);
    p.iv = rng.bytes(p.gcm ? 12 : 13);
    p.aad = rng.bytes(8);
    p.pt = rng.bytes(256);
    p.job = engine.submit_encrypt(p.gcm ? gcm_ch : ccm_ch, p.iv, p.aad, p.pt);
    pkts.push_back(std::move(p));
  }
  engine.wait_all();

  auto keys16 = crypto::aes_expand_key(k16);
  auto keys32 = crypto::aes_expand_key(k32);
  for (const Pkt& p : pkts) {
    const JobResult& r = p.job.result();
    ASSERT_TRUE(r.complete);
    if (p.gcm) {
      auto ref = crypto::gcm_seal(keys32, p.iv, p.aad, p.pt);
      EXPECT_EQ(to_hex(r.payload), to_hex(ref.ciphertext));
      EXPECT_EQ(to_hex(r.tag), to_hex(ref.tag));
    } else {
      auto ref = crypto::ccm_seal(keys16, {.tag_len = 8, .nonce_len = 13}, p.iv, p.aad, p.pt);
      EXPECT_EQ(to_hex(r.payload), to_hex(ref.ciphertext));
      EXPECT_EQ(to_hex(r.tag), to_hex(ref.tag));
    }
  }
}

TEST(EndToEnd, BusyRejectionsAreRetriedTransparently) {
  // More packets than cores: the pump retries rejected submissions, and
  // every packet eventually completes (paper SIII.C behaviour).
  Engine engine = one_device({.num_cores = 2});
  Rng rng(8);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch.valid());

  std::vector<Completion> jobs;
  for (int i = 0; i < 10; ++i)
    jobs.push_back(engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(512)));
  engine.wait_all();
  std::uint32_t total_rejections = 0;
  for (const Completion& job : jobs) {
    EXPECT_TRUE(job.result().complete);
    total_rejections += job.result().rejections;
  }
  EXPECT_GT(total_rejections, 0u);  // contention actually happened
  EXPECT_EQ(engine.sim_device(0)->mccp().idle_core_count(), 2u);  // everything released
  EXPECT_EQ(ch.stats().rejections, total_rejections);  // driver-side stats agree
}

TEST(EndToEnd, TrafficMixRunsToCompletion) {
  // Three SDR standards at once (WiFi CCMP, satcom GCM, CTR voice), packets
  // drawn round-robin from one workload stream per class.
  Engine engine = one_device({.num_cores = 4, .ccm_mapping = top::CcmMapping::kSingleCore});
  Rng rng(9);
  using workload::SizeDist;
  std::vector<workload::ClassSpec> classes = {
      {.profile = {.name = "wifi-ccmp", .mode = ChannelMode::kCcm, .tag_len = 8,
                   .payload = SizeDist::fixed(2048), .aad = SizeDist::fixed(22)},
       .packets = 4},
      {.profile = {.name = "satcom-gcm", .mode = ChannelMode::kGcm, .key_len = 32,
                   .nonce_len = 12, .payload = SizeDist::fixed(2048),
                   .aad = SizeDist::fixed(20)},
       .packets = 4},
      {.profile = {.name = "voice-ctr", .mode = ChannelMode::kCtr,
                   .payload = SizeDist::fixed(160)},
       .packets = 4},
  };
  std::vector<Channel> channels;
  std::vector<workload::ClassJobStream> streams;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const workload::ChannelClass& c = classes[i].profile;
    engine.provision_key(static_cast<top::KeyId>(i + 1), rng.bytes(c.key_len));
    Channel ch =
        engine.open_channel(c.mode, static_cast<top::KeyId>(i + 1), c.tag_len, c.nonce_len);
    ASSERT_TRUE(ch.valid()) << c.name;
    channels.push_back(std::move(ch));
    streams.emplace_back(classes[i], 4242, i, 0);
  }
  std::size_t submitted = 0, completed = 0;
  for (; submitted < 12; ++submitted) {
    const std::size_t i = submitted % classes.size();
    workload::GeneratedJob pkt = streams[i].take();
    engine.submit_encrypt(channels[i], pkt.job.iv_or_nonce, pkt.job.aad, pkt.job.payload)
        .on_done([&completed](const JobResult& r) { completed += r.complete ? 1 : 0; });
  }
  engine.wait_all();
  EXPECT_EQ(completed, submitted);
}

}  // namespace
}  // namespace mccp::host
