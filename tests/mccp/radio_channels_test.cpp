// One MCCP serving a radio's channels: channel lifecycle and table
// exhaustion, decrypt-heavy traffic, non-standard GCM IVs, job timestamps,
// per-core statistics and the scheduler trace. Traffic runs through
// host::Engine; a closed channel id can only be named below the RAII
// handle, so that case drives host::SimDevice directly.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/ccm.h"
#include "crypto/gcm.h"
#include "host/engine.h"
#include "support/one_device.h"

namespace mccp::host {
namespace {

using mccp::testing::one_device;

TEST(Radio, ChannelLifecycleOpenCloseReopen) {
  SimDevice dev({.num_cores = 2});
  Rng rng(1);
  dev.provision_key(1, rng.bytes(16));
  auto ch = dev.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch.has_value());
  EXPECT_TRUE(dev.close_channel(ch->id));
  // Traffic on a closed channel fails cleanly (job completes unauthenticated).
  JobSpec spec;
  spec.channel = *ch;
  spec.iv_or_nonce = rng.bytes(12);
  spec.payload = rng.bytes(32);
  DeviceJobId job = dev.submit(std::move(spec));
  for (int i = 0; i < 100'000 && !dev.idle(); ++i) dev.step();
  ASSERT_NE(dev.result(job), nullptr);
  EXPECT_TRUE(dev.result(job)->complete);
  EXPECT_FALSE(dev.result(job)->auth_ok);
  // Re-open gets the freed channel id back.
  auto ch2 = dev.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch2.has_value());
  EXPECT_EQ(ch2->id, ch->id);
}

TEST(Radio, ChannelTableExhaustsAtSixtyFour) {
  Engine engine = one_device({.num_cores = 1});
  engine.provision_key(1, Bytes(16, 1));
  std::vector<Channel> handles;
  for (int i = 0; i < 64; ++i) {
    Channel ch = engine.open_channel(ChannelMode::kCtr, 1);
    ASSERT_TRUE(ch.valid()) << i;
    handles.push_back(std::move(ch));
  }
  EXPECT_FALSE(engine.open_channel(ChannelMode::kCtr, 1).valid());
  handles[10].close();
  EXPECT_TRUE(engine.open_channel(ChannelMode::kCtr, 1).valid());
}

TEST(Radio, DecryptHeavyTrafficMix) {
  // Seal a batch in software, decrypt everything through the platform.
  Engine engine = one_device({.num_cores = 4});
  Rng rng(2);
  Bytes k1 = rng.bytes(16), k2 = rng.bytes(24);
  engine.provision_key(1, k1);
  engine.provision_key(2, k2);
  Channel gcm = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel ccm = engine.open_channel(ChannelMode::kCcm, 2, 8, 13);
  ASSERT_TRUE(gcm.valid() && ccm.valid());
  auto keys1 = crypto::aes_expand_key(k1);
  auto keys2 = crypto::aes_expand_key(k2);

  struct Pkt {
    Completion job;
    Bytes pt;
  };
  std::vector<Pkt> pkts;
  for (int i = 0; i < 10; ++i) {
    Bytes pt = rng.bytes(16 * (1 + rng.next_below(30)));
    if (i % 2 == 0) {
      Bytes iv = rng.bytes(12), aad = rng.bytes(6);
      auto sealed = crypto::gcm_seal(keys1, iv, aad, pt);
      pkts.push_back({engine.submit_decrypt(gcm, iv, aad, sealed.ciphertext, sealed.tag), pt});
    } else {
      Bytes nonce = rng.bytes(13), aad = rng.bytes(4);
      auto sealed =
          crypto::ccm_seal(keys2, {.tag_len = 8, .nonce_len = 13}, nonce, aad, pt);
      pkts.push_back({engine.submit_decrypt(ccm, nonce, aad, sealed.ciphertext, sealed.tag), pt});
    }
  }
  engine.wait_all();
  for (const auto& p : pkts) {
    ASSERT_TRUE(p.job.result().complete);
    EXPECT_TRUE(p.job.result().auth_ok);
    EXPECT_EQ(to_hex(p.job.result().payload), to_hex(p.pt));
  }
}

TEST(Radio, GcmChannelWithNonStandardIvLength) {
  // OPEN carries the channel's IV length; non-96-bit IVs take the on-core
  // GHASH J0 derivation.
  Engine engine = one_device({.num_cores = 2});
  Rng rng(9);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, /*tag=*/16, /*iv len=*/8);
  ASSERT_TRUE(ch.valid());
  Bytes iv = rng.bytes(8), pt = rng.bytes(128);
  Completion job = engine.submit_encrypt(ch, iv, {}, pt);
  engine.wait_all();
  auto ref = crypto::gcm_seal(crypto::aes_expand_key(key), iv, {}, pt);
  EXPECT_EQ(to_hex(job.result().payload), to_hex(ref.ciphertext));
  EXPECT_EQ(to_hex(job.result().tag), to_hex(ref.tag));
}

TEST(Radio, JobTimestampsAreOrdered) {
  Engine engine = one_device({.num_cores = 1});
  Rng rng(3);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch.valid());
  Completion job = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(256));
  engine.wait_all();
  const JobResult& r = job.result();
  EXPECT_LE(r.submit_cycle, r.accept_cycle);
  EXPECT_LT(r.accept_cycle, r.complete_cycle);
}

TEST(Radio, PerCoreStatisticsAccumulate) {
  Engine engine = one_device({.num_cores = 2});
  Rng rng(4);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch.valid());
  for (int i = 0; i < 4; ++i) engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(512));
  engine.wait_all();
  const top::Mccp& mccp = engine.sim_device(0)->mccp();
  std::uint64_t total_tasks = 0, total_aes = 0;
  for (std::size_t i = 0; i < mccp.num_cores(); ++i) {
    total_tasks += mccp.core(i).tasks_completed();
    total_aes += mccp.core(i).unit().aes_blocks();
  }
  EXPECT_EQ(total_tasks, 4u);
  // 512 B = 32 blocks -> >= 33 AES per packet (keystream + H + wasted + tag).
  EXPECT_GE(total_aes, 4u * 34u);
  EXPECT_EQ(mccp.requests_completed(), 4u);
}

TEST(Radio, TraceRecordsSchedulerDecisions) {
  Engine engine = one_device({.num_cores = 1});
  top::Mccp& mccp = engine.sim_device(0)->mccp();
  mccp.trace().enable(true);
  Rng rng(5);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch.valid());
  engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(64));
  engine.wait_all();
  std::string log = mccp.trace().to_string();
  EXPECT_NE(log.find("OPEN channel"), std::string::npos);
  EXPECT_NE(log.find("ENCRYPT req"), std::string::npos);
  EXPECT_NE(log.find("TRANSFER_DONE"), std::string::npos);
}

}  // namespace
}  // namespace mccp::host
