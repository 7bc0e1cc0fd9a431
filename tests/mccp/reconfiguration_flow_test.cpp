// Platform-integrated partial reconfiguration (paper SVII.B): swapping a
// core's Cryptographic Unit image, personality-aware task mapping, and the
// "other parts keep working" property.
#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/gcm.h"
#include "crypto/whirlpool.h"
#include "host/engine.h"
#include "support/one_device.h"

namespace mccp::host {
namespace {

using reconfig::BitstreamStore;
using reconfig::CoreImage;
using mccp::testing::one_device;

TEST(ReconfigFlow, WhirlpoolChannelNeedsAReconfiguredCore) {
  // All cores host the AES image. With auto_reconfig off, a hash request
  // fails fast (no silent compute, no eternal retry); with it on (the
  // default), the scheduler begins a bitstream transfer instead — at the
  // faithful Table IV timescale the request is still pending millions of
  // cycles later.
  {
    Engine engine = one_device({.num_cores = 4, .auto_reconfig = false});
    Channel ch = engine.open_channel(ChannelMode::kWhirlpool, /*key (ignored)=*/0);
    ASSERT_TRUE(ch.valid());
    Completion job = engine.submit_encrypt(ch, {}, {}, Bytes(100, 0xAB));
    engine.wait_all();
    EXPECT_TRUE(job.result().complete);
    EXPECT_FALSE(job.result().auth_ok);
    EXPECT_EQ(engine.sim_device(0)->mccp().reconfigurations_done(), 0u);
  }
  {
    Engine engine = one_device({.num_cores = 4});
    Channel ch = engine.open_channel(ChannelMode::kWhirlpool, 0);
    ASSERT_TRUE(ch.valid());
    Completion job = engine.submit_encrypt(ch, {}, {}, Bytes(100, 0xAB));
    EXPECT_THROW(engine.wait_all(500'000), std::runtime_error);
    EXPECT_FALSE(job.done());
    top::Mccp& mccp = engine.sim_device(0)->mccp();
    EXPECT_EQ(mccp.reconfigurations_done(), 1u);  // swap scheduled, in flight
    EXPECT_TRUE(mccp.core_reconfiguring(3));
  }
}

TEST(ReconfigFlow, HashAfterReconfigurationMatchesReference) {
  Engine engine = one_device({.num_cores = 4});
  top::Mccp& mccp = engine.sim_device(0)->mccp();
  Rng rng(1);

  // Swap core 3 to the Whirlpool image from the RAM bitstream cache.
  auto cycles = mccp.begin_core_reconfiguration(3, CoreImage::kWhirlpool, BitstreamStore::kRam);
  ASSERT_TRUE(cycles.has_value());
  EXPECT_TRUE(mccp.core_reconfiguring(3));
  engine.run(*cycles + 2);
  EXPECT_FALSE(mccp.core_reconfiguring(3));
  EXPECT_EQ(mccp.core_image(3), CoreImage::kWhirlpool);

  Channel ch = engine.open_channel(ChannelMode::kWhirlpool, 0);
  ASSERT_TRUE(ch.valid());
  for (std::size_t n : {0u, 1u, 31u, 32u, 33u, 64u, 200u, 1000u}) {
    Bytes msg = rng.bytes(n);
    const JobResult& r = engine.submit_encrypt(ch, {}, {}, msg).wait();
    ASSERT_TRUE(r.complete);
    auto ref = crypto::whirlpool(msg);
    EXPECT_EQ(to_hex(r.payload), to_hex(ByteSpan(ref.data(), ref.size()))) << "len " << n;
  }
}

TEST(ReconfigFlow, OtherCoresKeepEncryptingDuringSwap) {
  // "the reconfiguration of one part of the FPGA does not prevent others
  // parts to work" (SVII.B).
  Engine engine = one_device({.num_cores = 4});
  top::Mccp& mccp = engine.sim_device(0)->mccp();
  Rng rng(2);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  Channel gcm = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(gcm.valid());

  auto cycles = mccp.begin_core_reconfiguration(0, CoreImage::kWhirlpool, BitstreamStore::kRam);
  ASSERT_TRUE(cycles.has_value());

  // During the multi-millisecond swap, packets flow through cores 1..3.
  std::vector<Completion> jobs;
  for (int i = 0; i < 6; ++i)
    jobs.push_back(engine.submit_encrypt(gcm, rng.bytes(12), {}, rng.bytes(512)));
  engine.wait_all();
  for (const Completion& job : jobs) {
    ASSERT_TRUE(job.result().complete);
    EXPECT_TRUE(job.result().auth_ok);
  }
  EXPECT_TRUE(mccp.core_reconfiguring(0));  // swap still in flight
}

TEST(ReconfigFlow, ReconfiguringCoreIsNotSchedulable) {
  Engine engine = one_device({.num_cores = 1});
  top::Mccp& mccp = engine.sim_device(0)->mccp();
  Rng rng(3);
  engine.provision_key(1, rng.bytes(16));
  Channel gcm = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(gcm.valid());
  ASSERT_TRUE(
      mccp.begin_core_reconfiguration(0, CoreImage::kWhirlpool, BitstreamStore::kRam).has_value());
  // The only core is reserved by the bitstream transfer (and its AES image
  // is going away): the request waits, and the scheduler cannot start a
  // counter-swap while the slot is mid-transfer.
  Completion job = engine.submit_encrypt(gcm, rng.bytes(12), {}, rng.bytes(64));
  engine.run(50'000);
  EXPECT_FALSE(job.done());
  EXPECT_EQ(mccp.reconfigurations_done(), 1u);
  EXPECT_TRUE(mccp.core_reconfiguring(0));
}

TEST(ReconfigFlow, BusyCoreCannotBeReconfigured) {
  Engine engine = one_device({.num_cores = 1});
  top::Mccp& mccp = engine.sim_device(0)->mccp();
  Rng rng(4);
  engine.provision_key(1, rng.bytes(16));
  Channel gcm = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(gcm.valid());
  Completion job = engine.submit_encrypt(gcm, rng.bytes(12), {}, rng.bytes(2048));
  engine.run(2000);  // core now busy with the packet
  EXPECT_FALSE(
      mccp.begin_core_reconfiguration(0, CoreImage::kWhirlpool, BitstreamStore::kRam).has_value());
  engine.wait_all();
  EXPECT_TRUE(job.result().complete);
}

TEST(ReconfigFlow, RoundTripAesWhirlpoolAes) {
  Engine engine = one_device({.num_cores = 2});
  top::Mccp& mccp = engine.sim_device(0)->mccp();
  Rng rng(5);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);

  auto swap = [&](std::size_t idx, CoreImage img) {
    auto c = mccp.begin_core_reconfiguration(idx, img, BitstreamStore::kRam);
    ASSERT_TRUE(c.has_value());
    engine.run(*c + 2);
  };
  swap(1, CoreImage::kWhirlpool);
  Channel wp_ch = engine.open_channel(ChannelMode::kWhirlpool, 0);
  ASSERT_TRUE(wp_ch.valid());
  Bytes msg = rng.bytes(123);
  Completion h = engine.submit_encrypt(wp_ch, {}, {}, msg);
  engine.wait_all();
  auto ref = crypto::whirlpool(msg);
  EXPECT_EQ(to_hex(h.result().payload), to_hex(ByteSpan(ref.data(), ref.size())));

  swap(1, CoreImage::kAesEncryptWithKs);
  Channel gcm = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(gcm.valid());
  Bytes iv = rng.bytes(12), pt = rng.bytes(128);
  Completion e1 = engine.submit_encrypt(gcm, iv, {}, pt);
  Completion e2 = engine.submit_encrypt(gcm, iv, {}, pt);  // forces use of core 1 too
  engine.wait_all();
  auto keys = crypto::aes_expand_key(key);
  auto gref = crypto::gcm_seal(keys, iv, {}, pt);
  EXPECT_EQ(to_hex(e1.result().tag), to_hex(gref.tag));
  EXPECT_EQ(to_hex(e2.result().tag), to_hex(gref.tag));
}

}  // namespace
}  // namespace mccp::host
