// SimDevice's clock seam: advance_to() fast-forwards the quiet spans
// between control traffic, and must land every job on exactly the stamps
// that plain step() calls give it.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "host/sim_device.h"

namespace mccp::host {
namespace {

// Two bare devices receive the same seeded GCM and CCM jobs (encrypts, and
// decrypts whose tags fail). One advances with advance_to() to random
// targets that fall in the middle of jobs; the other calls step() until its
// clock reaches the same target. After every call both clocks agree (a
// control instruction issued just before a target may carry both past
// it), and every job's stamps, busy rejections, payload and tag match.
TEST(SimDevice, AdvanceToMatchesPerCycleStepping) {
  std::size_t overshoots = 0, rejections = 0, auth_failures = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    SimDevice fast{top::MccpConfig{.num_cores = 2}, "advance_to"};
    SimDevice slow{top::MccpConfig{.num_cores = 2}, "step"};
    const Bytes key = rng.bytes(16);
    std::vector<ChannelInfo> channels;
    for (SimDevice* dev : {&fast, &slow}) {
      dev->provision_key(1, key);
      auto gcm = dev->open_channel(ChannelMode::kGcm, 1, 16, 12);
      auto ccm = dev->open_channel(ChannelMode::kCcm, 1, 8, 13);
      ASSERT_TRUE(gcm && ccm);
      if (dev == &fast) channels = {*gcm, *ccm};
    }
    ASSERT_EQ(fast.now(), slow.now());

    std::vector<DeviceJobId> ids;
    auto advance_both = [&](sim::Cycle target) {
      fast.advance_to(target);
      while (slow.now() < target) slow.step();
      ASSERT_EQ(fast.now(), slow.now()) << "seed " << seed << " target " << target;
      ASSERT_GE(fast.now(), target);
      overshoots += fast.now() > target;
    };
    for (int j = 0; j < 12; ++j) {
      JobSpec spec;
      spec.channel = channels[rng.next_below(2)];
      spec.decrypt = rng.next_below(4) == 0;
      spec.iv_or_nonce = rng.bytes(spec.channel.mode == ChannelMode::kGcm ? 12 : 13);
      spec.aad = rng.bytes(rng.next_below(40));
      spec.payload = rng.bytes(16 * (1 + rng.next_below(16)));
      if (spec.decrypt) spec.tag = rng.bytes(spec.channel.tag_len);  // fails auth
      const DeviceJobId id = fast.submit(spec);
      ASSERT_EQ(slow.submit(spec), id);
      ids.push_back(id);
      for (int k = 0, n = 1 + static_cast<int>(rng.next_below(3)); k < n; ++k)
        advance_both(fast.now() + 1 + rng.next_below(700));
    }
    while (!fast.idle() || !slow.idle()) advance_both(fast.now() + 1 + rng.next_below(700));

    for (DeviceJobId id : ids) {
      const JobResult* a = fast.result(id);
      const JobResult* b = slow.result(id);
      ASSERT_TRUE(a && b && a->complete && b->complete) << "seed " << seed << " job " << id;
      EXPECT_EQ(a->submit_cycle, b->submit_cycle) << "seed " << seed << " job " << id;
      EXPECT_EQ(a->accept_cycle, b->accept_cycle) << "seed " << seed << " job " << id;
      EXPECT_EQ(a->complete_cycle, b->complete_cycle) << "seed " << seed << " job " << id;
      EXPECT_EQ(a->rejections, b->rejections) << "seed " << seed << " job " << id;
      EXPECT_EQ(a->auth_ok, b->auth_ok) << "seed " << seed << " job " << id;
      EXPECT_EQ(a->payload, b->payload) << "seed " << seed << " job " << id;
      EXPECT_EQ(a->tag, b->tag) << "seed " << seed << " job " << id;
      rejections += a->rejections;
      auth_failures += !a->auth_ok;
    }
  }
  // The runs covered what the comparison is for: busy retries, failed
  // tags, and targets a synchronous control instruction carried the clock
  // past.
  EXPECT_GT(rejections, 0u);
  EXPECT_GT(auth_failures, 0u);
  EXPECT_GT(overshoots, 0u);
}

}  // namespace
}  // namespace mccp::host
