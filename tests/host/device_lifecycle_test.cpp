// The Device job-lifecycle contract, checked on every backend: SimDevice,
// FastDevice, and each wrapped in a FaultyDevice whose kill cycle is never
// reached. Ids are dense, submit-seam refusals complete failed at the
// submit cycle, one core serves the lowest priority value first and FIFO
// within a priority, completions() counts exactly the results that turned
// complete, forget() drops only completed results, and submit_batch() is
// submit() in order.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "host/fast_device.h"
#include "host/faulty_device.h"
#include "host/sim_device.h"

namespace mccp::host {
namespace {

enum class Kind { kSim, kFast, kFaultySim, kFaultyFast };

std::unique_ptr<Device> make_device(Kind kind, std::size_t num_cores) {
  const top::MccpConfig cfg{.num_cores = num_cores};
  switch (kind) {
    case Kind::kSim: return std::make_unique<SimDevice>(cfg);
    case Kind::kFast: return std::make_unique<FastDevice>(cfg);
    case Kind::kFaultySim:
      return std::make_unique<FaultyDevice>(std::make_unique<SimDevice>(cfg),
                                            std::numeric_limits<sim::Cycle>::max());
    case Kind::kFaultyFast:
      return std::make_unique<FaultyDevice>(std::make_unique<FastDevice>(cfg),
                                            std::numeric_limits<sim::Cycle>::max());
  }
  return nullptr;
}

class DeviceLifecycle : public ::testing::TestWithParam<Kind> {
 protected:
  /// A device with key 1 provisioned and a GCM (tag 16, IV 12) and a CCM
  /// (tag 8, nonce 13) channel open.
  std::unique_ptr<Device> device(std::size_t num_cores = 1) {
    auto dev = make_device(GetParam(), num_cores);
    dev->provision_key(1, Bytes(16, 7));
    auto gcm_ch = dev->open_channel(ChannelMode::kGcm, 1, 16, 12);
    auto ccm_ch = dev->open_channel(ChannelMode::kCcm, 1, 8, 13);
    EXPECT_TRUE(gcm_ch && ccm_ch);
    gcm_ = *gcm_ch;
    ccm_ = *ccm_ch;
    return dev;
  }

  JobSpec gcm(std::size_t payload_len, unsigned priority = 128) {
    JobSpec spec;
    spec.channel = gcm_;
    spec.iv_or_nonce = rng_.bytes(12);
    spec.aad = rng_.bytes(20);
    spec.payload = rng_.bytes(payload_len);
    spec.priority = priority;
    return spec;
  }
  JobSpec ccm_verify(std::size_t payload_len) {
    JobSpec spec;
    spec.channel = ccm_;
    spec.decrypt = true;
    spec.iv_or_nonce = rng_.bytes(13);
    spec.aad = rng_.bytes(9);
    spec.payload = rng_.bytes(payload_len);
    spec.tag = rng_.bytes(8);  // fails authentication
    return spec;
  }
  /// Submits refused_at_submit() rejects on every backend.
  JobSpec bad_iv() {
    JobSpec spec = gcm(32);
    spec.iv_or_nonce.pop_back();
    return spec;
  }
  JobSpec bad_tag() {
    JobSpec spec = ccm_verify(32);
    spec.tag.push_back(0);
    return spec;
  }
  /// A mixed run: GCM seals, failing CCM verifies, refusals, priorities.
  std::vector<JobSpec> mixed_specs() {
    std::vector<JobSpec> specs;
    for (int i = 0; i < 4; ++i) {
      specs.push_back(gcm(64 + 32 * i, i % 2 == 0 ? 128 : 7));
      specs.push_back(ccm_verify(48));
      if (i == 1) specs.push_back(bad_iv());
      if (i == 2) specs.push_back(bad_tag());
    }
    return specs;
  }

  static void run_until_idle(Device& dev) {
    while (!dev.idle()) dev.step();
  }

  Rng rng_{2026};
  ChannelInfo gcm_, ccm_;
};

TEST_P(DeviceLifecycle, RefusedSubmitsCompleteFailedAtTheSubmitCycleAndIdsStayDense) {
  auto dev = device();
  dev->advance_to(dev->now() + 24);
  const sim::Cycle at = dev->now();
  const std::uint64_t before = dev->completions();
  const std::vector<DeviceJobId> ids = {dev->submit(gcm(32)), dev->submit(bad_iv()),
                                        dev->submit(gcm(32)), dev->submit(bad_tag())};
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_EQ(ids[i], ids[0] + i);
  EXPECT_EQ(dev->completions(), before + 2) << "refusals count at once";
  EXPECT_EQ(dev->inflight(), 2u) << "refusals never enter the in-flight count";
  for (DeviceJobId id : {ids[1], ids[3]}) {
    const JobResult* r = dev->result(id);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->complete);
    EXPECT_FALSE(r->auth_ok);
    EXPECT_EQ(r->submit_cycle, at);
    EXPECT_EQ(r->complete_cycle, at);
    EXPECT_TRUE(r->payload.empty());
  }
  run_until_idle(*dev);
  for (DeviceJobId id : {ids[0], ids[2]}) {
    const JobResult* r = dev->result(id);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->complete && r->auth_ok);
    EXPECT_EQ(r->submit_cycle, at);
    EXPECT_GT(r->complete_cycle, at);
  }
  EXPECT_EQ(dev->submit(gcm(16)), ids.back() + 1);
}

TEST_P(DeviceLifecycle, OneCoreServesLowestPriorityFirstAndFifoWithinAPriority) {
  auto dev = device(/*num_cores=*/1);
  const std::vector<unsigned> priorities = {200, 5, 128, 5, 200, 128, 0};
  std::vector<DeviceJobId> ids;
  for (unsigned p : priorities) ids.push_back(dev->submit(gcm(64, p)));
  run_until_idle(*dev);

  std::vector<std::size_t> expected(ids.size());
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::size_t a, std::size_t b) { return priorities[a] < priorities[b]; });
  for (std::size_t k = 1; k < expected.size(); ++k) {
    const JobResult* prev = dev->result(ids[expected[k - 1]]);
    const JobResult* next = dev->result(ids[expected[k]]);
    ASSERT_TRUE(prev && next && prev->complete && next->complete);
    EXPECT_LT(prev->accept_cycle, next->accept_cycle) << "service position " << k;
    EXPECT_LT(prev->complete_cycle, next->complete_cycle) << "service position " << k;
  }
}

TEST_P(DeviceLifecycle, CompletionsCountEveryResultThatTurnedComplete) {
  auto dev = device(/*num_cores=*/2);
  std::vector<DeviceJobId> ids;
  auto count_complete = [&] {
    std::uint64_t n = 0;
    for (DeviceJobId id : ids) n += dev->result(id)->complete;
    return n;
  };
  for (JobSpec& spec : mixed_specs()) {
    ids.push_back(dev->submit(std::move(spec)));
    EXPECT_EQ(dev->completions(), count_complete());
  }
  std::size_t steps = 0;
  while (!dev->idle()) {
    dev->step();
    ++steps;
    ASSERT_EQ(dev->completions(), count_complete()) << "after step " << steps;
  }
  EXPECT_EQ(dev->completions(), ids.size());
}

TEST_P(DeviceLifecycle, ResultIsNullForUnknownAndForgottenIds) {
  auto dev = device();
  EXPECT_EQ(dev->result(0), nullptr);
  const DeviceJobId a = dev->submit(gcm(32));
  const DeviceJobId b = dev->submit(bad_iv());
  EXPECT_EQ(dev->result(b + 1), nullptr);
  EXPECT_EQ(dev->result(b + 1000), nullptr);
  run_until_idle(*dev);
  dev->forget(b);
  EXPECT_EQ(dev->result(b), nullptr);
  ASSERT_NE(dev->result(a), nullptr) << "forgetting a later id keeps an earlier one";
  dev->forget(a);
  EXPECT_EQ(dev->result(a), nullptr);
  dev->forget(a);  // twice, and unknown ids: no-ops
  dev->forget(b + 1000);
  EXPECT_EQ(dev->result(a), nullptr);
  EXPECT_EQ(dev->submit(gcm(16)), b + 1) << "forgetting does not recycle ids";
}

TEST_P(DeviceLifecycle, ForgettingAJobThatHasNotCompletedIsANoOp) {
  auto dev = device(/*num_cores=*/1);
  dev->advance_to(dev->now() + 24);
  const sim::Cycle at = dev->now();
  const DeviceJobId first = dev->submit(gcm(64));
  const DeviceJobId second = dev->submit(gcm(64));
  dev->forget(first);
  const JobResult* r = dev->result(first);
  ASSERT_NE(r, nullptr) << "a running job's result stays readable";
  EXPECT_FALSE(r->complete);
  run_until_idle(*dev);
  for (DeviceJobId id : {first, second}) {
    r = dev->result(id);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->complete && r->auth_ok);
    EXPECT_EQ(r->submit_cycle, at);
    EXPECT_EQ(r->payload.size(), 64u);
  }
  EXPECT_LT(dev->result(first)->complete_cycle, dev->result(second)->complete_cycle);
  EXPECT_EQ(dev->completions(), 2u);
  dev->forget(first);
  EXPECT_EQ(dev->result(first), nullptr) << "forgotten once complete";
}

TEST_P(DeviceLifecycle, SubmitBatchMatchesOneSubmitAtATime) {
  auto batched = device(/*num_cores=*/2);
  const ChannelInfo gcm_ch = gcm_, ccm_ch = ccm_;
  auto single = device(/*num_cores=*/2);
  ASSERT_EQ(gcm_ch.id, gcm_.id);
  ASSERT_EQ(ccm_ch.id, ccm_.id);
  ASSERT_EQ(batched->now(), single->now());

  std::vector<JobSpec> specs = mixed_specs();
  std::vector<DeviceJobId> one_by_one;
  for (const JobSpec& spec : specs) one_by_one.push_back(single->submit(spec));
  EXPECT_EQ(batched->submit_batch(specs), one_by_one);
  EXPECT_EQ(batched->completions(), single->completions());
  EXPECT_EQ(batched->inflight(), single->inflight());

  while (!batched->idle() || !single->idle()) {
    batched->step();
    single->step();
    ASSERT_EQ(batched->now(), single->now());
    ASSERT_EQ(batched->completions(), single->completions());
  }
  for (DeviceJobId id : one_by_one) {
    const JobResult* a = batched->result(id);
    const JobResult* b = single->result(id);
    ASSERT_TRUE(a && b);
    EXPECT_TRUE(a->complete && b->complete);
    EXPECT_EQ(a->auth_ok, b->auth_ok) << id;
    EXPECT_EQ(a->payload, b->payload) << id;
    EXPECT_EQ(a->tag, b->tag) << id;
    EXPECT_EQ(a->submit_cycle, b->submit_cycle) << id;
    EXPECT_EQ(a->accept_cycle, b->accept_cycle) << id;
    EXPECT_EQ(a->complete_cycle, b->complete_cycle) << id;
    EXPECT_EQ(a->rejections, b->rejections) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, DeviceLifecycle,
                         ::testing::Values(Kind::kSim, Kind::kFast, Kind::kFaultySim,
                                           Kind::kFaultyFast),
                         [](const ::testing::TestParamInfo<Kind>& info) -> std::string {
                           switch (info.param) {
                             case Kind::kSim: return "Sim";
                             case Kind::kFast: return "Fast";
                             case Kind::kFaultySim: return "FaultySim";
                             case Kind::kFaultyFast: return "FaultyFast";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace mccp::host
