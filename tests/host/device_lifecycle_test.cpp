// The Device job-lifecycle contract, checked on every backend: SimDevice,
// FastDevice, and each wrapped in a FaultyDevice whose kill cycle is never
// reached. Ids are dense, submit-seam refusals (a CCM payload too long
// for its nonce among them) complete failed at the submit cycle, one core
// serves the lowest priority value first and FIFO within a priority,
// completions() counts exactly the results that turned
// complete, forget() drops only completed results, and submit_batch() is
// submit() in order. The JobBook slot ring behind both backends is checked
// through the same seam: it grows under a deep backlog, priority buckets
// drain and refill, refusals and out-of-order forgets leave their
// neighbours intact, and a reused slot never shows an earlier job. One
// scripted run checks every DeviceStats field the seam reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/gcm.h"
#include "host/fast_device.h"
#include "host/faulty_device.h"
#include "host/sim_device.h"
#include "support/device_slots.h"

namespace mccp::host {

// Lets EXPECT_EQ print a DeviceStats mismatch field by field.
void PrintTo(const DeviceStats& s, std::ostream* os) {
  *os << "{inflight " << s.inflight << ", open_channels " << s.open_channels
      << ", reconfigurations " << s.reconfigurations << ", reconfig_stall_cycles "
      << s.reconfig_stall_cycles << ", reconfigurations_to " << s.reconfigurations_to[0] << "/"
      << s.reconfigurations_to[1] << ", slots_with_image " << s.slots_with_image[0] << "/"
      << s.slots_with_image[1] << ", failed " << s.failed << "}";
}

namespace {

enum class Kind { kSim, kFast, kFaultySim, kFaultyFast };

std::unique_ptr<Device> make_device(Kind kind, const top::MccpConfig& cfg) {
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
    auto dev = make_device(GetParam(), {.num_cores = num_cores});
    dev->provision_key(1, key_);
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

  /// A GCM seal's complete result must be exactly the software reference
  /// under key_: ciphertext and a 16-byte tag, no busy rejections unless
  /// the caller allows them.
  void expect_sealed(const Device& dev, DeviceJobId id, const JobSpec& spec) {
    const JobResult* r = dev.result(id);
    ASSERT_NE(r, nullptr) << id;
    ASSERT_TRUE(r->complete) << id;
    EXPECT_TRUE(r->auth_ok) << id;
    const crypto::GcmSealed ref = crypto::gcm_seal(crypto::aes_expand_key(key_), spec.iv_or_nonce,
                                                   spec.aad, spec.payload, 16);
    EXPECT_EQ(r->payload, ref.ciphertext) << id;
    EXPECT_EQ(r->tag, ref.tag) << id;
  }

  Bytes key_ = Bytes(16, 7);
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
  EXPECT_EQ(dev->stats().inflight, 2u) << "refusals never enter the in-flight count";
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

TEST_P(DeviceLifecycle, CcmPayloadTooLongForItsNonceLengthIsRefusedAtSubmit) {
  // With a 13-byte nonce, B0's length field has two bytes, so 65 536 B
  // cannot be formatted: a seal and an open of it are refused at submit.
  auto dev = device();
  const sim::Cycle at = dev->now();
  JobSpec seal;
  seal.channel = ccm_;
  seal.iv_or_nonce = rng_.bytes(13);
  seal.payload = Bytes(65536, 1);
  JobSpec open = ccm_verify(65536);
  for (const JobSpec& spec : {seal, open}) {
    const DeviceJobId id = dev->submit(spec);
    const JobResult* r = dev->result(id);
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->complete);
    EXPECT_FALSE(r->auth_ok);
    EXPECT_EQ(r->complete_cycle, at);
    EXPECT_TRUE(r->payload.empty());
  }
  EXPECT_TRUE(dev->idle());
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
  EXPECT_EQ(batched->stats().inflight, single->stats().inflight);

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

TEST_P(DeviceLifecycle, SlotRingGrowsUnderABacklogAndInflightStaysExact) {
  // 100 jobs queued on one core: several times the ring's first capacity,
  // with results read and forgotten while it grows behind them.
  auto dev = device(/*num_cores=*/1);
  std::vector<JobSpec> specs;
  std::vector<DeviceJobId> ids;
  for (int i = 0; i < 100; ++i) {
    specs.push_back(gcm(32 + 16 * (i % 4)));
    ids.push_back(dev->submit(specs.back()));
    ASSERT_EQ(dev->stats().inflight, static_cast<std::size_t>(i + 1))
        << "nothing has completed yet";
    ASSERT_FALSE(dev->idle());
  }
  std::size_t forgotten = 0;
  std::vector<sim::Cycle> completed_at;
  while (!dev->idle()) {
    dev->step();
    ASSERT_EQ(dev->stats().inflight, ids.size() - dev->completions());
    // Forget every other completed job as soon as it lands, and keep
    // submitting while the backlog drains, so the ring wraps and grows
    // with taken slots between live ones.
    for (std::size_t k = forgotten; k < ids.size() && dev->result(ids[k]) &&
                                    dev->result(ids[k])->complete;
         ++k, ++forgotten) {
      expect_sealed(*dev, ids[k], specs[k]);
      completed_at.push_back(dev->result(ids[k])->complete_cycle);
      if (k % 2 == 0) dev->forget(ids[k]);
      if (ids.size() < 160) {
        specs.push_back(gcm(48));
        ids.push_back(dev->submit(specs.back()));
      }
    }
  }
  EXPECT_EQ(dev->completions(), ids.size());
  EXPECT_EQ(dev->stats().inflight, 0u);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (k % 2 == 0 && k < forgotten) {
      EXPECT_EQ(dev->result(ids[k]), nullptr) << k;
    } else {
      expect_sealed(*dev, ids[k], specs[k]);
    }
  }
  ASSERT_EQ(completed_at.size(), ids.size());
  for (std::size_t k = 1; k < completed_at.size(); ++k)
    EXPECT_LT(completed_at[k - 1], completed_at[k]) << "one core serves FIFO within a priority";
}

TEST_P(DeviceLifecycle, PriorityBucketsDrainAndRefill) {
  auto dev = device(/*num_cores=*/1);
  // Two waves over the same priorities: every bucket drains to empty in
  // the first and must serve in order again in the second.
  for (int wave = 0; wave < 2; ++wave) {
    const std::vector<unsigned> priorities = {200, 5, 128, 5, 200, 0, 128};
    std::vector<DeviceJobId> ids;
    for (unsigned p : priorities) ids.push_back(dev->submit(gcm(32, p)));
    run_until_idle(*dev);
    std::vector<std::size_t> order(ids.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return priorities[a] < priorities[b]; });
    for (std::size_t k = 1; k < order.size(); ++k)
      EXPECT_LT(dev->result(ids[order[k - 1]])->accept_cycle,
                dev->result(ids[order[k]])->accept_cycle)
          << "wave " << wave << ", service position " << k;
    for (DeviceJobId id : ids) dev->forget(id);
    EXPECT_EQ(dev->stats().inflight, 0u);
  }
}

TEST_P(DeviceLifecycle, RefusalsBetweenLiveIdsAndOutOfOrderForgets) {
  auto dev = device(/*num_cores=*/2);
  std::vector<JobSpec> specs;
  std::vector<DeviceJobId> ids;
  std::vector<bool> refused;
  for (int i = 0; i < 24; ++i) {
    const bool refuse = i % 5 == 2;
    specs.push_back(refuse ? (i % 2 ? bad_iv() : bad_tag()) : gcm(32 + 16 * (i % 3)));
    refused.push_back(refuse);
    ids.push_back(dev->submit(specs.back()));
  }
  for (std::size_t k = 1; k < ids.size(); ++k) ASSERT_EQ(ids[k], ids[k - 1] + 1);
  EXPECT_EQ(dev->stats().inflight, 24u - 5u) << "refusals never count in flight";
  // A refusal completes at once, in the middle of live ids; forgetting it
  // leaves its still-running neighbours untouched.
  dev->forget(ids[7]);
  EXPECT_EQ(dev->result(ids[7]), nullptr);
  ASSERT_NE(dev->result(ids[6]), nullptr);
  ASSERT_NE(dev->result(ids[8]), nullptr);
  EXPECT_FALSE(dev->result(ids[8])->complete);
  run_until_idle(*dev);

  // Forget in a scrambled order; every id not yet forgotten keeps its own
  // result.
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < ids.size(); ++k) order.push_back((k * 7 + 3) % ids.size());
  std::vector<bool> gone(ids.size(), false);
  gone[7] = true;
  for (std::size_t k : order) {
    dev->forget(ids[k]);
    gone[k] = true;
    for (std::size_t j = 0; j < ids.size(); ++j) {
      if (gone[j]) {
        ASSERT_EQ(dev->result(ids[j]), nullptr) << j;
      } else if (refused[j]) {
        const JobResult* r = dev->result(ids[j]);
        ASSERT_TRUE(r && r->complete && !r->auth_ok && r->payload.empty()) << j;
      } else {
        expect_sealed(*dev, ids[j], specs[j]);
      }
    }
  }
  EXPECT_EQ(dev->submit(gcm(16)), ids.back() + 1) << "ids never recycle";
}

TEST_P(DeviceLifecycle, AReusedSlotNeverShowsAnEarlierJob) {
  auto dev = device(/*num_cores=*/1);
  // First occupants: a backlog on one core, so later jobs were denied a
  // core (busy rejections) and carry seal tags or failed verifies.
  std::vector<DeviceJobId> first;
  for (int i = 0; i < 40; ++i) first.push_back(dev->submit(i % 2 ? ccm_verify(48) : gcm(96)));
  run_until_idle(*dev);
  std::uint32_t denied = 0;
  for (DeviceJobId id : first) denied += dev->result(id)->rejections;
  EXPECT_GT(denied, 0u) << "the backlog must have been denied cores";
  for (DeviceJobId id : first) dev->forget(id);

  // Rotate the key, then refill the same slots one job at a time on an
  // idle core: nothing of the first occupants may show through, neither
  // the spec, the result, the key bundle nor the busy-denial stamp.
  key_ = rng_.bytes(16);
  dev->provision_key(1, key_);
  for (int i = 0; i < 40; ++i) {
    dev->advance_to(dev->now() + 1000);
    const JobSpec spec = gcm(16 * (1 + i % 3));
    const DeviceJobId id = dev->submit(spec);
    EXPECT_EQ(dev->result(id)->payload.size(), 0u) << "an empty result until complete";
    EXPECT_TRUE(dev->result(id)->tag.empty());
    EXPECT_FALSE(dev->result(id)->complete);
    run_until_idle(*dev);
    const JobResult* r = dev->result(id);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->rejections, 0u) << "job " << i << " was never denied a core";
    expect_sealed(*dev, id, spec);
    dev->forget(id);
  }
}

TEST_P(DeviceLifecycle, StatsFollowAScriptedRunIdenticallyOnEveryBackend) {
  // Provision, open three channels, force one auto_reconfig swap to
  // Whirlpool, close a channel, then kill. Every field is checked against
  // one expected value per step, so SimDevice and FastDevice must agree
  // (each of these counters is exact in the cost model), and a wrapping
  // FaultyDevice must report its inner device's counters, with `failed`
  // flipping exactly at the kill cycle.
  constexpr std::uint32_t kDivisor = 1024;  // compressed swap timescale
  constexpr std::size_t kAes = reconfig::image_index(reconfig::CoreImage::kAesEncryptWithKs);
  constexpr std::size_t kWhirlpool = reconfig::image_index(reconfig::CoreImage::kWhirlpool);
  auto dev = make_device(GetParam(), {.num_cores = 4, .reconfig_time_divisor = kDivisor});
  auto* faulty = dynamic_cast<FaultyDevice*>(dev.get());
  auto expect_stats = [&](const DeviceStats& want, const char* step) {
    const DeviceStats got = dev->stats();
    EXPECT_EQ(got, want) << step;
    if (faulty == nullptr) return;
    DeviceStats inner = faulty->inner()->stats();
    EXPECT_FALSE(inner.failed) << step << ": backends never fail by themselves";
    inner.failed = got.failed;
    EXPECT_EQ(got, inner) << step << ": the wrapper forwards its inner device's counters";
  };

  DeviceStats want;
  want.slots_with_image[kAes] = 4;
  expect_stats(want, "boot");
  dev->provision_key(1, key_);
  expect_stats(want, "provisioned");

  const auto gcm_ch = dev->open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(gcm_ch.has_value());
  gcm_ = *gcm_ch;
  ASSERT_TRUE(dev->open_channel(ChannelMode::kCcm, 1, 8, 13).has_value());
  const auto wp = dev->open_channel(ChannelMode::kWhirlpool, 1);
  ASSERT_TRUE(wp.has_value());
  want.open_channels = 3;
  expect_stats(want, "three channels open");

  // No slot hosts Whirlpool: the hash waits for an automatic swap of the
  // highest-index slot. A slot mid-swap counts for neither image.
  JobSpec hash;
  hash.channel = *wp;
  hash.payload = rng_.bytes(100);
  const DeviceJobId id = dev->submit(std::move(hash));
  want.inflight = 1;
  expect_stats(want, "hash queued");
  bool saw_swap = false;
  while (!dev->idle()) {
    dev->step();
    const DeviceStats s = dev->stats();
    std::size_t swapping = 0;
    for (std::size_t slot = 0; slot < testing::num_cores(*dev); ++slot)
      swapping += testing::slot_reconfiguring(*dev, slot);
    saw_swap = saw_swap || swapping > 0;
    ASSERT_EQ(s.slots_with_image[kAes] + s.slots_with_image[kWhirlpool] + swapping, 4u);
    ASSERT_LE(s.reconfigurations, 1u);
  }
  // FastDevice's event-driven step jumps from the swap's start straight to
  // the hash's completion; the simulated chip steps through the swap.
  if (dynamic_cast<const SimDevice*>(&testing::unwrap(*dev)) != nullptr) {
    EXPECT_TRUE(saw_swap) << "no step landed inside the swap";
  }
  ASSERT_TRUE(dev->result(id)->complete && dev->result(id)->auth_ok);
  want.inflight = 0;
  want.reconfigurations = 1;
  want.reconfig_stall_cycles = reconfig::scaled_reconfiguration_cycles(
      reconfig::CoreImage::kWhirlpool, reconfig::BitstreamStore::kRam, kDivisor);
  want.reconfigurations_to[kWhirlpool] = 1;
  want.slots_with_image = {3, 1};
  expect_stats(want, "swapped");
  EXPECT_EQ(testing::slot_image(*dev, 3), reconfig::CoreImage::kWhirlpool);

  ASSERT_TRUE(dev->close_channel(gcm_.id));
  want.open_channels = 2;
  expect_stats(want, "one channel closed");

  // Kill: only a FaultyDevice can die; the bare backends stay healthy.
  const sim::Cycle kill = dev->now() + 1000;
  if (faulty != nullptr) faulty->schedule_kill(kill);
  dev->advance_to(kill - 1);
  expect_stats(want, "one cycle before the kill");
  dev->advance_to(kill);
  want.failed = faulty != nullptr;
  expect_stats(want, "at the kill cycle");
  EXPECT_EQ(dev->now(), kill);
  dev->advance_to(kill + 1000);
  expect_stats(want, "after the kill");
  EXPECT_EQ(dev->now(), faulty != nullptr ? kill : kill + 1000);
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
