// Quality-of-service stream prioritisation (paper SVIII: "it must also be
// possible to priorize certain streams over others to allow some sort of
// quality-of-service") plus the ablation knobs used by bench/ablations.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "host/engine.h"
#include "support/one_device.h"

namespace mccp::host {
namespace {

using mccp::testing::one_device;

TEST(Qos, HighPriorityPacketOvertakesBulkQueue) {
  // One core, a queue of bulk packets, then an urgent packet: with
  // priorities the urgent one is dispatched before the remaining bulk.
  Engine engine = one_device({.num_cores = 1});
  Rng rng(1);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch.valid());

  std::vector<Completion> bulk;
  for (int i = 0; i < 5; ++i)
    bulk.push_back(engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(2048),
                                         /*priority=*/200));
  Completion urgent = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(160),
                                            /*priority=*/0);
  engine.wait_all();

  // The urgent packet must complete before at least the last three bulk
  // packets (it can't preempt the one already running).
  std::size_t bulk_after_urgent = 0;
  for (const Completion& b : bulk)
    if (b.result().complete_cycle > urgent.result().complete_cycle) ++bulk_after_urgent;
  EXPECT_GE(bulk_after_urgent, 3u);
}

TEST(Qos, EqualPrioritiesKeepArrivalOrder) {
  // Paper SIII.C default: "incoming packets are processed in their order of
  // arrival".
  Engine engine = one_device({.num_cores = 1});
  Rng rng(2);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch.valid());
  std::vector<Completion> jobs;
  for (int i = 0; i < 4; ++i)
    jobs.push_back(engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(512)));
  engine.wait_all();
  for (std::size_t i = 1; i < jobs.size(); ++i)
    EXPECT_GT(jobs[i].result().complete_cycle, jobs[i - 1].result().complete_cycle);
}

TEST(Qos, PriorityReducesUrgentLatencyUnderLoad) {
  auto urgent_latency = [](bool use_priority) {
    Engine engine = one_device({.num_cores = 2});
    Rng rng(3);
    engine.provision_key(1, rng.bytes(16));
    Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    for (int i = 0; i < 8; ++i)
      engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(2048), 200);
    Completion urgent = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(160),
                                              use_priority ? 0u : 200u);
    engine.wait_all();
    return urgent.result().complete_cycle - urgent.result().submit_cycle;
  };
  EXPECT_LT(urgent_latency(true) * 2, urgent_latency(false));
}

TEST(Ablation, DisablingKeyCacheForcesReloads) {
  auto loads = [](bool cache) {
    Engine engine = one_device({.num_cores = 2, .key_cache_enabled = cache});
    Rng rng(4);
    engine.provision_key(1, rng.bytes(16));
    Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    for (int i = 0; i < 6; ++i) engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(256));
    engine.wait_all();
    return engine.sim_device(0)->mccp().key_scheduler().loads_performed();
  };
  EXPECT_EQ(loads(false), 6u);  // every request expands the key again
  EXPECT_LE(loads(true), 2u);   // one load per core, then cache hits
}

TEST(Ablation, ControlLatencyKnobStretchesInstructionTime) {
  for (int latency : {8, 80}) {
    Engine engine = one_device({.num_cores = 1, .control_latency_cycles = latency});
    engine.provision_key(1, Bytes(16, 1));
    sim::Cycle before = engine.max_cycle();
    Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    ASSERT_TRUE(ch.valid());
    sim::Cycle spent = engine.max_cycle() - before;
    EXPECT_GE(spent, static_cast<sim::Cycle>(latency));
    EXPECT_LT(spent, static_cast<sim::Cycle>(latency) + 10);
  }
}

}  // namespace
}  // namespace mccp::host
