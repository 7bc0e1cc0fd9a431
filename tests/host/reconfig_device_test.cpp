// Reconfiguration semantics at the Device seam (paper SVII.B), on BOTH
// backends: boot slot layouts, the no-silent-compute contract (a mode whose
// core image no slot holds either fails fast or triggers a modelled swap),
// slot unavailability mid-swap while siblings keep serving, the
// CompactFlash-vs-RAM timing ratio of Table IV, personality-aware channel
// placement, and serial-vs-threaded determinism of a reconfiguring fleet.
#include <gtest/gtest.h>

#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/whirlpool.h"
#include "host/cost_model.h"
#include "host/engine.h"
#include "support/device_slots.h"

namespace mccp::host {
namespace {

using testing::slot_image;
using testing::slot_reconfiguring;
using testing::slots_with_image;

using reconfig::BitstreamStore;
using reconfig::CoreImage;

/// Compressed swap timescale so the cycle-accurate backend stays fast
/// (RAM swap ~12.8k cycles instead of ~13M); the CF:RAM ratio survives.
constexpr std::uint32_t kDivisor = 1024;

EngineConfig fleet_config(Backend backend, top::MccpConfig device, std::size_t num_devices = 1,
                          std::size_t num_workers = 0) {
  EngineConfig cfg;
  cfg.num_devices = num_devices;
  cfg.device = std::move(device);
  cfg.backend = backend;
  cfg.num_workers = num_workers;
  return cfg;
}

TEST(ReconfigDevice, NoImageFailsFastWhenAutoReconfigOff) {
  // The old FastDevice bug class: a Whirlpool submit to an all-AES device
  // must NOT be silently computed. With auto_reconfig off it fails fast on
  // both backends — complete, !auth_ok, no digest.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Engine engine(fleet_config(backend, {.num_cores = 2, .auto_reconfig = false}));
    Channel wp = engine.open_channel(ChannelMode::kWhirlpool, 0);
    ASSERT_TRUE(wp.valid());
    JobResult r = engine.submit_encrypt(wp, {}, {}, Bytes(128, 0xAB)).wait(1'000'000);
    EXPECT_TRUE(r.complete) << static_cast<int>(backend);
    EXPECT_FALSE(r.auth_ok) << static_cast<int>(backend);
    EXPECT_TRUE(r.payload.empty()) << static_cast<int>(backend);
    EXPECT_EQ(engine.reconfigurations(), 0u);
  }
}

TEST(ReconfigDevice, NoAesImageFailsFastSymmetrically) {
  // The contract is symmetric: an AES-mode packet on an all-Whirlpool
  // device is just as unservable.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Rng rng(77);
    Engine engine(fleet_config(
        backend, {.num_cores = 1,
                  .slot_images = {CoreImage::kWhirlpool},
                  .auto_reconfig = false}));
    engine.provision_key(1, rng.bytes(16));
    Channel gcm = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    ASSERT_TRUE(gcm.valid());
    JobResult r = engine.submit_encrypt(gcm, rng.bytes(12), {}, rng.bytes(64)).wait(1'000'000);
    EXPECT_TRUE(r.complete) << static_cast<int>(backend);
    EXPECT_FALSE(r.auth_ok) << static_cast<int>(backend);
  }
}

TEST(ReconfigDevice, AutoReconfigServesWhirlpoolOnBothBackends) {
  // With auto_reconfig on, the same submit triggers a modelled bitstream
  // transfer, then produces the reference digest; the swap count, stall
  // cycles and new slot personality are all observable at the seam.
  const std::uint64_t swap_cycles = reconfig::scaled_reconfiguration_cycles(
      CoreImage::kWhirlpool, BitstreamStore::kRam, kDivisor);
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Rng rng(5);
    Bytes msg = rng.bytes(300);
    Engine engine(fleet_config(backend, {.num_cores = 2, .reconfig_time_divisor = kDivisor}));
    Channel wp = engine.open_channel(ChannelMode::kWhirlpool, 0);
    ASSERT_TRUE(wp.valid());
    JobResult r = engine.submit_encrypt(wp, {}, {}, msg).wait(10 * swap_cycles);
    ASSERT_TRUE(r.complete && r.auth_ok) << static_cast<int>(backend);
    auto ref = crypto::whirlpool(msg);
    EXPECT_EQ(to_hex(r.payload), to_hex(Bytes(ref.begin(), ref.end())))
        << static_cast<int>(backend);
    const DeviceStats fleet = engine.device_stats();
    EXPECT_EQ(fleet.reconfigurations, 1u);
    EXPECT_EQ(fleet.reconfigurations_to[reconfig::image_index(CoreImage::kWhirlpool)], 1u);
    EXPECT_EQ(fleet.reconfig_stall_cycles, swap_cycles);
    // The highest-index slot swapped; slot 0 still hosts AES.
    EXPECT_EQ(slot_image(engine.device(0), 1), CoreImage::kWhirlpool);
    EXPECT_EQ(slot_image(engine.device(0), 0), CoreImage::kAesEncryptWithKs);
    // The packet paid for the swap: it cannot have completed before it.
    EXPECT_GE(r.complete_cycle, static_cast<sim::Cycle>(swap_cycles));
  }
}

TEST(ReconfigDevice, BootSlotLayoutServesWhirlpoolWithoutSwapping) {
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Rng rng(6);
    Bytes msg = rng.bytes(513);
    Engine engine(fleet_config(
        backend,
        {.num_cores = 2,
         .slot_images = {CoreImage::kAesEncryptWithKs, CoreImage::kWhirlpool}}));
    EXPECT_EQ(slots_with_image(engine.device(0), CoreImage::kWhirlpool), 1u);
    Channel wp = engine.open_channel(ChannelMode::kWhirlpool, 0);
    ASSERT_TRUE(wp.valid());
    JobResult r = engine.submit_encrypt(wp, {}, {}, msg).wait(1'000'000);
    ASSERT_TRUE(r.complete && r.auth_ok);
    auto ref = crypto::whirlpool(msg);
    EXPECT_EQ(to_hex(r.payload), to_hex(Bytes(ref.begin(), ref.end())));
    EXPECT_EQ(engine.reconfigurations(), 0u) << "boot layout must not charge a swap";
  }
}

TEST(ReconfigDevice, SlotUnavailableMidSwapWhileSiblingsServe) {
  // "the reconfiguration of one part of the FPGA does not prevent others
  // parts to work": during an explicit swap of slot 1, GCM packets keep
  // flowing through slot 0 on both backends, and the swapping slot is
  // reported unschedulable until its transfer completes.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Rng rng(7);
    Engine engine(fleet_config(backend, {.num_cores = 2, .reconfig_time_divisor = kDivisor}));
    engine.provision_key(1, rng.bytes(16));
    Channel gcm = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    ASSERT_TRUE(gcm.valid());

    Device& dev = engine.device(0);
    auto cycles = dev.begin_reconfiguration(1, CoreImage::kWhirlpool, BitstreamStore::kRam);
    ASSERT_TRUE(cycles.has_value());
    EXPECT_EQ(*cycles, reconfig::scaled_reconfiguration_cycles(CoreImage::kWhirlpool,
                                                               BitstreamStore::kRam, kDivisor));
    EXPECT_TRUE(slot_reconfiguring(dev, 1));
    EXPECT_FALSE(slot_reconfiguring(dev, 0));
    // Mid-swap the slot cannot start another transfer.
    EXPECT_FALSE(dev.begin_reconfiguration(1, CoreImage::kAesEncryptWithKs, BitstreamStore::kRam)
                     .has_value());

    std::vector<Completion> jobs;
    for (int i = 0; i < 4; ++i)
      jobs.push_back(engine.submit_encrypt(gcm, rng.bytes(12), {}, rng.bytes(256)));
    for (Completion& job : jobs) {
      const JobResult& r = job.wait(*cycles);  // must finish well inside the swap
      EXPECT_TRUE(r.complete && r.auth_ok);
    }
    EXPECT_TRUE(slot_reconfiguring(dev, 1)) << "swap still in flight after 4 packets";
    EXPECT_EQ(slot_image(dev, 1), CoreImage::kAesEncryptWithKs) << "old image until commit";

    engine.advance_to(dev.now() + *cycles + 2);
    EXPECT_FALSE(slot_reconfiguring(dev, 1));
    EXPECT_EQ(slot_image(dev, 1), CoreImage::kWhirlpool);
  }
}

TEST(ReconfigDevice, BusySlotCannotBeginReconfiguration) {
  // Observe the busy window on both clocks: a long packet occupies slot 0
  // while a short one on slot 1 completes first — at that instant (the
  // fast backend's event-driven clock only stops at completions) slot 0
  // must refuse a swap.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Rng rng(8);
    Engine engine(fleet_config(backend, {.num_cores = 2, .reconfig_time_divisor = kDivisor}));
    engine.provision_key(1, rng.bytes(16));
    Channel gcm = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    ASSERT_TRUE(gcm.valid());
    Completion long_job = engine.submit_encrypt(gcm, rng.bytes(12), {}, rng.bytes(4080));
    Completion short_job = engine.submit_encrypt(gcm, rng.bytes(12), {}, rng.bytes(16));
    EXPECT_TRUE(short_job.wait().auth_ok);  // slot 0 still runs the long packet
    EXPECT_FALSE(engine.device(0)
                     .begin_reconfiguration(0, CoreImage::kWhirlpool, BitstreamStore::kRam)
                     .has_value())
        << static_cast<int>(backend);
    EXPECT_TRUE(long_job.wait().auth_ok);
  }
}

TEST(ReconfigDevice, AdaptiveCcmCountsIdleCapacityAcrossPersonalities) {
  // The adaptive CCM mapping decides pair-vs-single from TOTAL idle
  // capacity (the simulated scheduler's idle_core_count()), not just the
  // AES-personality cores a CCM packet can run on. On {aes, aes, wp, wp}
  // with everything idle, capacity is plentiful (4/4 idle), so the packet
  // must pair-split — its timeline matches the pair-preferred mapping, on
  // both backends.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    sim::Cycle complete[2];
    int i = 0;
    for (top::CcmMapping mapping : {top::CcmMapping::kAdaptive, top::CcmMapping::kPairPreferred}) {
      Rng rng(12);
      top::MccpConfig device{.num_cores = 4, .ccm_mapping = mapping};
      device.slot_images = {CoreImage::kAesEncryptWithKs, CoreImage::kAesEncryptWithKs,
                            CoreImage::kWhirlpool, CoreImage::kWhirlpool};
      Engine engine(fleet_config(backend, std::move(device)));
      engine.provision_key(1, rng.bytes(16));
      Channel ccm = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
      ASSERT_TRUE(ccm.valid());
      const JobResult& r = engine.submit_encrypt(ccm, rng.bytes(13), {}, rng.bytes(1024)).wait();
      EXPECT_TRUE(r.auth_ok);
      complete[i++] = r.complete_cycle;
    }
    EXPECT_EQ(complete[0], complete[1]) << static_cast<int>(backend);
  }
}

TEST(ReconfigDevice, SplitCcmNeedsRingAdjacentAesPair) {
  // Split CCM streams through the inter-core shift registers, so only
  // ring-adjacent AES cores can pair. On an interleaved {aes, wp, aes, wp}
  // layout no adjacent AES pair exists: pair-preferred must fall back to
  // the single-core mapping — same timeline as kSingleCore — on both
  // backends.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    sim::Cycle complete[2];
    int i = 0;
    for (top::CcmMapping mapping : {top::CcmMapping::kPairPreferred,
                                    top::CcmMapping::kSingleCore}) {
      Rng rng(13);
      top::MccpConfig device{.num_cores = 4, .ccm_mapping = mapping};
      device.slot_images = {CoreImage::kAesEncryptWithKs, CoreImage::kWhirlpool,
                            CoreImage::kAesEncryptWithKs, CoreImage::kWhirlpool};
      Engine engine(fleet_config(backend, std::move(device)));
      engine.provision_key(1, rng.bytes(16));
      Channel ccm = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
      ASSERT_TRUE(ccm.valid());
      const JobResult& r = engine.submit_encrypt(ccm, rng.bytes(13), {}, rng.bytes(1024)).wait();
      EXPECT_TRUE(r.auth_ok);
      complete[i++] = r.complete_cycle;
    }
    EXPECT_EQ(complete[0], complete[1]) << static_cast<int>(backend);
  }
}

TEST(ReconfigDevice, RoundRobinCursorsAreIndependentPerImage) {
  // A Whirlpool channel landing on the fleet's only image-holding device
  // must not warp the AES rotation: after AES->0, WP->3, the next AES
  // channels continue 1, 2.
  EngineConfig cfg = fleet_config(Backend::kFast, {.num_cores = 2}, 4);
  cfg.placement = Placement::kRoundRobin;
  cfg.slot_layouts = {{}, {}, {}, {CoreImage::kAesEncryptWithKs, CoreImage::kWhirlpool}};
  Engine engine(cfg);
  Rng rng(14);
  engine.provision_key(1, rng.bytes(16));
  Channel a0 = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel wp = engine.open_channel(ChannelMode::kWhirlpool, 0);
  Channel a1 = engine.open_channel(ChannelMode::kCtr, 1);
  Channel a2 = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
  ASSERT_TRUE(a0.valid() && wp.valid() && a1.valid() && a2.valid());
  EXPECT_EQ(a0.device_index(), 0u);
  EXPECT_EQ(wp.device_index(), 3u);
  EXPECT_EQ(a1.device_index(), 1u);
  EXPECT_EQ(a2.device_index(), 2u);
}

TEST(ReconfigDevice, LastImageHolderTracksLiveChannelNeeds) {
  // The scale-down guard's primitive: a device is a "last image holder"
  // exactly while it hosts the fleet's only copy of a core image some
  // live channel needs. Mixed AES/Whirlpool fleet, both backends.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    EngineConfig cfg = fleet_config(backend, {.num_cores = 2}, 2);
    cfg.slot_layouts = {{CoreImage::kAesEncryptWithKs, CoreImage::kAesEncryptWithKs},
                        {CoreImage::kAesEncryptWithKs, CoreImage::kWhirlpool}};
    Engine engine(cfg);
    Rng rng(31);
    engine.provision_key(1, rng.bytes(16));

    Channel gcm = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    ASSERT_TRUE(gcm.valid());
    // AES lives on both devices, so the live GCM channel pins neither.
    EXPECT_FALSE(engine.last_image_holder(0));
    EXPECT_FALSE(engine.last_image_holder(1));

    {
      Channel wp = engine.open_channel(ChannelMode::kWhirlpool, 0);
      ASSERT_TRUE(wp.valid());
      // Device 1 now holds the only Whirlpool image a live channel needs.
      EXPECT_TRUE(engine.last_image_holder(1));
      EXPECT_FALSE(engine.last_image_holder(0));
    }
    // Closing the Whirlpool channel releases the pin.
    EXPECT_FALSE(engine.last_image_holder(1));
  }
}

TEST(ReconfigDevice, CompactFlashVsRamRatioPinsTableIv) {
  // The paper's caching conclusion rests on Table IV: the same image loads
  // ~6x slower from CompactFlash than from the RAM bitstream cache
  // (380/63 ms AES, 416/69 ms Whirlpool). Both backends must charge swap
  // durations in exactly that ratio — at full scale and compressed.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    for (CoreImage img : {CoreImage::kAesEncryptWithKs, CoreImage::kWhirlpool}) {
      Engine cf(fleet_config(backend, {.num_cores = 1, .reconfig_time_divisor = kDivisor}));
      Engine ram(fleet_config(backend, {.num_cores = 1, .reconfig_time_divisor = kDivisor}));
      auto cf_cycles = cf.device(0).begin_reconfiguration(0, img, BitstreamStore::kCompactFlash);
      auto ram_cycles = ram.device(0).begin_reconfiguration(0, img, BitstreamStore::kRam);
      ASSERT_TRUE(cf_cycles && ram_cycles);
      const double ratio = static_cast<double>(*cf_cycles) / static_cast<double>(*ram_cycles);
      // Table IV: 380/63 = 6.03, 416/69 = 6.03.
      EXPECT_NEAR(ratio, 380.0 / 63.0, 0.15) << reconfig::image_name(img);
      // And the durations are the Table IV model itself, not a re-derivation.
      EXPECT_EQ(*cf_cycles, reconfig::scaled_reconfiguration_cycles(
                                img, BitstreamStore::kCompactFlash, kDivisor));
      EXPECT_EQ(*ram_cycles,
                reconfig::scaled_reconfiguration_cycles(img, BitstreamStore::kRam, kDivisor));
    }
  }
  // Unscaled, the devices charge the exact published times.
  EXPECT_EQ(reconfig::scaled_reconfiguration_cycles(CoreImage::kAesEncryptWithKs,
                                                    BitstreamStore::kRam, 1),
            reconfig::reconfiguration_cycles(CoreImage::kAesEncryptWithKs, BitstreamStore::kRam));
}

TEST(ReconfigDevice, PlacementPrefersImageHoldingDevice) {
  // Personality-aware sharding: a Whirlpool channel lands on the device
  // that already hosts the image; AES channels land elsewhere.
  for (Placement placement : {Placement::kRoundRobin, Placement::kLeastLoaded,
                              Placement::kModeAffinity}) {
    EngineConfig cfg = fleet_config(Backend::kFast, {.num_cores = 1}, 2);
    cfg.placement = placement;
    cfg.slot_layouts = {{CoreImage::kAesEncryptWithKs}, {CoreImage::kWhirlpool}};
    Engine engine(cfg);
    Rng rng(9);
    engine.provision_key(1, rng.bytes(16));
    Channel wp = engine.open_channel(ChannelMode::kWhirlpool, 0);
    Channel gcm = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    ASSERT_TRUE(wp.valid() && gcm.valid());
    EXPECT_EQ(wp.device_index(), 1u) << static_cast<int>(placement);
    EXPECT_EQ(gcm.device_index(), 0u) << static_cast<int>(placement);
  }
}

TEST(ReconfigDevice, SerialAndThreadedReconfiguringFleetsAreIdenticalTwins) {
  // PR 4's invariant extended through reconfiguration: a fleet that swaps
  // images under load must be bit-identical between serial and worker-pool
  // stepping — results, completion cycles, swap counts and stall time —
  // on both backends.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    struct RunOut {
      std::vector<JobResult> results;
      std::uint64_t reconfigs = 0, stall = 0;
      sim::Cycle max_cycle = 0;
    };
    auto run_fleet = [&](std::size_t workers) {
      Engine engine(fleet_config(backend, {.num_cores = 1, .reconfig_time_divisor = kDivisor},
                                 /*num_devices=*/2, workers));
      Rng rng(11);
      engine.provision_key(1, rng.bytes(16));
      Channel gcm = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
      Channel wp = engine.open_channel(ChannelMode::kWhirlpool, 0);
      EXPECT_TRUE(gcm.valid() && wp.valid());
      std::vector<Completion> jobs;
      for (int round = 0; round < 3; ++round) {
        // Alternate demand so both devices churn between the two images.
        for (int i = 0; i < 2; ++i)
          jobs.push_back(engine.submit_encrypt(gcm, rng.bytes(12), {}, rng.bytes(512)));
        for (int i = 0; i < 2; ++i)
          jobs.push_back(engine.submit_encrypt(wp, {}, {}, rng.bytes(256)));
      }
      engine.wait_all(200'000'000);
      RunOut out;
      for (Completion& job : jobs) out.results.push_back(job.result());
      out.reconfigs = engine.reconfigurations();
      out.stall = engine.device_stats().reconfig_stall_cycles;
      out.max_cycle = engine.max_cycle();
      return out;
    };
    RunOut serial = run_fleet(0);
    RunOut threaded = run_fleet(2);
    EXPECT_GT(serial.reconfigs, 0u) << "the mix must actually churn";
    EXPECT_EQ(serial.reconfigs, threaded.reconfigs);
    EXPECT_EQ(serial.stall, threaded.stall);
    EXPECT_EQ(serial.max_cycle, threaded.max_cycle);
    ASSERT_EQ(serial.results.size(), threaded.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
      const JobResult& a = serial.results[i];
      const JobResult& b = threaded.results[i];
      EXPECT_EQ(to_hex(a.payload), to_hex(b.payload)) << i;
      EXPECT_EQ(to_hex(a.tag), to_hex(b.tag)) << i;
      EXPECT_EQ(a.auth_ok, b.auth_ok) << i;
      EXPECT_EQ(a.submit_cycle, b.submit_cycle) << i;
      EXPECT_EQ(a.accept_cycle, b.accept_cycle) << i;
      EXPECT_EQ(a.complete_cycle, b.complete_cycle) << i;
    }
  }
}

}  // namespace
}  // namespace mccp::host
