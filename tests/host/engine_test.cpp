// host::Engine — the asynchronous multi-device driver: channel sharding
// across devices, RAII channel-slot reclamation, exactly-once completion
// callbacks, completion-handle ergonomics and job lifetime, placement
// policies, and mixed GCM/CCM traffic across a heterogeneous fleet, all
// checked against the golden software references.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/ccm.h"
#include "crypto/ctr.h"
#include "crypto/gcm.h"
#include "crypto/whirlpool.h"
#include "host/engine.h"

namespace mccp::host {
namespace {

TEST(Engine, RoundRobinShardsChannelsAcrossDevices) {
  Engine engine({.num_devices = 3, .device = {.num_cores = 2}});
  engine.provision_key(1, Bytes(16, 7));
  std::vector<Channel> channels;
  for (int i = 0; i < 6; ++i) {
    channels.push_back(engine.open_channel(ChannelMode::kGcm, 1, 16, 12));
    ASSERT_TRUE(channels.back().valid()) << i;
  }
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(channels[static_cast<std::size_t>(i)].device_index(),
              static_cast<std::size_t>(i) % 3u);
  for (std::size_t d = 0; d < 3; ++d)
    EXPECT_EQ(engine.device(d).stats().open_channels, 2u);
}

TEST(Engine, TwoDevicesProcessShardedTrafficConcurrently) {
  // The acceptance scenario: >= 2 devices, sharded channels, callback-based
  // completion, every result checked against the software reference.
  Engine engine({.num_devices = 2, .device = {.num_cores = 2}});
  Rng rng(21);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  auto keys = crypto::aes_expand_key(key);

  Channel a = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel b = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(a.valid() && b.valid());
  ASSERT_NE(a.device_index(), b.device_index());  // genuinely sharded

  struct Pkt {
    Bytes iv, pt;
    Completion job;
  };
  std::vector<Pkt> pkts;
  std::size_t callbacks = 0;
  for (int i = 0; i < 8; ++i) {
    Pkt p{rng.bytes(12), rng.bytes(512), {}};
    p.job = engine.submit_encrypt(i % 2 ? a : b, p.iv, {}, p.pt);
    p.job.on_done([&callbacks](const JobResult& r) {
      EXPECT_TRUE(r.complete);
      ++callbacks;
    });
    pkts.push_back(std::move(p));
  }
  // Both devices have accepted work before anything finishes.
  engine.step();
  EXPECT_GT(engine.device(0).stats().inflight, 0u);
  EXPECT_GT(engine.device(1).stats().inflight, 0u);

  engine.wait_all();
  EXPECT_EQ(callbacks, pkts.size());
  for (auto& p : pkts) {
    auto ref = crypto::gcm_seal(keys, p.iv, {}, p.pt);
    EXPECT_EQ(to_hex(p.job.result().payload), to_hex(ref.ciphertext));
    EXPECT_EQ(to_hex(p.job.result().tag), to_hex(ref.tag));
  }
  // Both device clocks actually advanced (concurrent progress).
  EXPECT_GT(engine.device(0).now(), 0u);
  EXPECT_GT(engine.device(1).now(), 0u);
}

TEST(Engine, RaiiChannelAutoCloseReleasesSlots) {
  // The channel table holds 64 entries (6-bit ids). Fill it with RAII
  // handles, let them die, and the slots must all come back.
  Engine engine({.num_devices = 1, .device = {.num_cores = 1}});
  engine.provision_key(1, Bytes(16, 1));
  {
    std::vector<Channel> channels;
    for (int i = 0; i < 64; ++i) {
      channels.push_back(engine.open_channel(ChannelMode::kCtr, 1));
      ASSERT_TRUE(channels.back().valid()) << i;
    }
    EXPECT_FALSE(engine.open_channel(ChannelMode::kCtr, 1).valid());  // exhausted
    EXPECT_EQ(engine.device(0).stats().open_channels, 64u);
  }  // ~Channel x64 -> CLOSE x64
  EXPECT_EQ(engine.device(0).stats().open_channels, 0u);
  for (int i = 0; i < 64; ++i)
    EXPECT_TRUE(engine.open_channel(ChannelMode::kCtr, 1).valid()) << i;
}

TEST(Engine, ExplicitAndMoveCloseAreIdempotent) {
  Engine engine({.num_devices = 1, .device = {.num_cores = 1}});
  engine.provision_key(1, Bytes(16, 2));
  Channel ch = engine.open_channel(ChannelMode::kCtr, 1);
  ASSERT_TRUE(ch.valid());
  ch.close();
  EXPECT_FALSE(ch.valid());
  ch.close();  // second close is a no-op
  EXPECT_EQ(engine.device(0).stats().open_channels, 0u);

  Channel a = engine.open_channel(ChannelMode::kCtr, 1);
  Channel b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(engine.device(0).stats().open_channels, 1u);
  a = std::move(b);  // move-assign back; still exactly one open slot
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(engine.device(0).stats().open_channels, 1u);
}

TEST(Engine, CompletionCallbacksFireExactlyOnce) {
  Engine engine({.num_devices = 1, .device = {.num_cores = 2}});
  Rng rng(3);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch.valid());

  int before = 0, after = 0;
  Completion job = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(128));
  job.on_done([&before](const JobResult&) { ++before; });  // registered in flight
  EXPECT_EQ(before, 0);

  job.wait();
  // Keep stepping well past completion: the callback must not re-fire.
  engine.run(2000);
  EXPECT_EQ(before, 1);

  job.on_done([&after](const JobResult&) { ++after; });  // registered after done
  EXPECT_EQ(after, 1);  // fired immediately...
  engine.run(500);
  EXPECT_EQ(after, 1);  // ...and never again
}

TEST(Engine, CallbackMayWaitOnAnotherCompletion) {
  // on_done callbacks are allowed to re-enter the engine (e.g. wait() on a
  // dependent job); completion polling must stay consistent when the
  // in-flight list shifts underneath it.
  Engine engine({.num_devices = 1, .device = {.num_cores = 2}});
  Rng rng(91);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch.valid());

  Completion a = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(256));
  Completion b = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(1024));
  Completion c = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(256));
  bool chained = false;
  a.on_done([&](const JobResult&) {
    b.wait();  // advances the engine from inside the completion path
    chained = true;
  });
  engine.wait_all();
  EXPECT_TRUE(chained);
  EXPECT_TRUE(a.done() && b.done() && c.done());
  EXPECT_TRUE(c.result().complete);  // no job silently dropped from tracking
}

TEST(Engine, JobQueuedOnClosedChannelFailsWithoutPoisoningStats) {
  // Closing a channel with a job still queued fails that job cleanly
  // (complete, !auth_ok); the never-accepted job must not underflow the
  // channel's latency accounting.
  Engine engine({.num_devices = 1, .device = {.num_cores = 1}});
  Rng rng(92);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch.valid());
  const ChannelStats& s = ch.stats();  // engine-side record outlives the handle

  Completion job = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(64));
  ch.close();  // CLOSE races ahead of the queued ENCRYPT
  const JobResult& r = job.wait();
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.auth_ok);
  EXPECT_EQ(r.accept_cycle, 0u);  // never accepted by the device
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.retry_latency_cycles, 0u);    // would be ~1.8e19 on underflow
  EXPECT_EQ(s.service_latency_cycles, 0u);
  EXPECT_EQ(s.mean_retry_latency_cycles(), 0.0);
}

TEST(Engine, CompletionResultHasClearErrors) {
  Engine engine({.num_devices = 1, .device = {.num_cores = 1}});
  Rng rng(4);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);

  // A default handle names no job: every accessor says so.
  Completion none;
  EXPECT_FALSE(none.valid());
  const auto expect_invalid = [](auto&& call) {
    try {
      call();
      ADD_FAILURE() << "expected std::logic_error";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("invalid (default) completion"), std::string::npos)
          << e.what();
    }
  };
  expect_invalid([&] { (void)none.result(); });
  expect_invalid([&] { (void)none.wait(); });
  expect_invalid([&] { none.on_done([](const JobResult&) {}); });

  Completion job = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(64));
  EXPECT_FALSE(job.done());
  EXPECT_THROW(
      {
        try {
          (void)job.result();
        } catch (const std::logic_error& e) {
          EXPECT_NE(std::string(e.what()).find("still in flight"), std::string::npos);
          throw;
        }
      },
      std::logic_error);

  job.wait();
  EXPECT_TRUE(job.done());
  EXPECT_TRUE(job.result().complete);

  // wait() on a temporary: the handle is the job state's only owner once
  // delivered, so the bound result must be the handle's own copy and
  // survive further traffic through the engine.
  const Bytes iv = rng.bytes(12);
  const Bytes pt = rng.bytes(512);
  const JobResult& r = engine.submit_encrypt(ch, iv, {}, pt).wait();
  for (int i = 0; i < 8; ++i) engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(512));
  engine.wait_all();
  const auto ref = crypto::gcm_seal(crypto::aes_expand_key(key), iv, {}, pt);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(to_hex(r.payload), to_hex(ref.ciphertext));
  EXPECT_EQ(to_hex(r.tag), to_hex(ref.tag));
}

// Bytes the allocator has handed out and not had back (arena chunks plus
// mmapped blocks), or nullopt where it cannot be read meaningfully: under
// ASan/TSan, freed memory sits in the sanitizer's quarantine instead.
std::optional<std::size_t> live_heap_bytes() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || !defined(__GLIBC__)
  return std::nullopt;
#else
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
#endif
}

TEST(Engine, FinishedJobsAreNotRetained) {
  // A delivered job whose handles are gone must leave nothing behind: run
  // 50k 2 KB seals through on_done with the handles dropped at submit, and
  // the live heap stays flat after warm-up. An engine that kept every
  // finished job (payload, tag and state) grew by ~100 MB here.
  constexpr int kJobs = 50'000;
  constexpr int kWarmup = 5'000;
  constexpr int kWindow = 64;
  Engine engine({.num_devices = 1, .device = {.num_cores = 4}, .backend = Backend::kFast});
  Rng rng(16);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch.valid());
  const Bytes iv = rng.bytes(12);
  const Bytes pt = rng.bytes(2048);

  int completed = 0;
  std::optional<std::size_t> base;
  for (int i = 1; i <= kJobs; ++i) {
    engine.submit_encrypt(ch, iv, {}, pt).on_done([&completed](const JobResult& r) {
      if (r.complete && r.auth_ok && r.payload.size() == 2048) ++completed;
    });
    if (i % kWindow == 0) engine.wait_all();
    if (i == kWarmup) base = live_heap_bytes();
  }
  engine.wait_all();
  EXPECT_EQ(completed, kJobs);
  EXPECT_EQ(ch.stats().completed, static_cast<std::uint64_t>(kJobs));

  const std::optional<std::size_t> end = live_heap_bytes();
  if (!base || !end) GTEST_SKIP() << "live heap not measurable under this runtime";
  const std::size_t growth = *end > *base ? *end - *base : 0;
  EXPECT_LT(growth, std::size_t{4} << 20)
      << "live heap grew " << growth << " bytes over " << kJobs - kWarmup
      << " finished jobs";
}

TEST(Engine, LeastLoadedPlacementBalancesUnevenFleet) {
  std::vector<std::unique_ptr<Device>> fleet;
  fleet.push_back(std::make_unique<SimDevice>(top::MccpConfig{.num_cores = 1}, "d0"));
  fleet.push_back(std::make_unique<SimDevice>(top::MccpConfig{.num_cores = 1}, "d1"));
  Engine engine(std::move(fleet), Placement::kLeastLoaded);
  engine.provision_key(1, Bytes(16, 5));

  // Open channels one at a time: least-loaded must alternate devices.
  std::vector<Channel> channels;
  for (int i = 0; i < 4; ++i) channels.push_back(engine.open_channel(ChannelMode::kCtr, 1));
  EXPECT_EQ(engine.device(0).stats().open_channels, 2u);
  EXPECT_EQ(engine.device(1).stats().open_channels, 2u);
}

TEST(Engine, ModeAffinityClustersModes) {
  Engine engine(
      {.num_devices = 2, .device = {.num_cores = 2}, .placement = Placement::kModeAffinity});
  engine.provision_key(1, Bytes(16, 6));
  Channel g1 = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel c1 = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
  Channel g2 = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel c2 = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
  EXPECT_EQ(g1.device_index(), g2.device_index());
  EXPECT_EQ(c1.device_index(), c2.device_index());
  EXPECT_NE(g1.device_index(), c1.device_index());
}

TEST(Engine, PlacementFallsBackWhenPreferredDeviceIsFull) {
  Engine engine({.num_devices = 2, .device = {.num_cores = 1}});
  engine.provision_key(1, Bytes(16, 8));
  std::vector<Channel> channels;
  for (int i = 0; i < 128; ++i) {
    channels.push_back(engine.open_channel(ChannelMode::kCtr, 1));
    ASSERT_TRUE(channels.back().valid()) << i;  // spills onto the other device
  }
  EXPECT_EQ(engine.device(0).stats().open_channels, 64u);
  EXPECT_EQ(engine.device(1).stats().open_channels, 64u);
  EXPECT_FALSE(engine.open_channel(ChannelMode::kCtr, 1).valid());  // fleet-wide exhaustion
}

TEST(Engine, MixedTrafficAcrossHeterogeneousFleet) {
  // A big 4-core device plus a small 2-core device, GCM and CCM channels
  // sharded across both, every packet checked against the reference.
  std::vector<std::unique_ptr<Device>> fleet;
  fleet.push_back(std::make_unique<SimDevice>(top::MccpConfig{.num_cores = 4}, "big"));
  fleet.push_back(std::make_unique<SimDevice>(
      top::MccpConfig{.num_cores = 2, .ccm_mapping = top::CcmMapping::kPairPreferred}, "small"));
  Engine engine(std::move(fleet), Placement::kRoundRobin);

  Rng rng(31);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  auto keys = crypto::aes_expand_key(key);

  std::vector<Channel> channels;
  for (int i = 0; i < 4; ++i) {
    ChannelMode mode = i % 2 ? ChannelMode::kCcm : ChannelMode::kGcm;
    channels.push_back(engine.open_channel(mode, 1, mode == ChannelMode::kCcm ? 8 : 16,
                                           mode == ChannelMode::kCcm ? 13 : 12));
    ASSERT_TRUE(channels.back().valid()) << i;
  }
  std::set<std::size_t> used;
  for (auto& ch : channels) used.insert(ch.device_index());
  EXPECT_EQ(used.size(), 2u);

  struct Pkt {
    std::size_t ch;
    Bytes iv, aad, pt;
    Completion job;
  };
  std::vector<Pkt> pkts;
  for (int i = 0; i < 12; ++i) {
    std::size_t c = static_cast<std::size_t>(i) % channels.size();
    bool ccm = channels[c].mode() == ChannelMode::kCcm;
    Pkt p{c, rng.bytes(ccm ? 13 : 12), rng.bytes(8), rng.bytes(256), {}};
    p.job = engine.submit_encrypt(channels[c], p.iv, p.aad, p.pt);
    pkts.push_back(std::move(p));
  }
  engine.wait_all();

  for (auto& p : pkts) {
    const JobResult& r = p.job.result();
    ASSERT_TRUE(r.complete && r.auth_ok);
    if (channels[p.ch].mode() == ChannelMode::kCcm) {
      auto ref = crypto::ccm_seal(keys, {.tag_len = 8, .nonce_len = 13}, p.iv, p.aad, p.pt);
      EXPECT_EQ(to_hex(r.payload), to_hex(ref.ciphertext));
      EXPECT_EQ(to_hex(r.tag), to_hex(ref.tag));
    } else {
      auto ref = crypto::gcm_seal(keys, p.iv, p.aad, p.pt);
      EXPECT_EQ(to_hex(r.payload), to_hex(ref.ciphertext));
      EXPECT_EQ(to_hex(r.tag), to_hex(ref.tag));
    }
  }
  // Per-channel stats add up to the offered load.
  std::uint64_t completed = 0;
  for (auto& ch : channels) completed += ch.stats().completed;
  EXPECT_EQ(completed, pkts.size());
}

TEST(Engine, ChannelStatsTrackLatencyAndThroughput) {
  Engine engine({.num_devices = 1, .device = {.num_cores = 2}});
  Rng rng(41);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  for (int i = 0; i < 4; ++i) engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(1024));
  engine.wait_all();

  const ChannelStats& s = ch.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.payload_bytes, 4096u);
  EXPECT_GT(s.mean_service_latency_cycles(), 0.0);
  EXPECT_GT(s.throughput_mbps(), 0.0);
  EXPECT_GT(s.last_complete_cycle, s.first_submit_cycle);
}

TEST(Engine, SubmitOnClosedOrForeignChannelThrows) {
  Engine engine({.num_devices = 1, .device = {.num_cores = 1}});
  Engine other({.num_devices = 1, .device = {.num_cores = 1}});
  Rng rng(51);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  other.provision_key(1, key);

  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ch.close();
  EXPECT_THROW(engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(16)),
               std::invalid_argument);

  Channel elsewhere = other.open_channel(ChannelMode::kGcm, 1, 16, 12);
  EXPECT_THROW(engine.submit_encrypt(elsewhere, rng.bytes(12), {}, rng.bytes(16)),
               std::invalid_argument);
}

TEST(Engine, OpenChannelReportsMissingKey) {
  Engine engine({.num_devices = 3, .device = {.num_cores = 1}});
  Channel ch = engine.open_channel(ChannelMode::kGcm, /*key=*/9, 16, 12);
  EXPECT_FALSE(ch.valid());
  EXPECT_TRUE(top::is_error(engine.last_error()));
  EXPECT_EQ(top::return_error(engine.last_error()), top::ControlError::kNoKey);
}

TEST(Engine, WaitAllThrowsOnImpossibleDeadline) {
  Engine engine({.num_devices = 1, .device = {.num_cores = 1}});
  Rng rng(61);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(2048));
  EXPECT_THROW(engine.wait_all(/*max_cycles=*/10), std::runtime_error);
  engine.wait_all();  // generous deadline drains fine afterwards
}

TEST(Engine, SubmitBatchMatchesIndividualSubmits) {
  // The batched path must produce the same results, stats and completion
  // semantics as a loop of submit_encrypt on both backends.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Engine batched({.num_devices = 1, .device = {.num_cores = 2}, .backend = backend});
    Engine solo({.num_devices = 1, .device = {.num_cores = 2}, .backend = backend});
    Rng key_rng(71);
    Bytes key = key_rng.bytes(16);
    batched.provision_key(1, key);
    solo.provision_key(1, key);
    Channel bch = batched.open_channel(ChannelMode::kGcm, 1, 16, 12);
    Channel sch = solo.open_channel(ChannelMode::kGcm, 1, 16, 12);

    std::vector<JobSpec> specs;
    Rng rng(72);
    std::vector<Completion> solo_jobs;
    for (int i = 0; i < 6; ++i) {
      JobSpec spec;
      spec.iv_or_nonce = rng.bytes(12);
      spec.aad = rng.bytes(8);
      spec.payload = rng.bytes(64 + static_cast<std::size_t>(i) * 16);
      spec.priority = i % 2 == 0 ? 10 : 200;
      specs.push_back(spec);
      solo_jobs.push_back(
          solo.submit_encrypt(sch, spec.iv_or_nonce, spec.aad, spec.payload, spec.priority));
    }
    std::vector<Completion> batch_jobs = batched.submit_batch(bch, std::span<const JobSpec>(specs));
    ASSERT_EQ(batch_jobs.size(), specs.size());
    batched.wait_all();
    solo.wait_all();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const JobResult& a = batch_jobs[i].result();
      const JobResult& b = solo_jobs[i].result();
      EXPECT_TRUE(a.auth_ok);
      EXPECT_EQ(a.payload, b.payload) << i;
      EXPECT_EQ(a.tag, b.tag) << i;
    }
    EXPECT_EQ(bch.stats().submitted, 6u);
    EXPECT_EQ(bch.stats().completed, 6u);
    EXPECT_EQ(bch.stats().payload_bytes, sch.stats().payload_bytes);
  }
}

TEST(Engine, SubmitBatchValidatesChannelAndHandlesEmpty) {
  Engine engine({.num_devices = 1, .device = {.num_cores = 1}});
  engine.provision_key(1, Bytes(16, 3));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  EXPECT_TRUE(engine.submit_batch(ch, std::vector<JobSpec>{}).empty());
  ch.close();
  EXPECT_THROW(engine.submit_batch(ch, std::vector<JobSpec>{JobSpec{}}), std::invalid_argument);
}

TEST(Engine, GcmIvLengthMismatchFailsFastOnBothBackends) {
  // A GCM submit whose IV length differs from the channel's registered
  // nonce_len used to hang SimDevice (the core waits for IV stream words
  // that never arrive) and silently compute on FastDevice. The seam now
  // fails such jobs immediately on both backends, through both the single
  // and the batched submit path, and a correct job afterwards still works.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Engine engine({.num_devices = 1, .device = {.num_cores = 2}, .backend = backend});
    Rng rng(77);
    Bytes key = rng.bytes(16);
    engine.provision_key(1, key);
    Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, /*nonce_len=*/12);
    ASSERT_TRUE(ch.valid());

    Completion wrong = engine.submit_encrypt(ch, rng.bytes(13), {}, rng.bytes(64));
    const JobResult& r = wrong.wait(/*max_cycles=*/10'000);  // must not hang
    EXPECT_TRUE(r.complete);
    EXPECT_FALSE(r.auth_ok);
    EXPECT_TRUE(r.payload.empty());
    EXPECT_EQ(r.accept_cycle, 0u);  // rejected at the seam, never accepted

    std::vector<JobSpec> batch(2);
    batch[0].iv_or_nonce = rng.bytes(8);  // wrong again, batched path
    batch[0].payload = rng.bytes(32);
    batch[1].iv_or_nonce = rng.bytes(12);  // correct
    batch[1].payload = rng.bytes(32);
    Bytes good_iv = batch[1].iv_or_nonce, good_pt = batch[1].payload;
    std::vector<Completion> jobs = engine.submit_batch(ch, std::move(batch));
    ASSERT_EQ(jobs.size(), 2u);
    engine.wait_all();
    EXPECT_FALSE(jobs[0].result().auth_ok);
    ASSERT_TRUE(jobs[1].result().auth_ok);
    auto ref = crypto::gcm_seal(crypto::aes_expand_key(key), good_iv, {}, good_pt);
    EXPECT_EQ(to_hex(jobs[1].result().payload), to_hex(ref.ciphertext));

    // The failures land in the channel's stats as failed completions.
    EXPECT_EQ(ch.stats().completed, 3u);
    EXPECT_EQ(ch.stats().failed, 2u);
  }
}

TEST(Engine, OversizeWhirlpoolPayloadRefusedAtSubmitOnBothBackends) {
  // The hash instruction carries the padded block count in one byte. A
  // payload one byte over 255 padded blocks used to throw out of
  // SimDevice's pump (inside Completion::wait) while FastDevice returned a
  // digest. Both backends now refuse it at the seam, through the single and
  // the batched submit path, and agree on the largest servable payload.
  Rng rng(79);
  const Bytes largest = rng.bytes(kMaxWhirlpoolPayload);
  ASSERT_EQ(largest.size(), 16287u);
  Bytes oversize = largest;
  oversize.push_back(0x5A);
  const auto ref = crypto::whirlpool(largest);
  std::vector<Bytes> digests;
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Engine engine(
        {.num_devices = 1,
         .device = {.num_cores = 1, .slot_images = {reconfig::CoreImage::kWhirlpool}},
         .backend = backend});
    Channel wp = engine.open_channel(ChannelMode::kWhirlpool, 0);
    ASSERT_TRUE(wp.valid());

    Completion refused = engine.submit_encrypt(wp, {}, {}, oversize);
    JobResult r;
    ASSERT_NO_THROW(r = refused.wait(/*max_cycles=*/10'000)) << static_cast<int>(backend);
    EXPECT_TRUE(r.complete);
    EXPECT_FALSE(r.auth_ok);
    EXPECT_TRUE(r.payload.empty());
    EXPECT_EQ(r.accept_cycle, 0u);  // rejected at the seam, never accepted

    std::vector<JobSpec> batch(2);
    batch[0].payload = oversize;
    batch[1].payload = largest;
    std::vector<Completion> jobs = engine.submit_batch(wp, std::move(batch));
    ASSERT_EQ(jobs.size(), 2u);
    ASSERT_NO_THROW(engine.wait_all()) << static_cast<int>(backend);
    EXPECT_FALSE(jobs[0].result().auth_ok);
    EXPECT_TRUE(jobs[0].result().payload.empty());
    ASSERT_TRUE(jobs[1].result().auth_ok) << static_cast<int>(backend);
    EXPECT_EQ(to_hex(jobs[1].result().payload), to_hex(Bytes(ref.begin(), ref.end())));
    digests.push_back(jobs[1].result().payload);

    EXPECT_EQ(wp.stats().completed, 3u);
    EXPECT_EQ(wp.stats().failed, 2u);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(Engine, UnformattablePayloadsRefusedAtSimSubmitAndServedByFast) {
  // AES-mode payloads the stream formatter rejects (not whole 16-byte
  // blocks, over 255 blocks, an empty CBC-MAC message) used to be accepted
  // by SimDevice and throw std::invalid_argument out of its pump, inside
  // Completion::wait. SimDevice now refuses them at submit (complete,
  // !auth_ok, never accepted), through the single and the batched path;
  // FastDevice keeps serving them.
  Rng rng(83);
  const Bytes key = rng.bytes(16);
  const auto keys = crypto::aes_expand_key(key);
  struct Case {
    ChannelMode mode;
    std::size_t iv_len;
    std::size_t payload_len;
  };
  const Case cases[] = {
      {ChannelMode::kCtr, 16, 17},           // not whole blocks
      {ChannelMode::kCtr, 16, 256 * 16},     // 256 blocks
      {ChannelMode::kGcm, 12, 100},          // not whole blocks
      {ChannelMode::kGcm, 12, 256 * 16},     // 256 blocks
      {ChannelMode::kCcm, 13, 33},           // not whole blocks
      {ChannelMode::kCcm, 13, 256 * 16 + 16},
      {ChannelMode::kCbcMac, 0, 40},         // not whole blocks
      {ChannelMode::kCbcMac, 0, 0},          // empty message
  };
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Engine engine({.num_devices = 1, .device = {.num_cores = 2}, .backend = backend});
    engine.provision_key(1, key);
    for (const Case& c : cases) {
      Channel ch = engine.open_channel(c.mode, 1, 16, c.iv_len == 0 ? 13 : c.iv_len);
      ASSERT_TRUE(ch.valid());
      const Bytes iv = rng.bytes(c.iv_len);
      const Bytes pt = rng.bytes(c.payload_len);
      const std::string where = std::string(backend == Backend::kSim ? "sim" : "fast") +
                                " mode=" + std::to_string(static_cast<int>(c.mode)) +
                                " len=" + std::to_string(c.payload_len);

      Completion single = engine.submit_encrypt(ch, iv, {}, pt);
      JobResult r;
      ASSERT_NO_THROW(r = single.wait(/*max_cycles=*/10'000'000)) << where;
      EXPECT_TRUE(r.complete) << where;

      std::vector<JobSpec> batch(2);
      batch[0].iv_or_nonce = iv;
      batch[0].payload = pt;
      batch[1].iv_or_nonce = iv;
      batch[1].payload = rng.bytes(64);  // servable on both backends
      std::vector<Completion> jobs = engine.submit_batch(ch, std::move(batch));
      ASSERT_EQ(jobs.size(), 2u);
      ASSERT_NO_THROW(engine.wait_all()) << where;
      EXPECT_TRUE(jobs[1].result().auth_ok) << where;

      if (backend == Backend::kSim) {
        EXPECT_FALSE(r.auth_ok) << where;
        EXPECT_TRUE(r.payload.empty() && r.tag.empty()) << where;
        EXPECT_EQ(r.accept_cycle, 0u) << where;  // rejected at the seam
        EXPECT_FALSE(jobs[0].result().auth_ok) << where;
        EXPECT_EQ(ch.stats().failed, 2u) << where;
      } else {
        // The fast path serves the shape, with the software reference's bits.
        ASSERT_TRUE(r.auth_ok) << where;
        if (c.mode == ChannelMode::kCtr) {
          EXPECT_EQ(r.payload, crypto::ctr_transform_inc16(keys, Block128::from_span(iv), pt));
        } else if (c.mode == ChannelMode::kGcm) {
          EXPECT_EQ(r.payload, crypto::gcm_seal(keys, iv, {}, pt).ciphertext) << where;
        } else if (c.mode == ChannelMode::kCcm) {
          auto ref = crypto::ccm_seal(keys, {.tag_len = 16, .nonce_len = 13}, iv, {}, pt);
          EXPECT_EQ(r.payload, ref.ciphertext) << where;
          EXPECT_EQ(r.tag, ref.tag) << where;
        }
        EXPECT_TRUE(jobs[0].result().auth_ok) << where;
        EXPECT_EQ(ch.stats().failed, 0u) << where;
      }
      EXPECT_EQ(ch.stats().completed, 3u) << where;
    }
  }
}

TEST(Engine, GcmTagLengthTheFormatterRejectsRefusedAtSimSubmit) {
  // The GCM formatter takes tags of 4..16 bytes only: the channel's tag_len
  // when sealing (OPEN accepts 1..16 for GCM) and the submitted tag's
  // length when opening. SimDevice refuses the rest at submit.
  Engine engine({.num_devices = 1, .device = {.num_cores = 2}, .backend = Backend::kSim});
  Rng rng(87);
  engine.provision_key(1, rng.bytes(16));
  Channel short_tag = engine.open_channel(ChannelMode::kGcm, 1, /*tag_len=*/2, 12);
  Channel full_tag = engine.open_channel(ChannelMode::kGcm, 1, /*tag_len=*/16, 12);
  ASSERT_TRUE(short_tag.valid() && full_tag.valid());
  std::vector<Completion> jobs;
  jobs.push_back(engine.submit_encrypt(short_tag, rng.bytes(12), {}, rng.bytes(64)));
  jobs.push_back(engine.submit_decrypt(full_tag, rng.bytes(12), {}, rng.bytes(64), rng.bytes(3)));
  jobs.push_back(engine.submit_decrypt(full_tag, rng.bytes(12), {}, rng.bytes(64), rng.bytes(17)));
  for (Completion& job : jobs) {
    JobResult r;
    ASSERT_NO_THROW(r = job.wait(/*max_cycles=*/10'000));
    EXPECT_TRUE(r.complete);
    EXPECT_FALSE(r.auth_ok);
    EXPECT_EQ(r.accept_cycle, 0u);
  }
}

// Seals `oversize_aad` bytes of AAD (more formatted header blocks than the
// instruction's 8-bit header field carries) and `largest_aad` bytes (exactly
// core::kMaxInstructionBlocks blocks) on both backends. An oversize count
// would wrap in the instruction word and SimDevice would seal with the
// wrong ciphertext and tag, so it must refuse the job at submit; FastDevice
// keeps serving it with the software reference's bits.
void check_aad_header_limit(ChannelMode mode, std::size_t largest_aad,
                            std::size_t oversize_aad) {
  Rng rng(89);
  const Bytes key = rng.bytes(16);
  const auto keys = crypto::aes_expand_key(key);
  const unsigned iv_len = mode == ChannelMode::kGcm ? 12 : 13;
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Engine engine({.num_devices = 1, .device = {.num_cores = 2}, .backend = backend});
    engine.provision_key(1, key);
    Channel ch = engine.open_channel(mode, 1, 16, iv_len);
    ASSERT_TRUE(ch.valid());
    for (std::size_t aad_len : {largest_aad, oversize_aad}) {
      const std::string where = std::string(backend == Backend::kSim ? "sim" : "fast") +
                                " aad=" + std::to_string(aad_len);
      const Bytes iv = rng.bytes(iv_len), aad = rng.bytes(aad_len), pt = rng.bytes(64);
      JobResult r;
      ASSERT_NO_THROW(r = engine.submit_encrypt(ch, iv, aad, pt).wait(/*max_cycles=*/10'000'000))
          << where;
      ASSERT_TRUE(r.complete) << where;
      if (backend == Backend::kSim && aad_len == oversize_aad) {
        EXPECT_FALSE(r.auth_ok) << where;
        EXPECT_EQ(r.accept_cycle, 0u) << where;  // rejected at the seam
        continue;
      }
      ASSERT_TRUE(r.auth_ok) << where;
      if (mode == ChannelMode::kGcm) {
        auto ref = crypto::gcm_seal(keys, iv, aad, pt);
        EXPECT_EQ(to_hex(r.payload), to_hex(ref.ciphertext)) << where;
        EXPECT_EQ(to_hex(r.tag), to_hex(ref.tag)) << where;
      } else {
        auto ref = crypto::ccm_seal(keys, {.tag_len = 16, .nonce_len = 13}, iv, aad, pt);
        EXPECT_EQ(to_hex(r.payload), to_hex(ref.ciphertext)) << where;
        EXPECT_EQ(to_hex(r.tag), to_hex(ref.tag)) << where;
      }
    }
  }
}

TEST(Engine, GcmAadPastTheHeaderFieldRefusedAtSimSubmit) {
  // 4112 bytes pad to 257 header blocks (the count would wrap to 1); 4080
  // bytes are exactly 255.
  check_aad_header_limit(ChannelMode::kGcm, 4080, 4112);
}

TEST(Engine, CcmAadPastTheHeaderFieldRefusedAtSimSubmit) {
  // CCM prefixes a 2-byte length: 4112 bytes format to 258 header blocks
  // (the count would wrap to 2); 4078 bytes are exactly 255.
  check_aad_header_limit(ChannelMode::kCcm, 4078, 4112);
}

TEST(Engine, CcmNonceLengthMismatchFailsFastOnBothBackends) {
  // A CCM nonce whose length differs from the channel's registered
  // nonce_len cannot be formatted (nor sealed by crypto::ccm_seal): both
  // backends refuse it at the seam instead of throwing out of a step.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Engine engine({.num_devices = 1, .device = {.num_cores = 2}, .backend = backend});
    Rng rng(85);
    engine.provision_key(1, rng.bytes(16));
    Channel ch = engine.open_channel(ChannelMode::kCcm, 1, 8, /*nonce_len=*/13);
    ASSERT_TRUE(ch.valid());
    Completion wrong = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(64));
    JobResult r;
    ASSERT_NO_THROW(r = wrong.wait(/*max_cycles=*/10'000)) << static_cast<int>(backend);
    EXPECT_TRUE(r.complete);
    EXPECT_FALSE(r.auth_ok);
    EXPECT_EQ(r.accept_cycle, 0u);
    Completion good = engine.submit_encrypt(ch, rng.bytes(13), {}, rng.bytes(64));
    EXPECT_TRUE(good.wait().auth_ok) << static_cast<int>(backend);
  }
}

TEST(Engine, AdvanceToSkipsQuietGapsOnBothBackends) {
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Engine engine({.num_devices = 2, .device = {.num_cores = 1}, .backend = backend});
    Rng rng(81);
    engine.provision_key(1, rng.bytes(16));
    engine.advance_to(5000);
    EXPECT_GE(engine.max_cycle(), 5000u);
    for (std::size_t d = 0; d < engine.num_devices(); ++d)
      EXPECT_GE(engine.device(d).now(), 5000u) << d;

    // With work in flight, advance_to still completes it before jumping.
    Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    Completion job = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(256));
    engine.advance_to(engine.max_cycle() + 100'000);
    EXPECT_TRUE(job.done());
    EXPECT_TRUE(engine.idle());
    // advance_to to the past is a no-op.
    sim::Cycle now = engine.max_cycle();
    engine.advance_to(now / 2);
    EXPECT_EQ(engine.max_cycle(), now);
  }
}

TEST(Engine, TenantQuotaAndRateEnforcedAtSubmit) {
  // The enforcement half of the QoS subsystem: channels bound to a tenant
  // are metered at every submit against the tenant's (uncapped) rate
  // bucket and in-flight quota, with typed rejections that consume
  // nothing, and per-tenant runtime counters tracking the traffic.
  EngineConfig cfg{.num_devices = 1, .device = {.num_cores = 2}};
  qos::TenantConfig metered;
  metered.name = "metered";
  metered.rate_tokens = 1;
  metered.rate_cycles = 1'000'000'000;  // glacial refill: burst is the budget
  metered.burst = 2;
  cfg.tenants.push_back(metered);
  qos::TenantConfig quotad;
  quotad.name = "quotad";
  quotad.quota = 1;
  cfg.tenants.push_back(quotad);
  Engine engine(cfg);
  Rng rng(5);
  engine.provision_key(1, rng.bytes(16));

  // Binding a channel to an unregistered tenant is a caller bug.
  EXPECT_THROW(engine.open_channel(ChannelMode::kGcm, 1, 16, 12, 9), std::invalid_argument);

  Channel m =
      engine.open_channel(ChannelMode::kGcm, 1, 16, 12, engine.tenants().id_of("metered"));
  Channel q = engine.open_channel(ChannelMode::kGcm, 1, 16, 12, engine.tenants().id_of("quotad"));
  ASSERT_TRUE(m.valid() && q.valid());

  // Burst 2: two submits spend the bucket, the third gets the typed
  // rate rejection.
  engine.submit_encrypt(m, rng.bytes(12), {}, rng.bytes(64)).wait(1'000'000);
  engine.submit_encrypt(m, rng.bytes(12), {}, rng.bytes(64)).wait(1'000'000);
  EXPECT_THROW(engine.submit_encrypt(m, rng.bytes(12), {}, rng.bytes(64)),
               qos::TenantThrottledError);

  // Quota 1: a second job while the first is in flight is refused...
  Completion first = engine.submit_encrypt(q, rng.bytes(12), {}, rng.bytes(64));
  EXPECT_THROW(engine.submit_encrypt(q, rng.bytes(12), {}, rng.bytes(64)),
               qos::TenantQuotaExceededError);
  first.wait(1'000'000);
  // ...and admitted again once it completes.
  engine.submit_encrypt(q, rng.bytes(12), {}, rng.bytes(64)).wait(1'000'000);

  const qos::TenantRuntime& mrt = engine.tenants().runtime(engine.tenants().id_of("metered"));
  EXPECT_EQ(mrt.submitted, 2u);
  EXPECT_EQ(mrt.throttled, 1u);
  EXPECT_EQ(mrt.completed, 2u);
  const qos::TenantRuntime& qrt = engine.tenants().runtime(engine.tenants().id_of("quotad"));
  EXPECT_EQ(qrt.submitted, 2u);
  EXPECT_EQ(qrt.quota_rejections, 1u);
  EXPECT_EQ(qrt.inflight, 0u);
}

}  // namespace
}  // namespace mccp::host
