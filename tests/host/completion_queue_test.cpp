// Completions pushed through Device::take_completed(), on both backends:
// jobs that finish out of id order on one device (mixed priorities and
// sizes, a submit refused at the seam among them) still deliver in
// ascending JobId within a round, each callback fires exactly once, each
// result reaches its own job, and the stamps are identical serial and
// threaded. A FaultyDevice masks a completion stamped after its kill even
// when it is taken in the round that overshot the kill cycle, and removing
// a device that itself received migrated jobs resubmits them in JobId
// order, keeping per-channel order and ascending delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/ccm.h"
#include "crypto/gcm.h"
#include "host/engine.h"
#include "host/faulty_device.h"

namespace mccp::host {
namespace {

const char* name(Backend backend) { return backend == Backend::kSim ? "sim" : "fast"; }

/// One packet: its inputs (its software reference is computed from them),
/// its handle, and how often its callbacks fired.
struct Packet {
  std::size_t channel = 0;
  Bytes iv, pt;
  bool refused = false;  // submitted with a short GCM IV
  Completion job;
  int fired = 0;
};

/// What one out-of-order run observed.
struct Observed {
  std::vector<JobResult> results;          // by submission index
  std::vector<std::vector<JobId>> rounds;  // JobIds each step() delivered
  std::vector<JobId> ids;                  // by submission index
  std::vector<std::size_t> devices;        // by submission index
};

/// Steps `engine` until `done`, recording the JobIds each round delivered
/// (the callbacks the caller registered append to `round`).
template <class Done>
void step_recording(Engine& engine, std::vector<JobId>& round,
                    std::vector<std::vector<JobId>>& rounds, Done done) {
  while (!done()) {
    round.clear();
    engine.step();
    if (!round.empty()) rounds.push_back(round);
  }
}

/// Four 2-core devices with a GCM and a CCM channel each. Two waves of
/// packets: low-priority 2 KB seals first, then small urgent ones, so a
/// device serves later ids before earlier ones; the second wave goes in
/// while the first runs and carries a refusal, which completes at once.
Observed run_out_of_order(Backend backend, std::size_t workers) {
  Engine engine({.num_devices = 4,
                 .device = {.num_cores = 2},
                 .backend = backend,
                 .num_workers = workers});
  Rng rng(32);
  const Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  const crypto::AesRoundKeys keys = crypto::aes_expand_key(key);

  // Round-robin placement: gcm on devices 0..3, then ccm on devices 0..3.
  std::vector<Channel> channels;
  for (int i = 0; i < 4; ++i) channels.push_back(engine.open_channel(ChannelMode::kGcm, 1, 16, 12));
  for (int i = 0; i < 4; ++i) channels.push_back(engine.open_channel(ChannelMode::kCcm, 1, 8, 13));
  for (std::size_t c = 0; c < channels.size(); ++c) {
    EXPECT_TRUE(channels[c].valid());
    EXPECT_EQ(channels[c].device_index(), c % 4);
  }

  std::vector<Packet> pkts;
  pkts.reserve(24);  // callbacks hold references into it
  Observed run;
  std::vector<JobId> round;
  auto submit = [&](std::size_t channel, std::size_t len, unsigned priority, bool refused) {
    Packet p;
    p.channel = channel;
    const bool gcm = channels[channel].mode() == ChannelMode::kGcm;
    p.iv = rng.bytes(gcm ? (refused ? 11 : 12) : 13);
    p.pt = rng.bytes(len);
    p.refused = refused;
    p.job = engine.submit_encrypt(channels[channel], p.iv, {}, p.pt, priority);
    pkts.push_back(std::move(p));
  };
  auto wave = [&](bool second) {
    for (std::size_t i = 0; i < 12; ++i) {
      const std::size_t channel = (i * 3 + (second ? 1 : 0)) % channels.size();
      const bool big = !second && i % 3 != 2;
      submit(channel, big ? 2048 : 32 + 16 * (i % 4), big ? 200 : (i % 2 ? 0 : 64),
             second && i == 5 && channels[channel].mode() == ChannelMode::kGcm);
    }
  };
  auto watch = [&](std::size_t from) {
    for (std::size_t k = from; k < pkts.size(); ++k) {
      Packet& p = pkts[k];
      p.job.on_done([&round, &p](const JobResult&) {
        ++p.fired;
        round.push_back(p.job.id());
      });
      if (k % 3 == 0) p.job.on_done([&p](const JobResult&) { ++p.fired; });  // a second one
    }
  };
  wave(false);
  watch(0);
  // Let the first wave start, then queue the urgent second wave behind it.
  const sim::Cycle started = engine.max_cycle();
  step_recording(engine, round, run.rounds, [&] { return engine.max_cycle() >= started + 200; });
  const std::size_t first_wave = pkts.size();
  wave(true);
  EXPECT_TRUE(std::any_of(pkts.begin(), pkts.end(), [](const Packet& p) { return p.refused; }));
  watch(first_wave);
  step_recording(engine, round, run.rounds, [&] { return engine.idle(); });

  for (std::size_t k = 0; k < pkts.size(); ++k) {
    const Packet& p = pkts[k];
    EXPECT_EQ(p.fired, k % 3 == 0 ? 2 : 1) << name(backend) << " packet " << k;
    const JobResult& r = p.job.result();
    EXPECT_TRUE(r.complete);
    run.ids.push_back(p.job.id());
    run.devices.push_back(channels[p.channel].device_index());
    run.results.push_back(r);
    if (p.refused) {
      EXPECT_FALSE(r.auth_ok);
      EXPECT_TRUE(r.payload.empty());
      continue;
    }
    // Each result reached its own job: the software reference under its
    // own inputs.
    EXPECT_TRUE(r.auth_ok) << p.job.id();
    if (channels[p.channel].mode() == ChannelMode::kGcm) {
      const crypto::GcmSealed ref = crypto::gcm_seal(keys, p.iv, {}, p.pt, 16);
      EXPECT_EQ(to_hex(r.payload), to_hex(ref.ciphertext)) << p.job.id();
      EXPECT_EQ(to_hex(r.tag), to_hex(ref.tag)) << p.job.id();
    } else {
      const crypto::CcmSealed ref = crypto::ccm_seal(keys, {8, 13}, p.iv, {}, p.pt);
      EXPECT_EQ(to_hex(r.payload), to_hex(ref.ciphertext)) << p.job.id();
      EXPECT_EQ(to_hex(r.tag), to_hex(ref.tag)) << p.job.id();
    }
  }
  return run;
}

TEST(CompletionQueue, OutOfOrderCompletionsDeliverAscendingOnceOnBothBackends) {
  std::map<Backend, Observed> serial;
  for (Backend backend : {Backend::kFast, Backend::kSim}) {
    const Observed run = run_out_of_order(backend, 0);
    ASSERT_EQ(run.results.size(), 24u);

    // The scenario does finish jobs out of id order on one device...
    bool out_of_order = false;
    for (std::size_t a = 0; a < run.results.size(); ++a)
      for (std::size_t b = a + 1; b < run.results.size(); ++b)
        out_of_order |= run.devices[a] == run.devices[b] &&
                        run.results[b].complete_cycle < run.results[a].complete_cycle;
    EXPECT_TRUE(out_of_order) << name(backend);
    // ...and delivers a later id in an earlier round than an earlier id...
    std::vector<JobId> delivered;
    for (const std::vector<JobId>& round : run.rounds) {
      // ...but always ascending within one round, every job exactly once.
      EXPECT_TRUE(std::is_sorted(round.begin(), round.end())) << name(backend);
      EXPECT_EQ(std::adjacent_find(round.begin(), round.end()), round.end()) << name(backend);
      delivered.insert(delivered.end(), round.begin(), round.end());
    }
    EXPECT_FALSE(std::is_sorted(delivered.begin(), delivered.end())) << name(backend);
    std::vector<JobId> sorted = delivered;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, run.ids) << name(backend);

    // Threaded stepping is a twin: same rounds, same stamps.
    const Observed threaded = run_out_of_order(backend, 4);
    EXPECT_EQ(threaded.rounds, run.rounds) << name(backend);
    ASSERT_EQ(threaded.results.size(), run.results.size());
    for (std::size_t i = 0; i < run.results.size(); ++i) {
      const JobResult& s = run.results[i];
      const JobResult& t = threaded.results[i];
      EXPECT_EQ(t.payload, s.payload) << name(backend) << " " << i;
      EXPECT_EQ(t.tag, s.tag) << name(backend) << " " << i;
      EXPECT_EQ(t.auth_ok, s.auth_ok) << name(backend) << " " << i;
      EXPECT_EQ(t.submit_cycle, s.submit_cycle) << name(backend) << " " << i;
      EXPECT_EQ(t.accept_cycle, s.accept_cycle) << name(backend) << " " << i;
      EXPECT_EQ(t.complete_cycle, s.complete_cycle) << name(backend) << " " << i;
      EXPECT_EQ(t.rejections, s.rejections) << name(backend) << " " << i;
    }
    serial[backend] = run;
  }
  // Sim and fast agree on every result (their stamps differ here: the
  // fast clock jumps, so the second wave lands at another cycle).
  const Observed& sim = serial[Backend::kSim];
  const Observed& fast = serial[Backend::kFast];
  for (std::size_t i = 0; i < sim.results.size(); ++i) {
    EXPECT_EQ(sim.results[i].payload, fast.results[i].payload) << i;
    EXPECT_EQ(sim.results[i].tag, fast.results[i].tag) << i;
    EXPECT_EQ(sim.results[i].auth_ok, fast.results[i].auth_ok) << i;
  }
}

TEST(CompletionQueue, CompletionTakenInTheRoundThatOvershootsTheKillIsResubmitted) {
  // A FastDevice step jumps straight to its next completion, so the one
  // round that carries the device past its kill cycle also finishes the job
  // stamped after it: take_completed() must hold it back, and
  // remove_device() must resubmit it. SimDevice steps a cycle a round and
  // strands the job the same way.
  for (Backend backend : {Backend::kFast, Backend::kSim}) {
    Rng rng(41);
    const Bytes key = rng.bytes(16), iv = rng.bytes(12), pt = rng.bytes(512);
    EngineConfig cfg;
    cfg.num_devices = 2;
    cfg.device = {.num_cores = 1};
    cfg.backend = backend;

    // Reference run: the job's completion stamp on device 0.
    sim::Cycle stamp = 0;
    {
      Engine probe(cfg);
      probe.provision_key(1, key);
      Channel ch = probe.open_channel(ChannelMode::kGcm, 1, 16, 12);
      stamp = probe.submit_encrypt(ch, iv, {}, pt).wait().complete_cycle;
    }

    cfg.faults.push_back({.device = 0, .kill_at_cycle = stamp - 1});
    Engine engine(cfg);
    engine.provision_key(1, key);
    Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    ASSERT_EQ(ch.device_index(), 0u);
    Completion job = engine.submit_encrypt(ch, iv, {}, pt);
    int fired = 0;
    job.on_done([&fired](const JobResult&) { ++fired; });
    while (!engine.device_failed(0)) engine.step();
    const auto& faulty = dynamic_cast<const FaultyDevice&>(engine.device(0));
    if (backend == Backend::kFast) {
      EXPECT_EQ(faulty.inner()->now(), stamp) << "one round finished the job past the kill";
    }
    EXPECT_FALSE(job.done()) << name(backend) << ": stamped after the kill, never delivered";
    engine.step();
    EXPECT_FALSE(job.done()) << name(backend);

    const DrainReport rep = engine.remove_device(0);
    EXPECT_TRUE(rep.was_failed);
    EXPECT_EQ(rep.completed_during_drain, 0u) << name(backend);
    EXPECT_EQ(rep.resubmitted_jobs, 1u) << name(backend);
    const JobResult& r = job.wait();
    const crypto::GcmSealed ref = crypto::gcm_seal(crypto::aes_expand_key(key), iv, {}, pt, 16);
    EXPECT_TRUE(r.auth_ok);
    EXPECT_EQ(to_hex(r.payload), to_hex(ref.ciphertext)) << name(backend);
    EXPECT_EQ(to_hex(r.tag), to_hex(ref.tag)) << name(backend);
    EXPECT_EQ(ch.device_index(), 1u) << name(backend) << ": served again on the survivor";
    EXPECT_EQ(fired, 1) << name(backend);
  }
}

TEST(CompletionQueue, RemovingADeviceThatReceivedMigratedJobsResubmitsInJobIdOrder) {
  // Device 0 dies holding channel a's jobs (JobIds 1-4); device 1 holds
  // channel b's (JobIds 5-8, device ids 1-4) when a's jobs migrate onto it
  // (device ids 5-8). Then device 1 dies too. Its jobs in device-id order
  // would put b's ahead of a's; resubmitted in JobId order instead, the
  // one-core survivor serves a's first, FIFO. Per-channel order and
  // ascending delivery hold throughout.
  for (Backend backend : {Backend::kFast, Backend::kSim}) {
    Engine engine({.num_devices = 2, .device = {.num_cores = 1}, .backend = backend});
    Rng rng(43);
    const Bytes key = rng.bytes(16);
    engine.provision_key(1, key);
    const crypto::AesRoundKeys keys = crypto::aes_expand_key(key);
    Channel a = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    Channel b = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    ASSERT_EQ(a.device_index(), 0u);
    ASSERT_EQ(b.device_index(), 1u);
    engine.inject_fault(0, engine.device(0).now());  // dead at once; retains specs
    ASSERT_TRUE(engine.device_failed(0));

    std::vector<Packet> pkts;
    pkts.reserve(8);
    std::vector<JobId> round;
    for (std::size_t k = 0; k < 8; ++k) {
      Packet p;
      p.channel = k < 4 ? 0 : 1;
      p.iv = rng.bytes(12);
      p.pt = rng.bytes(128 + 64 * (k % 3));
      p.job = engine.submit_encrypt(k < 4 ? a : b, p.iv, {}, p.pt);
      pkts.push_back(std::move(p));
      Packet& q = pkts.back();
      q.job.on_done([&round, &q](const JobResult&) {
        ++q.fired;
        round.push_back(q.job.id());
      });
    }

    const DrainReport first = engine.remove_device(0);
    EXPECT_EQ(first.resubmitted_jobs, 4u) << name(backend);
    ASSERT_EQ(a.device_index(), 1u) << "a migrated onto b's device";
    EXPECT_EQ(engine.add_device(), 0u) << "the tombstoned slot is refilled";
    engine.inject_fault(1, engine.device(1).now());
    ASSERT_TRUE(engine.device_failed(1));
    const DrainReport second = engine.remove_device(1);
    EXPECT_EQ(second.resubmitted_jobs, 8u) << name(backend);
    EXPECT_EQ(second.lost_jobs, 0u);
    ASSERT_EQ(a.device_index(), 0u);
    ASSERT_EQ(b.device_index(), 0u);

    std::vector<std::vector<JobId>> rounds;
    step_recording(engine, round, rounds, [&] { return engine.idle(); });
    std::vector<JobId> delivered;
    for (const std::vector<JobId>& r : rounds) {
      EXPECT_TRUE(std::is_sorted(r.begin(), r.end())) << name(backend);
      delivered.insert(delivered.end(), r.begin(), r.end());
    }
    std::vector<JobId> ids;
    for (const Packet& p : pkts) ids.push_back(p.job.id());
    EXPECT_EQ(delivered, ids) << name(backend) << ": served and delivered in JobId order";
    for (std::size_t k = 0; k < pkts.size(); ++k) {
      const JobResult& r = pkts[k].job.result();
      EXPECT_EQ(pkts[k].fired, 1) << name(backend) << " " << k;
      const crypto::GcmSealed ref = crypto::gcm_seal(keys, pkts[k].iv, {}, pkts[k].pt, 16);
      EXPECT_EQ(to_hex(r.payload), to_hex(ref.ciphertext)) << name(backend) << " " << k;
      EXPECT_EQ(to_hex(r.tag), to_hex(ref.tag)) << name(backend) << " " << k;
      if (k > 0) {
        EXPECT_LT(pkts[k - 1].job.result().complete_cycle, r.complete_cycle)
            << name(backend) << ": the survivor serves FIFO in resubmission order, " << k;
      }
    }
  }
}

}  // namespace
}  // namespace mccp::host
