// Chip-counter pins: one seeded mixed run through a two-device simulated
// Engine, with every modelled figure it produces pinned exactly — each
// job's submit/accept/complete stamps and busy rejections, every core's
// busy cycles and task count, the crossbar word counters and the Task
// Scheduler's request/reconfiguration counters. The run covers GCM seal
// and open (1/8 of tags tampered), CCM under the adaptive mapping (split
// pairs and single-core packets, so a request sees one lane finish before
// the other), CTR, CBC-MAC generate and verify, a Whirlpool packet that
// forces an auto-reconfiguration swap, and two priorities.
//
// The figures must not depend on how the host steps the chip or which
// crypto kernel computes the data: the same pins hold serially, on a
// 4-worker pool and under the portable kernel tier.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/cbc_mac.h"
#include "crypto/ccm.h"
#include "crypto/gcm.h"
#include "crypto/kernels.h"
#include "host/engine.h"

namespace mccp::host {
namespace {

struct ChipFigures {
  std::uint64_t jobs = 0;
  std::uint64_t auth_failures = 0;
  std::uint64_t submit_sum = 0, accept_sum = 0, complete_sum = 0, rejections = 0;
  std::uint64_t stamp_hash = 0;  // FNV-1a over every job's stamps, in submit order
  std::vector<std::uint64_t> busy_cycles;      // device-major, one per core
  std::vector<std::uint64_t> tasks_completed;  // device-major, one per core
  std::vector<std::uint64_t> words_in, words_out;
  std::vector<std::uint64_t> requests_completed, requests_rejected, reconfigurations;
  std::uint64_t sharded_rounds = 0;  // host timing, not a modelled figure
};

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ull;
  }
}

ChipFigures run_mixed(std::size_t workers) {
  EngineConfig cfg;
  cfg.num_devices = 2;
  cfg.device.num_cores = 4;
  cfg.device.ccm_mapping = top::CcmMapping::kAdaptive;
  cfg.device.reconfig_time_divisor = 32;
  cfg.num_workers = workers;
  Engine engine(cfg);

  Rng rng(20261017);
  const Bytes k_gcm = rng.bytes(16), k_ccm = rng.bytes(16), k_ctr = rng.bytes(16),
              k_mac = rng.bytes(16);
  engine.provision_key(1, k_gcm);
  engine.provision_key(2, k_ccm);
  engine.provision_key(3, k_ctr);
  engine.provision_key(4, k_mac);
  const auto keys_gcm = crypto::aes_expand_key(k_gcm);
  const auto keys_ccm = crypto::aes_expand_key(k_ccm);
  const auto keys_mac = crypto::aes_expand_key(k_mac);
  const crypto::CcmParams ccm_p{.tag_len = 8, .nonce_len = 13};

  // Round-robin placement alternates devices: each one gets a GCM and a
  // CCM channel; CTR and Whirlpool land on device 0, CBC-MAC on device 1.
  Channel gcm0 = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel ccm1 = engine.open_channel(ChannelMode::kCcm, 2, 8, 13);
  Channel ccm0 = engine.open_channel(ChannelMode::kCcm, 2, 8, 13);
  Channel gcm1 = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel ctr = engine.open_channel(ChannelMode::kCtr, 3);
  Channel mac = engine.open_channel(ChannelMode::kCbcMac, 4, 16);
  Channel wp = engine.open_channel(ChannelMode::kWhirlpool, 0);
  EXPECT_TRUE(gcm0.valid() && ccm1.valid() && ccm0.valid() && gcm1.valid() && ctr.valid() &&
              mac.valid() && wp.valid());

  struct Submitted {
    Completion job;
    bool expect_auth;
  };
  std::vector<Submitted> jobs;
  for (int i = 0; i < 96; ++i) {
    const unsigned priority = rng.next_below(4) == 0 ? 16 : 128;
    const Bytes pt = rng.bytes(16 * (1 + rng.next_below(24)));
    const Bytes aad = rng.bytes(rng.next_below(40));
    const bool open = rng.next_below(2) == 0;
    const bool tamper = open && rng.next_below(8) == 0;
    if (i == 30 || i == 70) {
      jobs.push_back({engine.submit_encrypt(wp, {}, {}, rng.bytes(100 + rng.next_below(300)),
                                            priority),
                      true});
    }
    switch (rng.next_below(4)) {
      case 0:
      case 1: {  // GCM or CCM, seal or open
        const bool use_gcm = rng.next_below(2) == 0;
        const bool dev0 = rng.next_below(2) == 0;
        const Channel& ch = use_gcm ? (dev0 ? gcm0 : gcm1) : (dev0 ? ccm0 : ccm1);
        const Bytes iv = rng.bytes(use_gcm ? 12 : 13);
        if (!open) {
          jobs.push_back({engine.submit_encrypt(ch, iv, aad, pt, priority), true});
          break;
        }
        Bytes ct, tag;
        if (use_gcm) {
          auto ref = crypto::gcm_seal(keys_gcm, iv, aad, pt);
          ct = ref.ciphertext;
          tag = ref.tag;
        } else {
          auto ref = crypto::ccm_seal(keys_ccm, ccm_p, iv, aad, pt);
          ct = ref.ciphertext;
          tag = ref.tag;
        }
        if (tamper) tag[rng.next_below(tag.size())] ^= 0x01;
        jobs.push_back({engine.submit_decrypt(ch, iv, aad, ct, tag, priority), !tamper});
        break;
      }
      case 2:
        jobs.push_back({engine.submit_encrypt(ctr, rng.bytes(16), {}, pt, priority), true});
        break;
      default: {
        if (!open) {
          jobs.push_back({engine.submit_encrypt(mac, {}, {}, pt, priority), true});
          break;
        }
        const Block128 full = crypto::cbc_mac(keys_mac, pt);
        Bytes tag(full.b.begin(), full.b.end());
        if (tamper) tag[rng.next_below(tag.size())] ^= 0x01;
        jobs.push_back({engine.submit_decrypt(mac, {}, {}, pt, tag, priority), !tamper});
        break;
      }
    }
    // Bursts of submits separated by gaps: the backlog builds and drains.
    if (rng.next_below(6) == 0) engine.run(rng.next_below(4000));
  }
  engine.wait_all();

  ChipFigures f;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Submitted& s : jobs) {
    const JobResult& r = s.job.result();
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.auth_ok, s.expect_auth) << "job " << s.job.id();
    ++f.jobs;
    if (!r.auth_ok) ++f.auth_failures;
    f.submit_sum += r.submit_cycle;
    f.accept_sum += r.accept_cycle;
    f.complete_sum += r.complete_cycle;
    f.rejections += r.rejections;
    for (std::uint64_t v : {std::uint64_t{r.submit_cycle}, std::uint64_t{r.accept_cycle},
                            std::uint64_t{r.complete_cycle}, std::uint64_t{r.rejections},
                            std::uint64_t{r.auth_ok}})
      fnv(h, v);
  }
  f.stamp_hash = h;
  f.sharded_rounds = engine.sharded_rounds();
  for (std::size_t d = 0; d < engine.num_devices(); ++d) {
    top::Mccp& chip = engine.sim_device(d)->mccp();
    for (std::size_t c = 0; c < chip.num_cores(); ++c) {
      f.busy_cycles.push_back(chip.core(c).busy_cycles());
      f.tasks_completed.push_back(chip.core(c).tasks_completed());
    }
    f.words_in.push_back(chip.crossbar().words_in());
    f.words_out.push_back(chip.crossbar().words_out());
    f.requests_completed.push_back(chip.requests_completed());
    f.requests_rejected.push_back(chip.requests_rejected());
    f.reconfigurations.push_back(chip.reconfigurations_done());
  }
  return f;
}

std::string show(const std::vector<std::uint64_t>& v) {
  std::string s = "{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ", ";
    s += std::to_string(v[i]);
  }
  return s + "}";
}

// Measured on the per-cycle scan implementation (every bookkeeping step
// re-scanned each cycle); the event-gated chip must reproduce them exactly.
void expect_pinned(const ChipFigures& f) {
  EXPECT_EQ(f.jobs, 98u);
  EXPECT_EQ(f.auth_failures, 5u);
  EXPECT_EQ(f.submit_sum, 10939235u);
  EXPECT_EQ(f.accept_sum, 14295120u);
  EXPECT_EQ(f.complete_sum, 14403169u);
  EXPECT_EQ(f.rejections, 16835u);
  EXPECT_EQ(f.stamp_hash, 7356918907510881359u);
  EXPECT_EQ(show(f.busy_cycles), "{21566, 15707, 17543, 3867, 18421, 16554, 11042, 9275}");
  EXPECT_EQ(show(f.tasks_completed), "{23, 14, 11, 6, 16, 17, 12, 10}");
  EXPECT_EQ(show(f.words_in), "{3336, 3252}");
  EXPECT_EQ(show(f.words_out), "{2484, 1496}");
  EXPECT_EQ(show(f.requests_completed), "{48, 50}");
  EXPECT_EQ(show(f.requests_rejected), "{16665, 170}");
  EXPECT_EQ(show(f.reconfigurations), "{1, 0}");
}

TEST(ChipCounterPins, SerialRun) { expect_pinned(run_mixed(0)); }

TEST(ChipCounterPins, FourWorkerRun) {
  const ChipFigures f = run_mixed(4);
  expect_pinned(f);
  EXPECT_GT(f.sharded_rounds, 0u);  // the pool's handoff ran, not only inline rounds
}

TEST(ChipCounterPins, PortableKernelRun) {
  const std::string previous = crypto::active_kernel_name();
  crypto::set_crypto_kernel("portable");
  const ChipFigures f = run_mixed(0);
  crypto::set_crypto_kernel(previous);
  expect_pinned(f);
}

}  // namespace
}  // namespace mccp::host
