// Multi-channel, multi-standard secure SDR scenario — the workload the
// paper's introduction motivates: one radio terminal concurrently serving
// a WiFi-style CCM link, a satellite GCM link, a latency-sensitive CTR
// voice stream and an authentication-only telemetry stream, all through
// one 4-core MCCP behind the asynchronous host driver.
//
//   $ ./build/examples/multichannel_radio
#include <cstdio>
#include <vector>

#include "host/engine.h"
#include "workload/jobgen.h"

using namespace mccp;

int main() {
  host::Engine engine(
      {.num_devices = 1, .device = {.num_cores = 4, .ccm_mapping = top::CcmMapping::kSingleCore}});
  Rng rng(7);

  // One traffic class per standard. Security parameters follow the specs
  // the paper's introduction cites: 802.11i CCMP is AES-CCM with an 8-byte
  // MIC and a 13-byte nonce, GCM takes SP 800-38D's 96-bit IV.
  using workload::SizeDist;
  const std::vector<workload::ChannelClass> classes = {
      {.name = "wifi-ccmp", .mode = top::ChannelMode::kCcm, .tag_len = 8,
       .payload = SizeDist::fixed(2048), .aad = SizeDist::fixed(22)},
      {.name = "satcom-gcm", .mode = top::ChannelMode::kGcm, .key_len = 32, .nonce_len = 12,
       .payload = SizeDist::fixed(2048), .aad = SizeDist::fixed(20)},
      {.name = "voice-ctr", .mode = top::ChannelMode::kCtr, .nonce_len = 12,
       .payload = SizeDist::fixed(160)},
      {.name = "telemetry-cbcmac", .mode = top::ChannelMode::kCbcMac, .tag_len = 8,
       .payload = SizeDist::fixed(256)},
  };
  constexpr std::uint64_t kPacketsPerClass = 10;

  std::vector<workload::ClassSpec> specs;
  for (const auto& c : classes) specs.push_back({.profile = c, .packets = kPacketsPerClass});
  std::vector<workload::ClassJobStream> streams;
  std::vector<host::Channel> channels;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const workload::ChannelClass& c = classes[i];
    auto key_id = static_cast<top::KeyId>(i + 1);
    engine.provision_key(key_id, rng.bytes(c.key_len));
    auto ch = engine.open_channel(c.mode, key_id, c.tag_len, c.nonce_len);
    if (!ch) {
      std::printf("failed to open %s\n", c.name.c_str());
      return 1;
    }
    std::printf("opened %-18s (channel %u, key %u, %zu-bit AES)\n", c.name.c_str(), ch.id(),
                key_id, c.key_len * 8);
    channels.push_back(std::move(ch));
    streams.emplace_back(specs[i], /*scenario_seed=*/99, i, /*max_cycles=*/0);
  }

  // 40 packets round-robin across the four standards, all in flight at
  // once; the driver multiplexes them over the single control port.
  std::vector<host::Completion> jobs;
  bool failed = false;

  sim::Cycle start = engine.max_cycle();
  for (std::size_t n = 0; n < classes.size() * kPacketsPerClass; ++n) {
    const std::size_t i = n % classes.size();
    workload::GeneratedJob pkt = streams[i].take();
    auto job = engine.submit_encrypt(channels[i], std::move(pkt.job.iv_or_nonce),
                                     std::move(pkt.job.aad), std::move(pkt.job.payload));
    job.on_done([&failed](const host::JobResult& r) {
      if (!r.complete || !r.auth_ok) failed = true;
    });
    jobs.push_back(std::move(job));
  }
  engine.wait_all();
  sim::Cycle makespan = engine.max_cycle() - start;
  if (failed) {
    std::printf("a packet failed!\n");
    return 1;
  }

  std::uint64_t total_bytes = 0;
  for (const auto& ch : channels) total_bytes += ch.stats().payload_bytes;
  std::printf("\n%zu packets, makespan %.1f us at 190 MHz\n", jobs.size(),
              static_cast<double>(makespan) / 190.0);
  std::printf("aggregate goodput: %.1f Mbps\n\n",
              sim::throughput_mbps(total_bytes * 8, makespan));

  // Per-channel statistics come straight off the RAII handles now.
  std::printf("%-18s %-9s %-10s %-18s\n", "standard", "packets", "kB", "mean latency (us)");
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const host::ChannelStats& s = channels[i].stats();
    std::printf("%-18s %-9llu %-10.1f %-18.1f\n", classes[i].name.c_str(),
                static_cast<unsigned long long>(s.completed),
                static_cast<double>(s.payload_bytes) / 1024.0,
                s.mean_service_latency_cycles() / 190.0);
  }

  std::printf("\nper-core utilisation:\n");
  top::Mccp& mccp = engine.sim_device(0)->mccp();
  for (std::size_t i = 0; i < mccp.num_cores(); ++i) {
    const auto& c = mccp.core(i);
    std::printf("  core %zu: %llu tasks, %llu busy cycles, %llu AES blocks\n", i,
                static_cast<unsigned long long>(c.tasks_completed()),
                static_cast<unsigned long long>(c.busy_cycles()),
                static_cast<unsigned long long>(c.unit().aes_blocks()));
  }
  return 0;
}
