// Fleet demo: one asynchronous host driver in front of several MCCP
// devices.
//
// The paper scales the MCCP by varying its crypto-core count; a production
// platform scales one level further with a fleet of MCCPs behind one
// driver. This demo builds a *heterogeneous* fleet — a big 4-core device
// and two small 2-core devices — lets the least-loaded placement policy
// shard twelve channels across it, pushes a mixed GCM/CCM/CTR packet load
// with completion callbacks, and prints where everything landed.
//
//   $ ./build/examples/fleet
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "crypto/gcm.h"
#include "host/engine.h"

using namespace mccp;

int main() {
  // A heterogeneous fleet: adopt pre-built devices instead of the uniform
  // EngineConfig path.
  std::vector<std::unique_ptr<host::Device>> fleet;
  fleet.push_back(std::make_unique<host::SimDevice>(top::MccpConfig{.num_cores = 4}, "big0"));
  fleet.push_back(std::make_unique<host::SimDevice>(top::MccpConfig{.num_cores = 2}, "small0"));
  fleet.push_back(std::make_unique<host::SimDevice>(
      top::MccpConfig{.num_cores = 2, .ccm_mapping = top::CcmMapping::kPairPreferred}, "small1"));
  host::Engine engine(std::move(fleet), host::Placement::kLeastLoaded);

  Rng rng(2027);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);  // broadcast: any device can host any channel

  // Twelve channels, mixed modes, sharded by load.
  std::vector<host::Channel> channels;
  for (int i = 0; i < 12; ++i) {
    host::ChannelMode mode = i % 3 == 0   ? host::ChannelMode::kCcm
                             : i % 3 == 1 ? host::ChannelMode::kGcm
                                          : host::ChannelMode::kCtr;
    auto ch = engine.open_channel(mode, 1, mode == host::ChannelMode::kCcm ? 8 : 16,
                                  mode == host::ChannelMode::kCcm ? 13 : 12);
    if (!ch) {
      std::printf("open_channel %d failed (0x%02x)\n", i, engine.last_error());
      return 1;
    }
    channels.push_back(std::move(ch));
  }
  std::printf("channel placement (least-loaded policy):\n");
  for (const auto& ch : channels)
    std::printf("  channel %2u (%s) -> %s\n", ch.id(),
                ch.mode() == host::ChannelMode::kCcm   ? "CCM"
                : ch.mode() == host::ChannelMode::kGcm ? "GCM"
                                                       : "CTR",
                engine.device(ch.device_index()).name().c_str());

  // Fire three rounds of packets at every channel; count completions via
  // callbacks (each fires exactly once).
  std::size_t completed = 0, auth_failures = 0;
  std::vector<host::Completion> jobs;
  for (int round = 0; round < 3; ++round)
    for (auto& ch : channels) {
      Bytes iv;
      switch (ch.mode()) {
        case host::ChannelMode::kGcm: iv = rng.bytes(12); break;
        case host::ChannelMode::kCcm: iv = rng.bytes(13); break;
        default:
          iv = rng.bytes(16);
          iv[14] = iv[15] = 0;
          break;
      }
      auto job = engine.submit_encrypt(ch, std::move(iv), {}, rng.bytes(1024));
      job.on_done([&](const host::JobResult& r) {
        ++completed;
        if (!r.auth_ok) ++auth_failures;
      });
      jobs.push_back(std::move(job));
    }

  engine.wait_all();
  std::printf("\n%zu packets completed (%zu auth failures) across %zu devices\n", completed,
              auth_failures, engine.num_devices());
  if (completed != jobs.size() || auth_failures != 0) return 1;

  std::printf("\n%-8s %-7s %-10s %-14s %-12s\n", "device", "cores", "requests", "busy cores",
              "device clock");
  for (std::size_t d = 0; d < engine.num_devices(); ++d) {
    auto* dev = engine.sim_device(d);
    const top::Mccp& mccp = dev->mccp();
    std::printf("%-8s %-7zu %-10llu %-14zu %llu cycles\n", dev->name().c_str(),
                mccp.num_cores(), static_cast<unsigned long long>(mccp.requests_completed()),
                mccp.num_cores() - mccp.idle_core_count(),
                static_cast<unsigned long long>(dev->now()));
  }

  std::printf("\nper-channel goodput (driver-side stats):\n");
  for (const auto& ch : channels) {
    const host::ChannelStats& s = ch.stats();
    std::printf("  %s/ch%u: %llu pkts, %5.1f Mbps, %llu busy rejections\n",
                engine.device(ch.device_index()).name().c_str(), ch.id(),
                static_cast<unsigned long long>(s.completed), s.throughput_mbps(),
                static_cast<unsigned long long>(s.rejections));
  }

  // Spot-check one GCM channel against the software reference.
  Bytes iv = rng.bytes(12), pt = rng.bytes(256);
  const auto& r = engine.submit_encrypt(channels[1], iv, {}, pt).wait();
  auto ref = crypto::gcm_seal(crypto::aes_expand_key(key), iv, {}, pt);
  bool match = r.payload == ref.ciphertext && r.tag == ref.tag;
  std::printf("\nGCM spot-check vs software reference: %s\n", match ? "ok" : "MISMATCH");
  return match ? 0 : 1;
}
