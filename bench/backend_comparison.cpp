// Backend comparison: cycle-accurate SimDevice vs functional FastDevice.
//
// Quantifies what the fast path buys: the same host::Engine workload (N
// 2 KB AES-128-GCM packets through a 4-core device) is run on both
// backends, comparing wall-clock time, modelled device cycles, and
// modelled throughput — then FastDevice alone is scaled to fleet sizes and
// packet counts that would be intractable under the cycle-accurate
// simulator. Modelled figures must agree (the calibration suite bounds
// the drift); wall-clock is where the backends diverge by orders of
// magnitude.
//
// Flags:
//   --packets N   packets for the head-to-head section (default 1000)
//   --kernel K    force a crypto kernel tier (portable|auto|aesni|vaes);
//                 the dispatched tier is reported in the JSON artifacts
//   --json PATH   also emit a machine-readable BENCH_*.json artifact
//                 (CI pins its head-to-head figures and wall budgets with
//                 tools/ci_assert.py)
#include <chrono>
#include <cstdio>

#include "bench_common.h"

namespace mccp::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct RunStats {
  double wall_ms = 0;
  std::uint64_t makespan_cycles = 0;
  double modeled_mbps = 0;
  double mean_latency_cycles = 0;
};

RunStats run_workload(host::Backend backend, std::size_t num_devices, std::size_t packets,
                      std::size_t payload_len) {
  host::Engine engine({.num_devices = num_devices,
                       .device = {.num_cores = 4},
                       .backend = backend});
  Rng rng(2024);
  engine.provision_key(1, rng.bytes(16));
  std::vector<host::Channel> channels;
  for (std::size_t d = 0; d < num_devices; ++d) {
    channels.push_back(engine.open_channel(host::ChannelMode::kGcm, 1, 16, 12));
    if (!channels.back().valid()) throw std::runtime_error("open_channel failed");
  }

  auto t0 = Clock::now();
  sim::Cycle start = engine.max_cycle();
  std::vector<host::Completion> jobs;
  jobs.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i)
    jobs.push_back(engine.submit_encrypt(channels[i % channels.size()], rng.bytes(12), {},
                                         rng.bytes(payload_len)));
  engine.wait_all();

  RunStats s;
  s.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  s.makespan_cycles = engine.max_cycle() - start;
  s.modeled_mbps = mbps_from_cycles(static_cast<std::uint64_t>(packets) * payload_len * 8,
                                    s.makespan_cycles);
  double lat = 0;
  for (auto& j : jobs) {
    const auto& r = j.result();
    lat += static_cast<double>(r.complete_cycle - r.accept_cycle);
  }
  s.mean_latency_cycles = lat / static_cast<double>(packets);
  return s;
}

void run(std::size_t packets, const char* json_path) {
  constexpr std::size_t kPayload = 2048;

  print_header("Backend head-to-head -- " + std::to_string(packets) +
               " x 2 KB AES-128-GCM packets, one 4-core device, " +
               crypto::active_kernel_name() + " crypto kernels");
  RunStats sim = run_workload(host::Backend::kSim, 1, packets, kPayload);
  RunStats fast = run_workload(host::Backend::kFast, 1, packets, kPayload);
  double speedup = sim.wall_ms / fast.wall_ms;

  std::printf("%-12s %-14s %-18s %-16s %-16s\n", "backend", "wall (ms)", "device cycles",
              "modeled Mbps", "latency (cyc)");
  std::printf("%-12s %-14.1f %-18llu %-16.1f %-16.0f\n", "sim", sim.wall_ms,
              static_cast<unsigned long long>(sim.makespan_cycles), sim.modeled_mbps,
              sim.mean_latency_cycles);
  std::printf("%-12s %-14.1f %-18llu %-16.1f %-16.0f\n", "fast", fast.wall_ms,
              static_cast<unsigned long long>(fast.makespan_cycles), fast.modeled_mbps,
              fast.mean_latency_cycles);
  std::printf("\nwall-clock speedup: %.1fx; modeled throughput agreement: %+.1f%%\n", speedup,
              100.0 * (fast.modeled_mbps - sim.modeled_mbps) / sim.modeled_mbps);

  print_header("FastDevice fleet scaling -- 2 KB GCM, 4-core devices, heavy offered load");
  std::printf("%-9s %-10s %-14s %-16s %-10s\n", "devices", "packets", "wall (ms)",
              "modeled Mbps", "scaling");
  struct FleetPoint {
    std::size_t devices;
    RunStats stats;
  };
  std::vector<FleetPoint> fleet;
  double base_mbps = 0;
  for (std::size_t n : {1u, 2u, 4u, 8u}) {
    std::size_t fleet_packets = packets * n;
    RunStats s = run_workload(host::Backend::kFast, n, fleet_packets, kPayload);
    if (n == 1) base_mbps = s.modeled_mbps;
    std::printf("%-9zu %-10zu %-14.1f %-16.1f %.2fx\n", n, fleet_packets, s.wall_ms,
                s.modeled_mbps, s.modeled_mbps / base_mbps);
    fleet.push_back({n, s});
  }
  std::printf("\nThe functional backend keeps the calibrated cycle accounting (modeled\n"
              "Mbps matches the simulator) while the wall-clock cost per packet drops by\n"
              "orders of magnitude, making soak runs and large fleets tractable.\n");

  if (json_path != nullptr) {
    JsonWriter json;
    json.begin_object()
        .field("bench", "backend_comparison")
        .field("payload_bytes", kPayload)
        .field("packets", packets)
        .field("kernel", crypto::active_kernel_name())
        .begin_object("head_to_head");
    for (auto [name, s] : {std::pair<const char*, RunStats&>{"sim", sim}, {"fast", fast}}) {
      json.begin_object(name)
          .field("wall_ms", s.wall_ms)
          .field("device_cycles", s.makespan_cycles)
          .field("modeled_mbps", s.modeled_mbps)
          .field("mean_latency_cycles", s.mean_latency_cycles)
          .end_object();
    }
    json.field("wall_clock_speedup", speedup).end_object().begin_array("fleet_scaling");
    for (const auto& p : fleet) {
      json.begin_object()
          .field("devices", p.devices)
          .field("packets", packets * p.devices)
          .field("wall_ms", p.stats.wall_ms)
          .field("modeled_mbps", p.stats.modeled_mbps)
          .end_object();
    }
    json.end_array().end_object();
    if (json.write_file(json_path)) std::printf("\nwrote %s\n", json_path);
  }
}

}  // namespace
}  // namespace mccp::bench

int main(int argc, char** argv) {
  std::size_t packets = mccp::bench::arg_size(argc, argv, "--packets", 1000);
  if (packets == 0) {
    std::fprintf(stderr, "backend_comparison: --packets must be a positive integer\n");
    return 2;
  }
  mccp::bench::apply_kernel_flag(argc, argv);
  mccp::bench::run(packets, mccp::bench::arg_value(argc, argv, "--json"));
  return 0;
}
