// Core-count scaling study (paper SIII.A: "MCCP architecture is scalable;
// the number of embedded crypto-core may vary. ... more or less than four
// cores may be implemented according to the communication system
// requirements").
//
// Sweeps 1..8 cores under saturating 2 KB AES-GCM-128 traffic and reports
// aggregate throughput, parallel efficiency vs N x single-core, and where
// the shared control port / crossbar start to matter.
#include "bench_common.h"

namespace mccp::bench {
namespace {

void run() {
  print_header("Core-count scaling, AES-GCM-128, 2 KB packets, saturating load");
  auto single = measure_core(16, [&](std::size_t n) { return gcm_job(n, 5); });
  std::printf("single-core 2KB packet: %.1f Mbps (theoretical %.1f)\n\n",
              single.packet2kb_mbps, single.theoretical_mbps);
  std::printf("%-7s %-16s %-16s %-12s %-12s\n", "cores", "aggregate Mbps", "ideal (N x 1)",
              "efficiency", "busy rejects");

  for (std::size_t n = 1; n <= 8; ++n) {
    auto m = measure_platform({.num_cores = n}, top::ChannelMode::kGcm, 16, 2048,
                              /*packets=*/6 * n, 16, 12);
    double ideal = static_cast<double>(n) * single.packet2kb_mbps;
    std::printf("%-7zu %-16.1f %-16.1f %-12.3f %-12u\n", n, m.aggregate_mbps, ideal,
                m.aggregate_mbps / ideal, m.rejections);
  }
  std::printf("\nThe paper's 4-core point: 1748 Mbps (4 x 437). Efficiency below 1.0\n"
              "reflects the serialized control port and per-packet key-cache checks\n"
              "the paper's arithmetic multiplication does not account for.\n");
}

}  // namespace
}  // namespace mccp::bench

int main() {
  mccp::bench::run();
  return 0;
}
