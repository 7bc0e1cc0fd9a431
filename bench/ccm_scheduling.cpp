// CCM task-mapping ablation (paper SVII.A):
//
// "Table II shows that AES-CCM 4x1 cores provides better throughput than
//  AES-CCM 2x2 cores. This means that packet processing on one core is more
//  efficient than packet processing on two cores. However, latency of the
//  first solution is almost two times greater than latency of the second
//  solution."
//
// This bench reproduces that trade-off on the full platform: same 4 cores,
// same offered CCM traffic, two scheduler policies.
#include "bench_common.h"

namespace mccp::bench {
namespace {

void run() {
  print_header("CCM task mapping: 4x1 cores vs 2x2 cores (AES-128-CCM, 2 KB packets)");

  auto single = measure_platform({.num_cores = 4, .ccm_mapping = top::CcmMapping::kSingleCore},
                                 top::ChannelMode::kCcm, 16, 2048, 20);
  auto paired = measure_platform({.num_cores = 4, .ccm_mapping = top::CcmMapping::kPairPreferred},
                                 top::ChannelMode::kCcm, 16, 2048, 20);
  auto adaptive = measure_platform({.num_cores = 4, .ccm_mapping = top::CcmMapping::kAdaptive},
                                   top::ChannelMode::kCcm, 16, 2048, 20);

  std::printf("%-22s %-18s %-24s\n", "mapping", "aggregate Mbps", "mean packet latency (us)");
  std::printf("%-22s %-18.1f %-24.1f\n", "4x1 (one core/pkt)", single.aggregate_mbps,
              single.mean_latency_cycles / kMHz);
  std::printf("%-22s %-18.1f %-24.1f\n", "2x2 (pair/pkt)", paired.aggregate_mbps,
              paired.mean_latency_cycles / kMHz);
  std::printf("%-22s %-18.1f %-24.1f\n", "adaptive (extension)", adaptive.aggregate_mbps,
              adaptive.mean_latency_cycles / kMHz);

  std::printf("\nthroughput ratio 4x1 / 2x2 : %.2f   [paper: 856/786 = 1.09]\n",
              single.aggregate_mbps / paired.aggregate_mbps);
  std::printf("latency ratio    4x1 / 2x2 : %.2f   [paper: \"almost two times greater\"]\n",
              single.mean_latency_cycles / paired.mean_latency_cycles);
  std::printf("\n\"As a consequence, designers should make scheduling choices according\n"
              "to system needs in terms of latency and/or throughput.\" (SVII.A)\n");

  // Light load: one packet in flight at a time. Here the pair mapping's
  // lower latency is pure win, and the adaptive policy should match it.
  print_header("Light load (packets arrive one at a time)");
  auto light = [](top::CcmMapping mapping) {
    host::Engine engine({.num_devices = 1, .device = {.num_cores = 4, .ccm_mapping = mapping}});
    Rng rng(9);
    engine.provision_key(1, rng.bytes(16));
    auto ch = engine.open_channel(host::ChannelMode::kCcm, 1, 8, 13);
    double total = 0;
    for (int i = 0; i < 6; ++i) {
      const auto& r = engine.submit_encrypt(ch, rng.bytes(13), {}, rng.bytes(2048)).wait();
      total += static_cast<double>(r.complete_cycle - r.accept_cycle);
    }
    return total / 6.0 / kMHz;
  };
  std::printf("%-22s %-24s\n", "mapping", "mean packet latency (us)");
  std::printf("%-22s %-24.1f\n", "4x1 (one core/pkt)", light(top::CcmMapping::kSingleCore));
  std::printf("%-22s %-24.1f\n", "2x2 (pair/pkt)", light(top::CcmMapping::kPairPreferred));
  std::printf("%-22s %-24.1f\n", "adaptive (extension)", light(top::CcmMapping::kAdaptive));
  std::printf("\nThe adaptive policy tracks the pair mapping's latency under light load\n"
              "while approaching the single-core mapping's throughput at saturation.\n");
}

}  // namespace
}  // namespace mccp::bench

int main() {
  mccp::bench::run();
  return 0;
}
