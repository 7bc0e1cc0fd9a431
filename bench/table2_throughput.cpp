// Reproduces Table II: "MCCP encryption throughputs at 190 MHz
// (theoretical / 2 KB packet)" for AES-GCM {1 core, 4x1 cores} and AES-CCM
// {1 core, 4x1 cores, 2 cores, 2x2 cores} across 128/192/256-bit keys.
//
// Methodology (matching the paper's):
//  * theoretical  = 128 bits x 190 MHz / T_loop, with T_loop measured as the
//    exact steady-state slope of the simulated firmware;
//  * 2 KB packet  = processing time of a 2048-byte payload on the core(s);
//  * 4x1 / 2x2    = saturated multi-packet aggregate on the full platform
//    (control protocol, key scheduler and crossbar included), which is why
//    the measured aggregates sit slightly below 4x the single-core figure.
//
// Paper reference values are printed in brackets.
#include "bench_common.h"

namespace mccp::bench {
namespace {

struct PaperRow {
  double gcm1_t, gcm1_m, gcm4_t, gcm4_m;
  double ccm1_t, ccm1_m, ccm4_t, ccm4_m;
  double ccm2_t, ccm2_m, ccm22_t, ccm22_m;
};

// Table II verbatim.
const PaperRow kPaper[3] = {
    {496, 437, 1984, 1748, 233, 214, 932, 856, 442, 393, 884, 786},
    {426, 382, 1704, 1528, 202, 187, 808, 748, 386, 348, 772, 696},
    {374, 337, 1496, 1348, 178, 171, 712, 684, 342, 313, 684, 626},
};

void run() {
  print_header("Table II -- MCCP encryption throughput at 190 MHz, Mbps "
               "(ours [paper]); theoretical / 2KB-packet");
  std::printf("%-4s | %-13s | %-22s | %-22s\n", "key", "config", "theoretical",
              "2 KB packet");

  const std::size_t key_lens[3] = {16, 24, 32};
  const int key_bits[3] = {128, 192, 256};
  for (int k = 0; k < 3; ++k) {
    const std::size_t kl = key_lens[k];
    const PaperRow& p = kPaper[k];

    auto gcm = measure_core(kl, [&](std::size_t n) { return gcm_job(n, 11); });
    auto ccm1 = measure_core(kl, [&](std::size_t n) { return ccm1_job(n, 22); });
    auto cbc = measure_core(kl, [&](std::size_t n) { return cbcmac_job(n, 33); });

    // 4x1: four independent single-core packets (theoretical = 4x), measured
    // on the saturated platform.
    auto gcm4 = measure_platform({.num_cores = 4}, top::ChannelMode::kGcm, kl, 2048, 16,
                                 16, 12);
    auto ccm4 = measure_platform({.num_cores = 4, .ccm_mapping = top::CcmMapping::kSingleCore},
                                 top::ChannelMode::kCcm, kl, 2048, 16);
    // 2 cores: one split-CCM pair; 2x2: two pairs on four cores.
    auto ccm2 = measure_platform({.num_cores = 2, .ccm_mapping = top::CcmMapping::kPairPreferred},
                                 top::ChannelMode::kCcm, kl, 2048, 12);
    auto ccm22 = measure_platform({.num_cores = 4, .ccm_mapping = top::CcmMapping::kPairPreferred},
                                  top::ChannelMode::kCcm, kl, 2048, 16);

    // The split-CCM pair is bottlenecked by the CBC-MAC half: T_CBC.
    double ccm2_theory = 128.0 * kMHz / cbc.loop_cycles_per_block;

    std::printf("%-4d | %-13s | %s | %s\n", key_bits[k], "GCM 1 core",
                cell(gcm.theoretical_mbps, p.gcm1_t).c_str(),
                cell(gcm.packet2kb_mbps, p.gcm1_m).c_str());
    std::printf("%-4s | %-13s | %s | %s\n", "", "GCM 4x1",
                cell(4 * gcm.theoretical_mbps, p.gcm4_t).c_str(),
                cell(gcm4.aggregate_mbps, p.gcm4_m).c_str());
    std::printf("%-4s | %-13s | %s | %s\n", "", "CCM 1 core",
                cell(ccm1.theoretical_mbps, p.ccm1_t).c_str(),
                cell(ccm1.packet2kb_mbps, p.ccm1_m).c_str());
    std::printf("%-4s | %-13s | %s | %s\n", "", "CCM 4x1",
                cell(4 * ccm1.theoretical_mbps, p.ccm4_t).c_str(),
                cell(ccm4.aggregate_mbps, p.ccm4_m).c_str());
    std::printf("%-4s | %-13s | %s | %s\n", "", "CCM 2 cores",
                cell(ccm2_theory, p.ccm2_t).c_str(),
                cell(ccm2.aggregate_mbps, p.ccm2_m).c_str());
    std::printf("%-4s | %-13s | %s | %s\n", "", "CCM 2x2",
                cell(2 * ccm2_theory, p.ccm22_t).c_str(),
                cell(ccm22.aggregate_mbps, p.ccm22_m).c_str());
  }
  std::printf(
      "\nNotes: measured multi-core aggregates include the full control protocol\n"
      "(ENCRYPT/RETRIEVE/TRANSFER_DONE), key scheduling and crossbar arbitration;\n"
      "the paper's 4x1 / 2x2 columns are arithmetic multiples of the 1-core values.\n");
}

}  // namespace
}  // namespace mccp::bench

int main() {
  mccp::bench::run();
  return 0;
}
