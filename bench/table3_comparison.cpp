// Reproduces Table III: performance comparison against the literature.
//
// The five comparison rows are published figures (constants from the cited
// papers); our MCCP row is measured live on the simulator, normalised to
// Mbps/MHz exactly as the paper does. The paper's own MCCP row is printed
// for reference.
#include "baseline/literature.h"
#include "bench_common.h"

namespace mccp::bench {
namespace {

void print_row(const std::string& name, const std::string& platform, bool programmable,
               const std::string& alg, double mbps_per_mhz, double freq, int slices,
               int brams) {
  char area[32];
  if (slices < 0) std::snprintf(area, sizeof(area), "%s", "--");
  else std::snprintf(area, sizeof(area), "%d (%d)", slices, brams);
  std::printf("%-24s %-12s %-6s %-8s %10.2f %9.0f   %s\n", name.c_str(), platform.c_str(),
              programmable ? "Yes" : "No", alg.c_str(), mbps_per_mhz, freq, area);
}

void run() {
  print_header("Table III -- performance comparison (throughput per MHz)");
  std::printf("%-24s %-12s %-6s %-8s %10s %9s   %s\n", "Implementation", "Platform", "Prog.",
              "Alg.", "Mbps/MHz", "Freq MHz", "Slices (BRAM)");

  for (const auto& e : baseline::table3_literature())
    print_row(e.implementation, e.platform, e.programmable, e.algorithm, e.mbps_per_mhz,
              e.frequency_mhz, e.slices, e.brams);

  auto paper = baseline::table3_mccp_paper_row();
  print_row(paper.implementation, paper.platform, paper.programmable, paper.algorithm,
            paper.mbps_per_mhz, paper.frequency_mhz, paper.slices, paper.brams);

  // Our measured row: best-case 4-core aggregates on 2 KB packets.
  auto impl = baseline::mccp_implementation();
  auto gcm4 = measure_platform({.num_cores = 4}, top::ChannelMode::kGcm, 16, 2048, 16, 16, 12);
  auto ccm4 = measure_platform({.num_cores = 4, .ccm_mapping = top::CcmMapping::kSingleCore},
                               top::ChannelMode::kCcm, 16, 2048, 16);
  char alg[64];
  std::snprintf(alg, sizeof(alg), "GCM/CCM");
  char mbpmhz[64];
  std::snprintf(mbpmhz, sizeof(mbpmhz), "%.2f / %.2f", gcm4.aggregate_mbps / impl.frequency_mhz,
                ccm4.aggregate_mbps / impl.frequency_mhz);
  std::printf("%-24s %-12s %-6s %-8s %10s %9.0f   %d (%d)\n", "MCCP (this simulator)",
              impl.device, "Yes", alg, mbpmhz, impl.frequency_mhz, impl.slices, impl.brams);
  std::printf(
      "\nPaper row: 9.91 / 4.43 Mbps/MHz for GCM / CCM (4x1-core, 2 KB packets).\n"
      "Area figures for our row are the paper's synthesis results (we simulate,\n"
      "not synthesize); the throughput figures are measured on the simulator.\n");
}

}  // namespace
}  // namespace mccp::bench

int main() {
  mccp::bench::run();
  return 0;
}
