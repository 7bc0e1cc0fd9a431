// google-benchmark measurements of the simulator itself: simulated cycles
// per host-second for a busy core and for the 4-core platform, plus the CU
// per-instruction cycle-cost table (the SV.B "seven clock cycles" contract).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "cu/isa.h"
#include "cu/timing.h"

namespace mccp::bench {
namespace {

void BM_SingleCoreGcm2KB(benchmark::State& state) {
  Rng rng(1);
  Bytes key = rng.bytes(16);
  core::SingleCoreHarness h(key);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    auto r = h.run(gcm_job(128, 3));
    cycles += r.cycles;
    benchmark::DoNotOptimize(r.output);
  }
  state.counters["sim_cycles"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SingleCoreGcm2KB);

void BM_FourCorePlatformGcm(benchmark::State& state) {
  for (auto _ : state) {
    auto m = measure_platform({.num_cores = 4}, top::ChannelMode::kGcm, 16, 2048, 8, 16, 12);
    benchmark::DoNotOptimize(m);
    state.counters["sim_cycles"] += static_cast<double>(m.makespan_cycles);
  }
  state.counters["sim_cycles"].flags = benchmark::Counter::kIsRate;
}
BENCHMARK(BM_FourCorePlatformGcm);

}  // namespace
}  // namespace mccp::bench

int main(int argc, char** argv) {
  // CU instruction cycle-cost table (SV.B: synchronous instructions finish
  // within seven cycles; start/finalize pairs hide AES/GHASH latency).
  std::printf("CU instruction cycle costs (execution slot occupancy):\n");
  std::printf("  LOAD/STORE/LOADH/SHIFT*: %d cycles (4 x 32-bit beats + handshake)\n",
              mccp::cu::kIoCycles);
  std::printf("  XOR/EQU:                 %d cycles\n", mccp::cu::kXorCycles);
  std::printf("  INC:                     %d cycles\n", mccp::cu::kIncCycles);
  std::printf("  SAES/SGFM (start):       %d cycles, then background 44/52/60 or %d\n",
              mccp::cu::kStartCycles, mccp::cu::kGhashCycles);
  std::printf("  FAES/FGFM (finalize):    %d cycles after background completion\n\n",
              mccp::cu::kFinalizeCycles);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
