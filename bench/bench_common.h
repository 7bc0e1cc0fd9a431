// Shared measurement and table-printing helpers for the paper-reproduction
// benches. All throughput numbers follow the paper's accounting:
//   Mbps = payload bits x 190 MHz / cycles / 1e6
// "Theoretical" numbers come from the measured steady-state loop slope
// (cycles per 128-bit block); "2 KB packet" numbers come from processing a
// 2048-byte payload end to end.
//
// Platform measurements run through the asynchronous host driver
// (`host::Engine`): channels are opened as RAII handles, packets are
// submitted as completion-token jobs, and the engine is stepped until the
// fleet drains. One-device measurements are the `measure_platform` special
// case of the general multi-device `measure_engine`.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json_writer.h"
#include "common/rng.h"
#include "core/single_core_harness.h"
#include "crypto/ccm.h"
#include "crypto/kernels.h"
#include "host/engine.h"
#include "sim/simulation.h"
#include "workload/runner.h"

namespace mccp::bench {

inline constexpr double kMHz = 190.0;

inline double mbps_from_cycles(std::uint64_t bits, std::uint64_t cycles) {
  return sim::throughput_mbps(bits, cycles);
}

// --- single-core measurements -------------------------------------------------

struct CoreMeasurement {
  double loop_cycles_per_block;  // steady-state slope
  double theoretical_mbps;       // 128 bits x f / slope
  double packet2kb_mbps;         // measured on a 2048-byte payload
};

/// Measure a mode on one isolated core. `make_job` builds a job for a given
/// block count.
inline CoreMeasurement measure_core(std::size_t key_len,
                                    const std::function<core::CoreJob(std::size_t)>& make_job) {
  Rng rng(key_len * 7 + 1);
  Bytes key = rng.bytes(key_len);
  core::SingleCoreHarness h(key);
  auto r_small = h.run(make_job(8));
  auto r_large = h.run(make_job(40));
  double slope = static_cast<double>(r_large.cycles - r_small.cycles) / 32.0;
  auto r_2kb = h.run(make_job(128));
  CoreMeasurement m;
  m.loop_cycles_per_block = slope;
  m.theoretical_mbps = 128.0 * kMHz / slope;
  m.packet2kb_mbps = mbps_from_cycles(2048 * 8, r_2kb.cycles);
  return m;
}

inline core::CoreJob gcm_job(std::size_t blocks, std::uint64_t seed) {
  Rng r(seed + blocks);
  Bytes iv = r.bytes(12);
  return core::format_gcm_encrypt(iv, {}, r.bytes(blocks * 16));
}

inline core::CoreJob ccm1_job(std::size_t blocks, std::uint64_t seed) {
  Rng r(seed + blocks);
  crypto::CcmParams p{.tag_len = 8, .nonce_len = 13};
  Bytes nonce = r.bytes(13);
  return core::format_ccm1_encrypt(p, nonce, {}, r.bytes(blocks * 16));
}

inline core::CoreJob cbcmac_job(std::size_t blocks, std::uint64_t seed) {
  Rng r(seed + blocks);
  return core::format_cbcmac_generate(r.bytes((blocks + 1) * 16), 16);
}

// --- engine (multi-device) measurements -----------------------------------------

struct PlatformMeasurement {
  double aggregate_mbps;
  double mean_latency_cycles;  // accept -> complete per packet
  std::uint64_t makespan_cycles;
  std::uint32_t rejections;
};

inline Bytes make_iv(Rng& rng, host::ChannelMode mode, unsigned nonce_len) {
  switch (mode) {
    case host::ChannelMode::kGcm: return rng.bytes(12);
    case host::ChannelMode::kCcm: return rng.bytes(nonce_len);
    case host::ChannelMode::kCtr: {
      Bytes iv = rng.bytes(16);
      iv[14] = iv[15] = 0;
      return iv;
    }
    default: return {};
  }
}

/// Saturate an engine-driven fleet with `packets` payloads of `payload_len`
/// bytes, one channel per device (sharded by the placement policy), and
/// measure the steady-state aggregate throughput. Asynchronous end to end:
/// every job is tracked by its Completion token, and the makespan is the
/// furthest-ahead device clock when the fleet drains.
inline PlatformMeasurement measure_engine(const host::EngineConfig& cfg,
                                          host::ChannelMode mode, std::size_t key_len,
                                          std::size_t payload_len, std::size_t packets,
                                          unsigned tag_len = 8, unsigned nonce_len = 13) {
  host::Engine engine(cfg);
  Rng rng(1234);
  engine.provision_key(1, rng.bytes(key_len));

  std::vector<host::Channel> channels;
  for (std::size_t d = 0; d < engine.num_devices(); ++d) {
    auto ch = engine.open_channel(mode, 1, tag_len, nonce_len);
    if (!ch) throw std::runtime_error("measure_engine: open_channel failed");
    channels.push_back(std::move(ch));
  }

  std::vector<host::Completion> jobs;
  sim::Cycle start = engine.max_cycle();
  for (std::size_t i = 0; i < packets; ++i) {
    Bytes iv = make_iv(rng, mode, nonce_len);
    jobs.push_back(engine.submit_encrypt(channels[i % channels.size()], std::move(iv), {},
                                         rng.bytes(payload_len)));
  }
  engine.wait_all();
  sim::Cycle makespan = engine.max_cycle() - start;

  PlatformMeasurement m{};
  m.makespan_cycles = makespan;
  m.aggregate_mbps =
      mbps_from_cycles(static_cast<std::uint64_t>(packets) * payload_len * 8, makespan);
  double lat = 0;
  for (auto& job : jobs) {
    const auto& r = job.result();
    lat += static_cast<double>(r.complete_cycle - r.accept_cycle);
    m.rejections += r.rejections;
  }
  m.mean_latency_cycles = lat / static_cast<double>(packets);
  return m;
}

/// One-device special case (the paper's single-MCCP platform).
inline PlatformMeasurement measure_platform(const top::MccpConfig& cfg,
                                            host::ChannelMode mode, std::size_t key_len,
                                            std::size_t payload_len, std::size_t packets,
                                            unsigned tag_len = 8, unsigned nonce_len = 13) {
  return measure_engine({.num_devices = 1, .device = cfg}, mode, key_len, payload_len, packets,
                        tag_len, nonce_len);
}

// --- machine-readable output (--json) -------------------------------------------

/// Streaming JSON writer for the benches' `--json` report artifacts
/// (`BENCH_*.json`, checked in CI by tools/ci_assert.py); lives in
/// common/json_writer.h so library code (the workload scenario runner) can
/// emit the same artifacts.
using mccp::JsonWriter;

/// `--flag value` lookup for the bench executables; returns nullptr when
/// the flag is absent.
inline const char* arg_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return nullptr;
}

/// A numeric flag value that does not parse in full: one diagnostic line
/// naming the program and the flag, then exit status 2.
[[noreturn]] inline void reject_flag_value(char** argv, const char* flag, const char* v,
                                           const char* expected) {
  const char* prog = std::strrchr(argv[0], '/');
  std::fprintf(stderr, "%s: %s \"%s\": expected %s\n", prog != nullptr ? prog + 1 : argv[0],
               flag, v, expected);
  std::exit(2);
}

/// Strict unsigned `--flag N`: digits only (no sign, no blanks, no trailing
/// characters, not empty) and in range, else reject_flag_value.
inline std::uint64_t arg_size(int argc, char** argv, const char* flag, std::uint64_t fallback) {
  const char* v = arg_value(argc, argv, flag);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(*v)) || *end != '\0' || errno == ERANGE)
    reject_flag_value(argv, flag, v, "a non-negative integer");
  return n;
}

/// Strict floating-point `--flag F`: the whole value must parse; range
/// checks are the caller's.
inline double arg_double(int argc, char** argv, const char* flag, double fallback) {
  const char* v = arg_value(argc, argv, flag);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0') reject_flag_value(argv, flag, v, "a number");
  return x;
}

/// Shared `--kernel portable|auto|aesni|vaes` flag: forces a crypto kernel
/// tier (overriding any MCCP_CRYPTO_KERNEL environment setting) so BENCH
/// records are attributable to a tier. Exits with status 2 on a name this
/// host cannot run. Returns the dispatched kernel name.
inline const char* apply_kernel_flag(int argc, char** argv) {
  if (const char* k = arg_value(argc, argv, "--kernel")) {
    try {
      crypto::set_crypto_kernel(k);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "--kernel %s: %s\n", k, e.what());
      std::exit(2);
    }
  }
  return crypto::active_kernel_name();
}

// --- table formatting -----------------------------------------------------------

inline void print_header(const std::string& title) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%s\n", std::string(title.size(), '-').c_str());
}

/// The scenario report table shared by scenario_runner and net_swarm.
/// `transport_note` is appended to the header ("" for in-process runs).
inline void print_scenario_report(const mccp::workload::ScenarioReport& r,
                                  const std::string& transport_note = "") {
  print_header("Scenario " + r.scenario + " -- backend " + r.backend + ", " +
               std::to_string(r.devices) + " device(s) x " + std::to_string(r.cores_per_device) +
               " cores, window " + std::to_string(r.window) +
               (r.threads > 1 ? ", " + std::to_string(r.threads) + " worker thread(s)"
                              : ", serial stepping") +
               transport_note);
  std::printf("%-10s %-9s %-5s %-8s %-8s %-6s %-6s %9s %9s %10s %8s\n", "class", "mode", "prio",
              "offered", "done", "drop", "busy", "p50(us)", "p99(us)", "p99.9(us)", "Mbps");
  const double kUsPerCycle = 1.0 / kMHz;
  for (const auto& c : r.classes) {
    std::printf("%-10s %-9s %-5u %-8llu %-8llu %-6llu %-6llu %9.1f %9.1f %10.1f %8.1f\n",
                c.name.c_str(), c.mode.c_str(), c.priority,
                static_cast<unsigned long long>(c.offered),
                static_cast<unsigned long long>(c.completed),
                static_cast<unsigned long long>(c.dropped),
                static_cast<unsigned long long>(c.busy_rejections),
                static_cast<double>(c.latency.quantile(0.50)) * kUsPerCycle,
                static_cast<double>(c.latency.quantile(0.99)) * kUsPerCycle,
                static_cast<double>(c.latency.quantile(0.999)) * kUsPerCycle,
                c.throughput_mbps());
  }
  std::printf("\nmakespan %llu cycles (%.2f ms @190MHz), wall %.1f ms, peak in-flight %zu\n",
              static_cast<unsigned long long>(r.makespan_cycles),
              static_cast<double>(r.makespan_cycles) / 190e3, r.wall_ms, r.peak_inflight);
  if (r.reconfigurations > 0)
    std::printf("partial reconfigurations: %llu (%llu slot-cycles stalled, bitstreams from %s)\n",
                static_cast<unsigned long long>(r.reconfigurations),
                static_cast<unsigned long long>(r.reconfig_stall_cycles),
                r.bitstream_store.c_str());
}

/// "ours [paper]" cell, e.g. "496.3 [496]".
inline std::string cell(double ours, double paper) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%7.1f [%4.0f]", ours, paper);
  return buf;
}

}  // namespace mccp::bench
