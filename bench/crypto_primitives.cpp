// google-benchmark microbenchmarks of the from-scratch software crypto
// layer (the fast-path kernels double as the golden reference). These are
// host wall-clock numbers — useful for library users and for spotting
// regressions; the architecture study's cycle numbers come from the table
// benches instead.
//
// `--json PATH` additionally records the runs as a machine-readable
// BENCH_*.json report; `--kernel TIER` forces a crypto kernel tier
// (portable|auto|aesni|vaes) for the google-benchmark section
// (all other flags pass through to google-benchmark). A closing table
// sweeps every tier this host supports and compares GCM seal/open, CCM
// seal/open, CCM seal of four packets side by side (one ccm_batch call, the
// multi-lane kernel), a stream of staggered CCM seals through one
// CcmLanes (four in flight, finished one at a time), CBC-MAC and CTR wall
// throughput, portable vs accelerated, in one run.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/cbc_mac.h"
#include "crypto/ccm.h"
#include "crypto/ctr.h"
#include "crypto/gcm.h"
#include "crypto/gf128.h"
#include "crypto/ghash.h"
#include "crypto/kernels.h"
#include "crypto/whirlpool.h"

namespace mccp::crypto {
namespace {

void BM_AesKeyExpansion(benchmark::State& state) {
  Rng rng(1);
  Bytes key = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(aes_expand_key(key));
}
BENCHMARK(BM_AesKeyExpansion)->Arg(16)->Arg(24)->Arg(32);

void BM_AesEncryptBlock(benchmark::State& state) {
  Rng rng(2);
  auto keys = aes_expand_key(rng.bytes(static_cast<std::size_t>(state.range(0))));
  Block128 block = rng.block();
  for (auto _ : state) {
    block = aes_encrypt_block(keys, block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncryptBlock)->Arg(16)->Arg(24)->Arg(32);

void BM_Gf128MulBitSerial(benchmark::State& state) {
  Rng rng(3);
  Block128 a = rng.block(), b = rng.block();
  for (auto _ : state) {
    a = gf128_mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Gf128MulBitSerial);

void BM_Gf128MulDigitSerial(benchmark::State& state) {
  Rng rng(4);
  Block128 a = rng.block(), b = rng.block();
  for (auto _ : state) {
    a = gf128_mul_digit(a, b, 3);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Gf128MulDigitSerial);

void BM_Gf128MulTable(benchmark::State& state) {
  Rng rng(9);
  Gf128Table table(rng.block());
  Block128 a = rng.block();
  for (auto _ : state) {
    a = table.mul(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Gf128MulTable);

void BM_Gf128TableBuild(benchmark::State& state) {
  Rng rng(10);
  Block128 h = rng.block();
  for (auto _ : state) {
    Gf128Table table(h);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_Gf128TableBuild);

void BM_CtrKeystream(benchmark::State& state) {
  Rng rng(11);
  auto keys = aes_expand_key(rng.bytes(16));
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  Block128 ctr = rng.block();
  for (auto _ : state) benchmark::DoNotOptimize(ctr_transform(keys, ctr, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CtrKeystream)->Arg(2048);

// GHASH and GCM seal borrow a prebuilt per-key GcmKey, as FastDevice does,
// so they time the kernels rather than the table build (BM_Gf128TableBuild
// times that on its own).
void BM_Ghash(benchmark::State& state) {
  Rng rng(5);
  const GcmKey key(aes_expand_key(rng.bytes(16)));
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Ghash g(key.htable);
    g.update_padded(data);
    benchmark::DoNotOptimize(g.digest());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Ghash)->Arg(1024)->Arg(16384);

void BM_GcmSeal(benchmark::State& state) {
  Rng rng(6);
  const GcmKey key(aes_expand_key(rng.bytes(16)));
  Bytes iv = rng.bytes(12);
  Bytes pt = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(gcm_seal(key, iv, {}, pt));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_GcmSeal)->Arg(256)->Arg(2048)->Arg(16384);

void BM_CcmSeal(benchmark::State& state) {
  Rng rng(7);
  auto keys = aes_expand_key(rng.bytes(16));
  CcmParams p{.tag_len = 8, .nonce_len = 13};
  Bytes nonce = rng.bytes(13);
  Bytes pt = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(ccm_seal(keys, p, nonce, {}, pt));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_CcmSeal)->Arg(256)->Arg(2048);

void BM_Whirlpool(benchmark::State& state) {
  Rng rng(8);
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(whirlpool(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Whirlpool)->Arg(64)->Arg(2048);

// --- per-kernel-tier AES-mode comparison -------------------------------------

struct TierRates {
  std::string tier;
  // Wall MB/s, 2 KB payloads, AES-128.
  double gcm_seal_mb_s = 0;  // cached GcmKey
  double gcm_open_mb_s = 0;
  double ccm_seal_mb_s = 0;  // 8-byte tag, 13-byte nonce
  double ccm_open_mb_s = 0;
  double ccm_seal_x4_mb_s = 0;  // four 2 KB seals per ccm_batch call
  double ccm_stream_mb_s = 0;   // staggered 2-16 KB seals, four in flight
  double cbc_mac_mb_s = 0;
  double ctr_mb_s = 0;  // the CTR keystream alone, what GCM adds GHASH to
  double gcm_seal_over_ctr = 0;  // median of back-to-back window ratios
};

/// Wall throughput of one operation, measured over ~`seconds` of
/// repetitions.
template <typename Fn>
double measure_mb_s(std::size_t bytes_per_op, Fn&& op, double seconds = 0.025) {
  using Clock = std::chrono::steady_clock;
  op();  // warm up (tables, caches)
  std::size_t ops = 0;
  auto t0 = Clock::now();
  double elapsed = 0;
  do {
    for (int i = 0; i < 8; ++i) op();
    ops += 8;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < seconds);
  return static_cast<double>(ops) * static_cast<double>(bytes_per_op) / elapsed / 1e6;
}

/// a's rate over b's: the median of 15 ratios, each of a ~4 ms window of
/// `a` and one of `b` right beside it (in alternating order), so host load
/// that comes and goes slows both sides of most ratios alike.
template <typename A, typename B>
double median_rate_ratio(std::size_t bytes_per_op, A&& a, B&& b) {
  constexpr double kWindow = 0.004;
  std::vector<double> ratios;
  for (int i = 0; i < 15; ++i) {
    const bool a_first = i % 2 == 0;
    const double first = a_first ? measure_mb_s(bytes_per_op, a, kWindow)
                                 : measure_mb_s(bytes_per_op, b, kWindow);
    const double second = a_first ? measure_mb_s(bytes_per_op, b, kWindow)
                                  : measure_mb_s(bytes_per_op, a, kWindow);
    ratios.push_back(a_first ? first / second : second / first);
  }
  std::nth_element(ratios.begin(), ratios.begin() + 7, ratios.end());
  return ratios[7];
}

/// Staggered CCM seals through one CcmLanes, as a 4-core FastDevice runs
/// them: four packets in flight, each due when its length in blocks has
/// passed since its start; the one due first is finished, and the next
/// packet is submitted in its place. Lanes refill as packets end, so the
/// kernel's occupancy shows against "CCM seal x4", whose four equal
/// packets keep every lane full.
class CcmStream {
 public:
  CcmStream(Rng& rng, const AesRoundKeys& keys, const CcmParams& p) : keys_(keys), p_(p) {
    for (int i = 0; i < 16; ++i) {
      pts_.push_back(rng.bytes(2048 + rng.next_below(14 * 1024 + 1)));
      nonces_.push_back(rng.bytes(p.nonce_len));
      bytes_ += pts_.back().size();
    }
  }
  std::size_t bytes() const { return bytes_; }

  void run() {
    constexpr std::size_t kInFlight = 4;
    std::size_t handle[kInFlight], due[kInFlight];
    bool live[kInFlight] = {};
    std::size_t next = 0, now = 0;
    auto start = [&](std::size_t c) {
      handle[c] = lanes_.submit(CcmJob::seal(keys_, p_, nonces_[next], {}, pts_[next]));
      due[c] = now + pts_[next].size() / 16;
      live[c] = true;
      ++next;
    };
    for (std::size_t c = 0; c < kInFlight; ++c) start(c);
    for (;;) {
      std::size_t first = kInFlight;
      for (std::size_t c = 0; c < kInFlight; ++c)
        if (live[c] && (first == kInFlight || due[c] < due[first])) first = c;
      if (first == kInFlight) return;
      benchmark::DoNotOptimize(lanes_.finish(handle[first]).sealed_tag.data());
      now = due[first];
      live[first] = false;
      if (next < pts_.size()) start(first);
    }
  }

 private:
  const AesRoundKeys& keys_;
  CcmParams p_;
  std::vector<Bytes> pts_, nonces_;
  std::size_t bytes_ = 0;
  CcmLanes lanes_{4};
};

/// Sweep every kernel tier this host can force and measure the FastDevice
/// AES-mode hot paths on 2 KB payloads: GCM seal/open with a cached per-key
/// GcmKey, CCM seal/open one packet per call, CCM seal of four packets per
/// ccm_batch call, a CcmStream of staggered 2-16 KB seals, the CBC-MAC
/// chain and the CTR keystream.
/// Restores the previously dispatched tier afterwards.
std::vector<TierRates> measure_by_tier() {
  constexpr std::size_t kPayload = 2048;
  Rng rng(42);
  const AesRoundKeys keys = aes_expand_key(rng.bytes(16));
  GcmKey key(keys);
  Bytes iv = rng.bytes(12);
  Bytes nonce = rng.bytes(13);
  Bytes aad = rng.bytes(20);
  Bytes pt = rng.bytes(kPayload);
  const CcmParams ccm{.tag_len = 8, .nonce_len = 13};
  GcmSealed sealed = gcm_seal(key, iv, aad, pt);
  CcmSealed ccm_sealed = ccm_seal(keys, ccm, nonce, aad, pt);
  const Bytes nonces[4] = {rng.bytes(13), rng.bytes(13), rng.bytes(13), rng.bytes(13)};
  std::vector<CcmJob> x4;
  for (const Bytes& n : nonces) x4.push_back(CcmJob::seal(keys, ccm, n, aad, pt));
  CcmStream stream(rng, keys, ccm);

  const std::string previous = active_kernel_name();
  std::vector<TierRates> rates;
  for (const std::string& tier : supported_crypto_kernels()) {
    if (tier == "auto") continue;  // would duplicate the strongest tier
    set_crypto_kernel(tier);
    TierRates r;
    r.tier = tier;
    const auto gcm_seal_op = [&] { benchmark::DoNotOptimize(gcm_seal(key, iv, aad, pt)); };
    const auto ctr_op = [&] {
      benchmark::DoNotOptimize(ctr_transform(keys, Block128::from_span(iv), pt));
    };
    r.gcm_seal_mb_s = measure_mb_s(kPayload, gcm_seal_op);
    r.gcm_open_mb_s = measure_mb_s(kPayload, [&] {
      benchmark::DoNotOptimize(gcm_open(key, iv, aad, sealed.ciphertext, sealed.tag));
    });
    r.ccm_seal_mb_s = measure_mb_s(kPayload, [&] {
      benchmark::DoNotOptimize(ccm_seal(keys, ccm, nonce, aad, pt));
    });
    r.ccm_open_mb_s = measure_mb_s(kPayload, [&] {
      benchmark::DoNotOptimize(
          ccm_open(keys, ccm, nonce, aad, ccm_sealed.ciphertext, ccm_sealed.tag));
    });
    r.ccm_seal_x4_mb_s = measure_mb_s(4 * kPayload, [&] {
      ccm_batch(x4);
      benchmark::DoNotOptimize(x4.data());
    });
    r.ccm_stream_mb_s = measure_mb_s(stream.bytes(), [&] { stream.run(); });
    r.cbc_mac_mb_s = measure_mb_s(kPayload, [&] {
      CbcMac mac(keys);
      mac.update_padded(pt);
      benchmark::DoNotOptimize(mac.mac());
    });
    r.ctr_mb_s = measure_mb_s(kPayload, ctr_op);
    r.gcm_seal_over_ctr = median_rate_ratio(kPayload, gcm_seal_op, ctr_op);
    rates.push_back(std::move(r));
  }
  set_crypto_kernel(previous);
  return rates;
}

void print_tier_table(const std::vector<TierRates>& rates) {
  bench::print_header(
      "AES modes by crypto kernel tier -- wall MB/s, 2 KB payloads (CCM stream 2-16 KB), AES-128");
  std::printf("%-10s %10s %10s %10s %10s %12s %11s %10s %10s %8s %9s\n", "tier", "GCM seal",
              "GCM open", "CCM seal", "CCM open", "CCM seal x4", "CCM stream", "CBC-MAC", "CTR",
              "GCM/CTR", "GCM gain");
  const double base = rates.empty() ? 1.0 : rates.front().gcm_seal_mb_s;
  for (const auto& r : rates)
    std::printf("%-10s %10.1f %10.1f %10.1f %10.1f %12.1f %11.1f %10.1f %10.1f %8.2f %8.1fx\n",
                r.tier.c_str(), r.gcm_seal_mb_s, r.gcm_open_mb_s, r.ccm_seal_mb_s,
                r.ccm_open_mb_s, r.ccm_seal_x4_mb_s, r.ccm_stream_mb_s, r.cbc_mac_mb_s,
                r.ctr_mb_s, r.gcm_seal_over_ctr, r.gcm_seal_mb_s / base);
  std::printf("\ndispatched kernel: %s (MCCP_CRYPTO_KERNEL or --kernel to override)\n",
              active_kernel_name());
}

// Collects finished runs so `--json` can record them through the shared
// JsonWriter (the benches' BENCH_*.json format, independent of
// google-benchmark's own --benchmark_out). Wraps the console reporter so it can act as the
// display reporter.
class JsonCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const auto& run : runs) {
      Entry e;
      e.name = run.benchmark_name();
      e.iterations = static_cast<std::uint64_t>(run.iterations);
      e.real_time_ns = run.GetAdjustedRealTime();
      auto it = run.counters.find("bytes_per_second");
      if (it != run.counters.end()) e.bytes_per_second = it->second;
      entries_.push_back(std::move(e));
    }
  }

  void write(const std::string& path, const std::vector<TierRates>& tiers) const {
    bench::JsonWriter json;
    json.begin_object()
        .field("bench", "crypto_primitives")
        .field("kernel", active_kernel_name())
        .begin_array("benchmarks");
    for (const auto& e : entries_) {
      json.begin_object()
          .field("name", e.name)
          .field("iterations", e.iterations)
          .field("real_time_ns", e.real_time_ns);
      if (e.bytes_per_second > 0) json.field("bytes_per_second", e.bytes_per_second);
      json.end_object();
    }
    json.end_array().begin_array("by_kernel_tier");
    for (const auto& t : tiers) {
      json.begin_object()
          .field("tier", t.tier)
          .field("gcm_seal_mb_s", t.gcm_seal_mb_s)
          .field("gcm_open_mb_s", t.gcm_open_mb_s)
          .field("ccm_seal_mb_s", t.ccm_seal_mb_s)
          .field("ccm_open_mb_s", t.ccm_open_mb_s)
          .field("ccm_seal_x4_mb_s", t.ccm_seal_x4_mb_s)
          .field("ccm_stream_mb_s", t.ccm_stream_mb_s)
          .field("cbc_mac_mb_s", t.cbc_mac_mb_s)
          .field("ctr_mb_s", t.ctr_mb_s)
          .field("gcm_seal_over_ctr", t.gcm_seal_over_ctr)
          .end_object();
    }
    json.end_array().end_object();
    if (json.write_file(path)) std::printf("wrote %s\n", path.c_str());
  }

 private:
  struct Entry {
    std::string name;
    std::uint64_t iterations = 0;
    double real_time_ns = 0;
    double bytes_per_second = 0;
  };
  std::vector<Entry> entries_;
};

}  // namespace
}  // namespace mccp::crypto

int main(int argc, char** argv) {
  // Peel off --json <path> and --kernel <tier>; everything else goes to
  // google-benchmark.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i + 1 < argc && std::strcmp(argv[i], "--json") == 0) {
      json_path = argv[++i];
      continue;
    }
    if (i + 1 < argc && std::strcmp(argv[i], "--kernel") == 0) {
      try {
        mccp::crypto::set_crypto_kernel(argv[++i]);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "--kernel %s: %s\n", argv[i], e.what());
        return 2;
      }
      continue;
    }
    args.push_back(argv[i]);
  }
  int pruned_argc = static_cast<int>(args.size());
  benchmark::Initialize(&pruned_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(pruned_argc, args.data())) return 1;

  std::printf("crypto kernel tier: %s\n", mccp::crypto::active_kernel_name());
  mccp::crypto::JsonCollector collector;
  benchmark::RunSpecifiedBenchmarks(&collector);
  auto tiers = mccp::crypto::measure_by_tier();
  mccp::crypto::print_tier_table(tiers);
  if (!json_path.empty()) collector.write(json_path, tiers);
  benchmark::Shutdown();
  return 0;
}
