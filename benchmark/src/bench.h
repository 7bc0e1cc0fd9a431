// Shared plumbing for mccp_bench, the repository's benchmark program.
//
// It measures the library from the outside: every number comes from
// timing public calls (host::Engine, net::Client/Server,
// workload::ScenarioRunner, crypto::*, core::SingleCoreHarness and the bare
// host::Device seam). This header holds what every workload shares: the
// clock, repetition statistics, the results file (metrics, exact counts and
// output checks), process resource counters, and the in-memory span tracer
// whose Chrome trace-event JSON the traced run writes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed by every thread of this process so far.
std::int64_t cpu_ns();

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);
/// Nearest-rank quantile q in [0, 1] of `v` (0 for an empty vector).
double quantile(std::vector<double> v, double q);

// Throughput statistics over repetitions. On a shared host, neighbours
// contending for the last-level cache slow a repetition down by up to 2x
// for seconds at a time and never speed one up: the median rate of a run,
// and even its fast decile, flip between regimes from run to run, while the
// fastest repetition stays put. Rates and per-layer replay times are
// therefore taken from the fastest repetition. Set-up time is the median
// of the run's set-ups, and open-loop latency a quantile of every timed
// repetition's requests pooled, so a stall that strikes only some
// repetitions still shows.
/// Durations (lower is better): the shortest.
inline double fastest_time(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}
/// Rates (higher is better): the highest.
inline double fastest_rate(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out;                                    // results JSON
  std::string trace_out;                              // Chrome trace JSON
  std::string workloads_dir = "benchmark/workloads";  // scenario files
};

/// Process-wide resource counters (getrusage, RUSAGE_SELF).
struct Usage {
  std::int64_t minor_faults = 0;
  std::int64_t ctx_switches = 0;  // voluntary + involuntary
  double max_rss_mb = 0;
};
Usage usage_now();

/// Everything one workload run reports: metrics (value, unit, layer and
/// sample count), exact counts that the workload files pin, and the output
/// checks behind `attempted` / `failed`.
class Results {
 public:
  struct Metric {
    double value = 0;
    std::string unit;
    std::string layer;  // "e2e" or the layer name ("crypto", "host", ...)
    std::uint64_t samples = 0;
  };

  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& layer, std::uint64_t samples = 0);
  void count(const std::string& name, std::uint64_t value) { counts_[name] = value; }
  void info(const std::string& name, const std::string& value) { info_[name] = value; }
  /// Per-repetition values behind a host-time figure, kept for inspection.
  void series(const std::string& name, std::vector<double> values) {
    series_[name] = std::move(values);
  }
  /// One checked operation; a false `ok` counts as failed and keeps `what`.
  void check(bool ok, const std::string& what);
  /// `attempted` checked operations of which `failed` mismatched.
  void checks(std::uint64_t attempted, std::uint64_t failed, const std::string& what);

  std::uint64_t failed() const { return failed_; }
  bool write(const std::string& path) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::uint64_t> counts_;
  std::map<std::string, std::string> info_;
  std::map<std::string, std::vector<double>> series_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// In-memory span recorder for the traced run. Spans nest through a stack
/// of open spans; per-packet spans (submit -> completion) are kept apart
/// because they overlap each other. Total and self time per span name are
/// summed as spans close; the first kMaxRecords spans and packets are also
/// kept for write_chrome(), so a long traced phase stays bounded in memory.
class Tracer {
 public:
  /// Total and self time (duration minus direct children) per span name.
  struct Totals {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  static constexpr std::size_t kMaxRecords = 100'000;

  void begin(const char* name);
  void end();
  void packet(std::uint64_t id, std::int64_t start_ns, std::int64_t end_ns) {
    if (packets_.size() < kMaxRecords) packets_.push_back({id, start_ns, end_ns});
  }

  Totals totals(const std::string& name) const;
  bool write_chrome(const std::string& path) const;

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* t, const char* name) : t_(t) {
      if (t_) t_->begin(name);
    }
    ~Scope() {
      if (t_) t_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t record;  // index into records_, -1 = not kept
  };
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  // index into records_, -1 = root or not kept
  };
  struct PacketSpan {
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  std::vector<Open> open_;
  std::map<const char*, Totals> totals_;  // keyed by the call site's literal
  std::vector<Record> records_;
  std::vector<PacketSpan> packets_;
};

/// Timed repetitions: untimed warm-up calls for at least kWarmupNs (and at
/// least one), then timed calls until `seconds` of wall clock have passed
/// and at least `min_reps` ran. The first repetition of a fresh process
/// measured 15-40% slow, and on an idle host the first second of
/// net_open_loop ran at a third of its capacity, which is why the warm-up
/// is timed. `rep(timed)` runs one repetition.
constexpr std::int64_t kWarmupNs = 1'000'000'000;
template <typename Rep>
void repeat(double seconds, Rep&& rep, std::size_t min_reps = 5) {
  const std::int64_t warm = now_ns() + kWarmupNs;
  do rep(false);
  while (now_ns() < warm);
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0; i < min_reps || now_ns() < deadline; ++i) rep(true);
}

}  // namespace mbench
