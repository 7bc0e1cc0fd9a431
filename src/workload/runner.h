// ScenarioRunner: closed-loop traffic generation against the host driver.
//
// Takes a ScenarioSpec, instantiates the fleet (`host::Engine` on either
// backend), opens the per-class channels, and paces packet submissions
// against the *engine clock*: each class's arrival process emits arrival
// instants; an arrival is admitted when the clock reaches it and the
// bounded in-flight window has room (blocking the arrival or dropping it,
// per the spec's admission policy). Burst arrivals go through
// `Engine::submit_batch`; quiet gaps are skipped with
// `Engine::advance_to`. Per class, the runner aggregates completion
// latencies into log-bucketed histograms (workload/histogram.h) and counts
// offered/submitted/completed/dropped packets, device busy-rejections and
// auth failures; fleet-wide it samples its own admission-window occupancy
// (submitted-not-yet-completed packets) over time.
//
// Decrypt/verify traffic: a class with `decrypt_fraction` > 0 has that
// fraction of its sealed packets (picked from the class rng in arrival
// order) resubmitted through the fleet as open jobs from inside the seal's
// completion callback — exercising the verify cores and auth-failure
// accounting under load. Round-trips share the closed loop's in-flight
// budget and are reported per class (decrypt_submitted/_completed).
//
// Partial reconfiguration: the spec's slot layout / bitstream-store /
// auto-reconfig knobs flow to the fleet, and the report carries the swap
// count + stall cycles the run incurred (fleet-wide and per class image).
//
// Threading: `spec.threads` forwards to `EngineConfig::num_workers`. The
// pacing loop itself is unchanged — arrivals are admitted against the
// engine clock and completions fire on this thread between steps — so a
// threaded run resolves the bit-identical workload to a serial one; only
// wall_ms differs.
//
// Determinism: all randomness (arrival gaps, packet sizes and contents,
// IVs) derives from per-class `mccp::Rng` streams seeded from the
// scenario seed, and every packet's rng draws happen in arrival order —
// so the offered workload is bit-identical across backends and runs, and
// with blocking admission the per-class completion counts are too
// (tests/workload/scenario_test.cpp pins this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/clocked.h"
#include "workload/histogram.h"
#include "workload/spec.h"

namespace mccp::workload {

struct ClassReport {
  std::string name;
  std::string mode;
  unsigned priority = 0;
  std::size_t channels = 0;

  /// Owning tenant's name ("" = untenanted class).
  std::string tenant;

  std::uint64_t offered = 0;    // arrivals generated (submitted + dropped + refused)
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t auth_failures = 0;
  std::uint64_t dropped = 0;           // admission rejections (window full, drop policy)
  std::uint64_t busy_rejections = 0;   // device busy-error retries across jobs
  std::uint64_t payload_bytes = 0;     // submitted payload
  /// Tenant QoS refusals (workload/tenantplan.h): arrivals the admission
  /// plan refused because the tenant exceeded its contracted rate
  /// (throttled) or because fleet capacity forced SLO-ordered load
  /// shedding (shed). Refused arrivals count as offered, never submitted.
  std::uint64_t throttled = 0;
  std::uint64_t shed = 0;

  /// Decrypt/verify round-trips (ClassSpec::decrypt_fraction): sealed
  /// packets resubmitted through the fleet as open jobs and how many
  /// resolved. A clean round-trip never fails auth; failures land in
  /// auth_failures above.
  std::uint64_t decrypt_submitted = 0;
  std::uint64_t decrypt_completed = 0;
  /// Fleet swaps that landed this class's core image (paper SVII.B) —
  /// classes sharing an image (all AES modes) report the same figure.
  std::uint64_t image_reconfigurations = 0;

  sim::Cycle first_submit_cycle = 0;
  sim::Cycle last_complete_cycle = 0;

  LogHistogram latency{};  // submit -> complete, cycles
  LogHistogram service{};  // accept -> complete, cycles

  /// Goodput over the class's active window, Mbps at 190 MHz.
  double throughput_mbps() const;
};

/// One point of the runner's admission-window occupancy over time: how
/// many submitted packets had not yet completed when the *engine clock*
/// passed `cycle`. This is the closed loop's own in-flight counter (the
/// thing the `window` bound applies to) sampled at loop granularity — not
/// the devices' internal queue depth, which `Device::stats().inflight`
/// reports per device.
struct QueueSample {
  sim::Cycle cycle = 0;
  std::size_t inflight = 0;
};

/// One fleet-membership change the run performed and what it cost — the
/// recovery-time metrics for fault-injection / elasticity scenarios
/// (host::DrainReport surfaced into the report JSON).
struct RecoveryEvent {
  std::string kind;  // "kill" | "remove" | "add" | "autoscale_add" | "autoscale_remove"
  std::size_t device = 0;
  /// Scripted instant, or for autoscale decisions the engine-clock
  /// boundary the decision evaluated — the cross-backend-pinned half of
  /// the trace (detected_cycle is when this loop happened to act).
  sim::Cycle at_cycle = 0;
  sim::Cycle detected_cycle = 0;  // engine clock when the runner acted
  /// Time-to-drain: engine-clock cycles from detection to the device's
  /// in-flight work being resolved (completed or resubmitted).
  sim::Cycle drain_cycles = 0;
  std::uint64_t completed_during_drain = 0;
  std::size_t migrated_channels = 0;
  std::uint64_t resubmitted_jobs = 0;
  std::uint64_t lost_jobs = 0;  // must stay 0: losing work is a bug
};

/// Per-tenant QoS accounting aggregated over the tenant's classes:
/// planner decisions (accepted/throttled/shed), completions, the merged
/// latency distribution, and whether the tenant's p99 SLO held.
struct TenantReport {
  std::string name;
  std::string slo;  // "voip" | "video" | "bulk"
  std::size_t quota = 0;
  std::uint32_t weight = 1;

  std::uint64_t accepted = 0;  // plan-accepted arrivals (== submitted)
  std::uint64_t completed = 0;
  std::uint64_t throttled = 0;
  std::uint64_t shed = 0;

  LogHistogram latency{};
  std::uint64_t p99_latency_cycles = 0;
  sim::Cycle p99_slo_cycles = 0;  // 0 = no SLO declared
  bool slo_ok = true;             // p99 <= p99_slo_cycles (or no SLO)
};

struct ScenarioReport {
  std::string scenario;
  std::string backend;
  std::size_t devices = 0;
  std::size_t cores_per_device = 0;
  std::size_t threads = 0;  // engine pool shards (0 or 1 = serial stepping)
  /// Engine stepping rounds, and how many the pool sharded across threads
  /// (host-timing dependent, unlike every modelled figure).
  std::uint64_t rounds = 0;
  std::uint64_t sharded_rounds = 0;
  std::size_t window = 0;

  sim::Cycle makespan_cycles = 0;  // first submit to fleet drain (furthest clock)
  double wall_ms = 0.0;            // host wall-clock for the run() call
  std::size_t peak_inflight = 0;

  /// Fleet-wide partial-reconfiguration accounting (paper SVII.B): swaps
  /// begun across all devices and the slot-cycles they spent unavailable.
  std::uint64_t reconfigurations = 0;
  std::uint64_t reconfig_stall_cycles = 0;
  std::string bitstream_store;  // where on-demand swaps fetched from

  /// Fleet elasticity & recovery accounting: every membership change the
  /// run performed, plus the totals the acceptance gates pin (lost_jobs
  /// must be 0 for a clean run).
  std::vector<RecoveryEvent> recovery;
  std::size_t devices_failed = 0;
  std::size_t devices_removed = 0;  // kills + scripted removes + autoscale-downs
  std::size_t devices_added = 0;
  std::size_t migrated_channels = 0;
  std::uint64_t resubmitted_jobs = 0;
  std::uint64_t lost_jobs = 0;
  std::size_t final_devices = 0;  // live devices when the run finished

  std::vector<ClassReport> classes;
  /// Per-tenant QoS accounting (empty when the scenario has no tenants).
  std::vector<TenantReport> tenants;
  /// Admission-window occupancy over time (see QueueSample); the sampling
  /// interval doubles (and the series compacts) whenever it outgrows
  /// ~2048 points.
  std::vector<QueueSample> queue_depth;
  sim::Cycle queue_sample_interval = 0;  // final interval after compaction

  std::uint64_t total_offered() const;
  std::uint64_t total_completed() const;
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioSpec spec) : spec_(std::move(spec)) {}

  /// Execute the scenario to completion (all offered packets resolved) and
  /// return the collected metrics. Callable repeatedly; each call is an
  /// independent, identically seeded run.
  ScenarioReport run();

  const ScenarioSpec& spec() const { return spec_; }

 private:
  ScenarioSpec spec_;
};

/// Fill `report.tenants` from the spec's tenant declarations and the
/// per-class counters already in `report.classes` (class order must match
/// the spec). Shared by the in-process runner and the networked swarm so
/// both transports account tenants identically.
void build_tenant_reports(const ScenarioSpec& spec, ScenarioReport& report);

/// The report as a `BENCH_*.json`-style artifact (common/json_writer.h).
/// Besides the per-class and per-tenant sections it carries the run's
/// headline figures: modeled aggregate throughput at 190 MHz
/// ("modeled_mbps") and the all-classes latency distribution
/// ("latency_cycles").
std::string report_json(const ScenarioReport& report);

}  // namespace mccp::workload
