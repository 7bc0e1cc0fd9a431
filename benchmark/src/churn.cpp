// fast_churn_faults: a shipped-format scenario through workload::
// ScenarioRunner in process — tenants with rate limits and quotas, an
// untenanted class with decrypt round-trips, automatic AES <-> Whirlpool
// swaps, a scripted device kill and a hot-add, on two engine worker
// threads. It exercises the admission planner, QoS, reconfiguration,
// fault recovery and pooled stepping: the slowest fast-backend path.
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "loops.h"
#include "workload/jobgen.h"
#include "workload/runner.h"
#include "workload/tenantplan.h"
#include "workloads.h"

namespace mbench {

using namespace mccp;

namespace {

// Length of the per-layer phase that --trace adds.
constexpr double kLayerSeconds = 3.0;

/// A runner ready to run, and what getting it ready cost.
struct SetUp {
  std::unique_ptr<workload::ScenarioRunner> runner;
  double setup_s = 0;
  double plan_s = 0;
};

/// Set-up as a user of the runner meets it: the scenario file parsed and
/// the runner built, plus the admission plan that ScenarioRunner::run
/// computes before its loop. The fleet run() builds inside cannot be timed
/// from outside, so it counts into pkts_per_s instead.
SetUp set_up(const std::string& path, std::uint64_t seed) {
  SetUp s;
  const std::int64_t t0 = now_ns();
  workload::ScenarioSpec spec = workload::load_scenario(path);
  spec.seed = seed;
  s.runner = std::make_unique<workload::ScenarioRunner>(std::move(spec));
  const std::int64_t t1 = now_ns();
  const workload::AdmissionPlan plan = workload::build_admission_plan(s.runner->spec());
  const std::int64_t t2 = now_ns();
  s.plan_s = static_cast<double>(t2 - t1) / 1e9;
  s.setup_s = static_cast<double>(t2 - t0) / 1e9;
  return s;
}

/// What the regenerated stream holds for one class, to set against the
/// runner's report of it.
struct ClassTally {
  std::uint64_t seals = 0;
  std::uint64_t opens = 0;
  std::uint64_t seal_bytes = 0;
};

/// The runner's exact job stream, regenerated with the public generator:
/// class streams merged in arrival order (ties by class index), refusals
/// and drops consumed as the runner consumes them, each class's channels
/// used round-robin, and every picked seal followed by its open. `tally`
/// gets one entry per class.
Workset regenerate(const workload::ScenarioSpec& spec, std::vector<ClassTally>& tally) {
  tally.assign(spec.classes.size(), {});
  Workset ws;
  std::vector<std::uint32_t> first_channel;
  for (std::size_t i = 0; i < spec.classes.size(); ++i) {
    const workload::ChannelClass& p = spec.classes[i].profile;
    const auto key = static_cast<top::KeyId>(i + 1);
    ws.keys.push_back({key, workload::class_key(spec.seed, i, p.key_len)});
    first_channel.push_back(static_cast<std::uint32_t>(ws.channels.size()));
    for (std::size_t c = 0; c < spec.classes[i].channels; ++c)
      ws.channels.push_back({p.mode, key, p.tag_len, p.nonce_len});
  }
  const Reference ref(ws);
  const workload::AdmissionPlan plan = workload::build_admission_plan(spec);
  std::vector<workload::ClassJobStream> streams;
  std::vector<std::size_t> cursor(spec.classes.size(), 0);
  for (std::size_t i = 0; i < spec.classes.size(); ++i)
    streams.emplace_back(spec.classes[i], spec.seed, i, spec.max_cycles);
  Rng unused(0);
  for (;;) {
    std::size_t cls = streams.size();
    for (std::size_t i = 0; i < streams.size(); ++i)
      if (streams[i].next_time() &&
          (cls == streams.size() || *streams[i].next_time() < *streams[cls].next_time()))
        cls = i;
    if (cls == streams.size()) break;
    workload::ClassJobStream& st = streams[cls];
    if (plan.decision(cls, st.generated()) != qos::Decision::kAccept ||
        plan.drop(cls, st.generated())) {
      st.skip();
      continue;
    }
    workload::GeneratedJob g = st.take();
    Job j;
    j.channel = first_channel[cls] + static_cast<std::uint32_t>(cursor[cls]);
    cursor[cls] = (cursor[cls] + 1) % spec.classes[cls].channels;
    j.priority = g.job.priority;
    j.iv = std::move(g.job.iv_or_nonce);
    j.aad = std::move(g.job.aad);
    j.payload = std::move(g.job.payload);
    expect(ref, j);
    ++tally[cls].seals;
    tally[cls].seal_bytes += j.payload.size();
    ws.jobs.push_back(std::move(j));
    if (g.verify) {
      Job open = open_of(ws, ws.jobs.back(), false, unused);
      expect(ref, open);
      ++tally[cls].opens;
      ws.jobs.push_back(std::move(open));
    }
  }
  return ws;
}

struct RunFigures {
  std::uint64_t jobs = 0;  // packets through the fleet: arrivals + round-trips
  std::uint64_t payload_bytes = 0;
  sim::Cycle makespan = 0;
  std::uint64_t p99_cycles = 0;
  std::map<std::string, std::uint64_t> counts;
};

RunFigures figures(const workload::ScenarioReport& r) {
  RunFigures f;
  workload::LogHistogram latency;
  for (const workload::ClassReport& c : r.classes) {
    f.jobs += c.completed + c.decrypt_completed;
    f.payload_bytes += c.payload_bytes;
    latency.merge(c.latency);
    const std::string k = "class." + c.name + ".";
    f.counts[k + "offered"] = c.offered;
    f.counts[k + "completed"] = c.completed;
    f.counts[k + "throttled"] = c.throttled;
    f.counts[k + "shed"] = c.shed;
    f.counts[k + "dropped"] = c.dropped;
    f.counts[k + "decrypt_completed"] = c.decrypt_completed;
    f.counts[k + "auth_failures"] = c.auth_failures;
    f.counts[k + "busy_rejections"] = c.busy_rejections;
  }
  f.makespan = r.makespan_cycles;
  f.p99_cycles = latency.quantile(0.99);
  f.counts["modeled_makespan_cycles"] = r.makespan_cycles;
  f.counts["modeled_p99_cycles"] = f.p99_cycles;
  f.counts["reconfigurations"] = r.reconfigurations;
  f.counts["reconfig_stall_cycles"] = r.reconfig_stall_cycles;
  f.counts["devices_failed"] = r.devices_failed;
  f.counts["devices_added"] = r.devices_added;
  f.counts["resubmitted_jobs"] = r.resubmitted_jobs;
  f.counts["lost_jobs"] = r.lost_jobs;
  return f;
}

void check_report(const workload::ScenarioReport& r, Results& res) {
  for (const workload::ClassReport& c : r.classes) {
    res.check(c.completed + c.throttled + c.shed + c.dropped == c.offered,
              "class " + c.name + ": completed + planned refusals == offered");
    res.check(c.auth_failures == 0, "class " + c.name + ": no authentication failures");
    res.check(c.decrypt_completed == c.decrypt_submitted,
              "class " + c.name + ": every round-trip completed");
  }
  res.check(r.lost_jobs == 0, "no job lost to the device kill");
  res.check(r.devices_failed == 1 && r.devices_added == 1, "scripted kill and hot-add ran");
  res.check(r.reconfigurations >= 50, "at least 50 AES <-> Whirlpool swaps");
}

}  // namespace

void run_fast_churn_faults(const Options& o, Results& res, Tracer& tracer) {
  const std::string path = o.workloads_dir + "/fast_churn_faults.json";
  std::vector<double> setup_s, plan_s, pps;
  std::optional<workload::ScenarioReport> first_report;
  std::optional<RunFigures> first;
  std::int64_t faults = 0;
  std::uint64_t timed_jobs = 0;
  repeat(o.seconds, [&](bool timed) {
    const SetUp s = set_up(path, o.seed);
    const Usage before = usage_now();
    const std::int64_t t0 = now_ns();
    workload::ScenarioReport report = s.runner->run();
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    const Usage after = usage_now();
    check_report(report, res);
    RunFigures f = figures(report);
    if (!first) {
      first = f;
      first_report = std::move(report);
    } else {
      res.check(f.counts == first->counts, "modelled figures and counts repeat across repetitions");
    }
    if (!timed) return;
    setup_s.push_back(s.setup_s);
    plan_s.push_back(s.plan_s);
    pps.push_back(static_cast<double>(f.jobs) / secs);
    faults += after.minor_faults - before.minor_faults;
    timed_jobs += f.jobs;
  });

  res.metric("setup_s", median(setup_s), "s", "e2e", setup_s.size());
  res.metric("pkts_per_s", fastest_rate(pps), "1/s", "e2e", pps.size());
  res.series("setup_s", setup_s);
  res.series("pkts_per_s", pps);
  res.metric("modeled_mbps", sim::throughput_mbps(first->payload_bytes * 8, first->makespan),
             "Mbps", "e2e", 1);
  res.metric("modeled_p99_cycles", static_cast<double>(first->p99_cycles), "cycles", "e2e",
             first->jobs);
  res.metric("peak_rss_mb", usage_now().max_rss_mb, "MB", "e2e");
  for (const auto& [k, v] : first->counts) res.count(k, v);
  res.count("packets_per_rep", first->jobs);
  if (!o.trace) return;

  // Per-layer phase: an untraced and a traced run, the bare-device replay
  // and a crypto pass take turns, so a shared host's slow spells fall on
  // all of them alike; each figure is the fastest of its kind.
  const SetUp layer = set_up(path, o.seed);
  workload::ScenarioRunner& runner = *layer.runner;
  const workload::ScenarioSpec& spec = runner.spec();
  std::vector<ClassTally> tally;
  const Workset ws = regenerate(spec, tally);
  for (std::size_t i = 0; i < tally.size(); ++i) {
    const workload::ClassReport& c = first_report->classes.at(i);
    res.check(tally[i].seals == c.submitted && tally[i].opens == c.decrypt_submitted &&
                  tally[i].seal_bytes == c.payload_bytes,
              "regenerated stream matches the runner's seals, round-trips and payload bytes of "
              "class " + c.name);
  }
  const host::EngineConfig cfg = workload::engine_config_from(spec);
  std::vector<std::size_t> placement;
  for (std::size_t c = 0; c < ws.channels.size(); ++c) placement.push_back(c % cfg.num_devices);
  CryptoReplay crypto(ws, res);
  // Packets per second of one run, and CPU nanoseconds per packet summed
  // over the runner's thread and the engine's two workers.
  auto run_once = [&](Tracer* t) {
    Tracer::Scope span(t, "runner.run");
    const std::int64_t t0 = now_ns(), c0 = cpu_ns();
    const workload::ScenarioReport report = runner.run();
    const double secs = static_cast<double>(now_ns() - t0) / 1e9;
    const double jobs = static_cast<double>(figures(report).jobs);
    check_report(report, res);
    return std::pair(jobs / secs, static_cast<double>(cpu_ns() - c0) / jobs);
  };
  std::vector<double> plain_pps, plain_cpu_ns, traced_pps, device_s;
  repeat(kLayerSeconds, [&](bool timed) {
    Tracer* t = timed ? &tracer : nullptr;
    const auto [plain, plain_cpu] = run_once(nullptr);
    const double traced = run_once(t).first;
    {
      Tracer::Scope span(t, "replay.device");
      DeviceFleet d = open_devices(cfg, ws, placement);
      const double s = device_loop(d, ws, spec.window);
      if (timed) device_s.push_back(s);
    }
    {
      Tracer::Scope span(t, "replay.crypto");
      crypto.pass();
    }
    if (!timed) return;
    plain_pps.push_back(plain);
    plain_cpu_ns.push_back(plain_cpu);
    traced_pps.push_back(traced);
  }, 3);

  const double jobs = static_cast<double>(first->jobs);
  const double host_ns = 1e9 / fastest_rate(plain_pps);
  res.metric("bench.trace_overhead", 1 - fastest_rate(traced_pps) / fastest_rate(plain_pps),
             "ratio", "bench");
  res.metric("workload.plan_ms", fastest_time(plan_s) * 1e3, "ms", "workload");
  res.metric("workload.runner_ns_per_pkt", 1e9 / fastest_rate(traced_pps), "ns", "workload");
  std::uint64_t throttled = 0, shed = 0, rejections = 0;
  for (const auto& [k, v] : first->counts) {
    if (k.ends_with(".throttled")) throttled += v;
    if (k.ends_with(".shed")) shed += v;
    if (k.ends_with(".busy_rejections")) rejections += v;
  }
  res.metric("qos.throttled", static_cast<double>(throttled), "count", "qos");
  res.metric("qos.shed", static_cast<double>(shed), "count", "qos");
  res.metric("host.busy_rejections_per_pkt", static_cast<double>(rejections) / jobs, "1/pkt",
             "host");
  for (const char* k :
       {"reconfigurations", "reconfig_stall_cycles", "resubmitted_jobs", "lost_jobs"})
    res.metric(std::string("host.") + k, static_cast<double>(first->counts.at(k)), "count",
               "host");
  res.metric("host.minor_faults_per_kpkt",
             static_cast<double>(faults) * 1000.0 / static_cast<double>(timed_jobs), "faults/kpkt",
             "host");
  // The workers step devices in parallel, so the Engine's and runner's
  // share is taken from CPU time, not wall time.
  const double device_ns = fastest_time(device_s) * 1e9 / static_cast<double>(ws.jobs.size());
  const double cpu_ns_per_pkt = fastest_time(plain_cpu_ns);
  res.metric("host.ns_per_pkt", host_ns, "ns", "host");
  res.metric("host.cpu_ns_per_pkt", cpu_ns_per_pkt, "ns", "host");
  res.metric("host.device_ns_per_pkt", device_ns, "ns", "host");
  res.metric("host.engine_ns_per_pkt", cpu_ns_per_pkt - device_ns, "ns", "host");
  crypto.report(res, host_ns);
}

}  // namespace mbench
