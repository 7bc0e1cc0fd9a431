#include "workload/runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>

#include "common/json_writer.h"
#include "crypto/kernels.h"
#include "sim/simulation.h"
#include "workload/jobgen.h"
#include "workload/tenantplan.h"

namespace mccp::workload {

double ClassReport::throughput_mbps() const {
  if (last_complete_cycle <= first_submit_cycle) return 0.0;
  return sim::throughput_mbps(payload_bytes * 8, last_complete_cycle - first_submit_cycle);
}

std::uint64_t ScenarioReport::total_offered() const {
  std::uint64_t n = 0;
  for (const ClassReport& c : classes) n += c.offered;
  return n;
}

std::uint64_t ScenarioReport::total_completed() const {
  std::uint64_t n = 0;
  for (const ClassReport& c : classes) n += c.completed;
  return n;
}

namespace {

/// Everything the runner tracks per channel class while the loop runs.
/// The generation half (rng, arrival process, pending instant) lives in
/// the shared ClassJobStream so the networked swarm offers the
/// bit-identical workload (workload/jobgen.h).
struct ClassState {
  const ClassSpec* spec = nullptr;
  std::size_t index = 0;
  std::unique_ptr<ClassJobStream> stream;
  std::vector<host::Channel> channels;
  std::size_t next_channel = 0;  // round-robin cursor within the class
  ClassReport report;
};

}  // namespace

ScenarioReport ScenarioRunner::run() {
  // parse_scenario enforces this for file-loaded specs, but programmatic
  // specs and CLI overrides reach here directly — window 0 with blocking
  // admission would never admit anything and spin forever.
  if (spec_.window == 0)
    throw std::invalid_argument("scenario " + spec_.name + ": window must be >= 1");
  if (spec_.classes.empty())
    throw std::invalid_argument("scenario " + spec_.name + ": needs at least one class");

  using WallClock = std::chrono::steady_clock;
  const auto wall_start = WallClock::now();

  // Scripted kills are wired into the engine itself (FaultyDevice wraps
  // the target at construction and fires on the device clock); remove/add
  // events and autoscaling are executed by this loop.
  host::EngineConfig engine_cfg = engine_config_from(spec_);
  for (const FaultEvent& ev : spec_.faults)
    if (ev.kind == FaultEvent::Kind::kKill)
      engine_cfg.faults.push_back({ev.device, ev.at_cycle});
  host::Engine engine(engine_cfg);

  // Tenant QoS and boundary-based autoscale both consume the admission
  // plan: every arrival's accept/throttle/shed decision (and the accepted
  // arrival schedule) precomputed in canonical order, so the outcomes are
  // pure functions of the scenario — identical across backends, thread
  // counts and transports. Cheap (empty) when neither feature is on.
  const AdmissionPlan plan = build_admission_plan(spec_);

  // One session key per class, broadcast fleet-wide so placement is free.
  for (std::size_t i = 0; i < spec_.classes.size(); ++i)
    engine.provision_key(static_cast<top::KeyId>(i + 1),
                         class_key(spec_.seed, i, spec_.classes[i].profile.key_len));

  std::vector<ClassState> states(spec_.classes.size());
  for (std::size_t i = 0; i < spec_.classes.size(); ++i) {
    ClassState& st = states[i];
    const ClassSpec& cs = spec_.classes[i];
    st.spec = &cs;
    st.index = i;
    st.stream = std::make_unique<ClassJobStream>(cs, spec_.seed, i, spec_.max_cycles);
    st.report.name = cs.profile.name;
    st.report.mode = mode_name(cs.profile.mode);
    st.report.priority = cs.profile.priority;
    st.report.channels = cs.channels;
    st.report.tenant = cs.tenant;
    for (std::size_t c = 0; c < cs.channels; ++c) {
      host::Channel ch = engine.open_channel(cs.profile.mode, static_cast<top::KeyId>(i + 1),
                                             cs.profile.tag_len, cs.profile.nonce_len,
                                             cs.tenant_id);
      if (!ch)
        throw std::runtime_error("scenario " + spec_.name + ": open_channel failed for class \"" +
                                 cs.profile.name + "\" (rr=" +
                                 std::to_string(engine.last_error()) + ")");
      st.channels.push_back(std::move(ch));
    }
  }

  std::size_t inflight = 0;
  std::size_t peak_inflight = 0;

  // Queue-depth sampling with on-the-fly compaction.
  std::vector<QueueSample> queue_depth;
  sim::Cycle sample_interval = spec_.queue_sample_cycles;
  sim::Cycle next_sample = 0;
  auto sample_up_to = [&](sim::Cycle cycle) {
    while (next_sample <= cycle) {
      queue_depth.push_back({next_sample, inflight});
      next_sample += sample_interval;
      if (queue_depth.size() >= 2048) {
        std::vector<QueueSample> kept;
        kept.reserve(queue_depth.size() / 2 + 1);
        for (std::size_t i = 0; i < queue_depth.size(); i += 2) kept.push_back(queue_depth[i]);
        queue_depth = std::move(kept);
        sample_interval *= 2;
      }
    }
  };

  auto on_done = [&](ClassState& st, const host::JobResult& r) {
    --inflight;
    ClassReport& rep = st.report;
    ++rep.completed;
    rep.busy_rejections += r.rejections;
    rep.last_complete_cycle = std::max(rep.last_complete_cycle, r.complete_cycle);
    if (!r.auth_ok) {
      ++rep.auth_failures;
      return;
    }
    rep.latency.record(r.complete_cycle - r.submit_cycle);
    if (r.accept_cycle > 0 && r.accept_cycle >= r.submit_cycle)
      rep.service.record(r.complete_cycle - r.accept_cycle);
  };

  // Completion accounting for a decrypt/verify round-trip job. Round-trips
  // live outside offered/completed (those count arrivals); a clean one
  // never fails auth, so failures land in the class's auth_failures.
  auto on_verify_done = [&](ClassState& st, const host::JobResult& r) {
    --inflight;
    ClassReport& rep = st.report;
    ++rep.decrypt_completed;
    rep.busy_rejections += r.rejections;
    rep.last_complete_cycle = std::max(rep.last_complete_cycle, r.complete_cycle);
    if (!r.auth_ok) ++rep.auth_failures;
  };

  const sim::Cycle start_cycle = engine.max_cycle();

  // ---- fleet elasticity & recovery machinery ----------------------------------
  std::vector<RecoveryEvent> recovery;
  std::size_t devices_failed = 0, devices_removed = 0, devices_added = 0;
  // Scripted kill cycle per device, for attributing detections.
  std::map<std::size_t, sim::Cycle> kill_cycle;
  for (const FaultEvent& ev : spec_.faults)
    if (ev.kind == FaultEvent::Kind::kKill) kill_cycle[ev.device] = ev.at_cycle;
  std::size_t next_fault = 0;  // cursor into the at_cycle-sorted remove/add events

  auto record_removal = [&](RecoveryEvent ev, const host::DrainReport& dr) {
    ev.detected_cycle = engine.max_cycle() - dr.drain_cycles;
    ev.drain_cycles = dr.drain_cycles;
    ev.completed_during_drain = dr.completed_during_drain;
    ev.migrated_channels = dr.migrated_channels;
    ev.resubmitted_jobs = dr.resubmitted_jobs;
    ev.lost_jobs = dr.lost_jobs;
    ++devices_removed;
    recovery.push_back(std::move(ev));
  };

  // A device whose stats() report `failed` is recovered immediately: remove it (the
  // drain short-circuits on a dead device), migrating its channels and
  // resubmitting its stranded jobs from their retained specs.
  auto recover_failures = [&] {
    for (std::size_t idx : engine.failed_devices()) {
      ++devices_failed;
      RecoveryEvent ev;
      ev.kind = "kill";
      ev.device = idx;
      if (auto it = kill_cycle.find(idx); it != kill_cycle.end()) ev.at_cycle = it->second;
      record_removal(std::move(ev), engine.remove_device(idx));
    }
  };

  auto run_scripted_events = [&](sim::Cycle now) {
    for (; next_fault < spec_.faults.size() && spec_.faults[next_fault].at_cycle <= now;
         ++next_fault) {
      const FaultEvent& f = spec_.faults[next_fault];
      if (f.kind == FaultEvent::Kind::kAdd) {
        RecoveryEvent ev;
        ev.kind = "add";
        ev.at_cycle = f.at_cycle;
        ev.detected_cycle = now;
        ev.device = engine.add_device(f.slots);
        ++devices_added;
        recovery.push_back(std::move(ev));
      } else if (f.kind == FaultEvent::Kind::kRemove) {
        // Already dead (a kill raced it) or already gone: nothing to do —
        // recover_failures() owns dead devices.
        if (!engine.device_alive(f.device) || engine.device_failed(f.device)) continue;
        RecoveryEvent ev;
        ev.kind = "remove";
        ev.device = f.device;
        ev.at_cycle = f.at_cycle;
        record_removal(std::move(ev), engine.remove_device(f.device));
      }
      // kKill: handled by the engine's FaultyDevice wrapper.
    }
  };

  // Boundary-based autoscaling: the scale-event sequence was planned
  // ahead of the run (tenantplan.h: the accepted arrival schedule pushed
  // through a modelled cost-model queue, evaluated at every
  // cooldown_cycles boundary), so this loop only *executes* decisions —
  // kind and at_cycle are pure functions of the scenario, bit-identical
  // across sim/fast backends, thread counts and transports. A decision
  // fires once every in-flight device clock has reached its boundary
  // (min_busy_cycle), i.e. when the fleet's engine clock passes it.
  std::size_t scale_cursor = 0;  // into plan.scale_decisions
  auto autoscale_check = [&] {
    const AutoscaleSpec& as = spec_.autoscale;
    if (!as.enabled) return;
    while (scale_cursor < plan.scale_decisions.size() &&
           plan.scale_decisions[scale_cursor].boundary <= engine.min_busy_cycle()) {
      const ScaleDecision& sd = plan.scale_decisions[scale_cursor++];
      if (sd.add) {
        RecoveryEvent ev;
        ev.kind = "autoscale_add";
        ev.at_cycle = sd.boundary;
        ev.detected_cycle = engine.max_cycle();
        ev.device = engine.add_device();
        ++devices_added;
        recovery.push_back(std::move(ev));
        continue;
      }
      // Drain out the highest-numbered live device (the most recently
      // added slot, all else equal) — but never the last holder of a
      // core image some open channel still needs: removing it would
      // force a migration the remaining fleet cannot serve. With no
      // eligible device the planned removal is skipped outright.
      if (engine.alive_devices() <= as.min_devices) continue;
      for (std::size_t i = engine.num_devices(); i-- > 0;) {
        if (!engine.device_alive(i) || engine.device_failed(i)) continue;
        if (engine.last_image_holder(i)) continue;
        RecoveryEvent ev;
        ev.kind = "autoscale_remove";
        ev.device = i;
        ev.at_cycle = sd.boundary;
        record_removal(std::move(ev), engine.remove_device(i));
        break;
      }
    }
  };

  // ---- the closed loop --------------------------------------------------------
  while (true) {
    const sim::Cycle now = engine.max_cycle();

    run_scripted_events(now);
    recover_failures();
    autoscale_check();

    // Admit every due arrival the window allows, batching per channel so
    // bursts hit the amortized submit path.
    for (ClassState& st : states) {
      ClassJobStream& stream = *st.stream;
      if (!stream.next_time() || *stream.next_time() > static_cast<double>(now)) continue;

      std::vector<std::vector<GeneratedJob>> batches(st.channels.size());
      std::vector<std::size_t> batch_order;
      std::size_t batched = 0;  // taken this pass, not yet visible in tenant inflight
      while (stream.next_time() && *stream.next_time() <= static_cast<double>(now)) {
        // Tenant QoS: the precomputed plan has already decided this
        // arrival; refusals consume the arrival (offered, never
        // submitted) without touching the window.
        const qos::Decision qd = plan.decision(st.index, stream.generated());
        if (qd != qos::Decision::kAccept) {
          stream.skip();
          ++st.report.offered;
          if (qd == qos::Decision::kThrottle)
            ++st.report.throttled;
          else
            ++st.report.shed;
          continue;
        }
        // Tenant in-flight quota: hold the arrival like a full window
        // until earlier packets on this tenant's channels complete.
        // (Tenanted scenarios are parse-forced to blocking admission.)
        if (st.spec->tenant_id != 0) {
          const qos::TenantConfig& tc = engine.tenants().config(st.spec->tenant_id);
          if (tc.quota != 0 &&
              engine.tenants().runtime(st.spec->tenant_id).inflight + batched >= tc.quota)
            break;
        }
        // Drop admission: the plan has already replayed the window against
        // the modelled completion schedule, so drop decisions (like tenant
        // refusals) are a pure function of the scenario. An arrival the
        // plan accepted is held at a momentarily full live window, never
        // re-dropped — counts must not depend on backend timing.
        if (plan.drop(st.index, stream.generated())) {
          stream.skip();
          ++st.report.offered;
          ++st.report.dropped;
          continue;
        }
        if (inflight >= spec_.window) break;  // hold the arrival
        std::size_t ch = st.next_channel;
        st.next_channel = (st.next_channel + 1) % st.channels.size();
        if (batches[ch].empty()) batch_order.push_back(ch);
        batches[ch].push_back(stream.take());
        ++batched;
        ++st.report.offered;
        ++inflight;  // reserve the window slot before the device sees it
      }
      peak_inflight = std::max(peak_inflight, inflight);

      for (std::size_t ch : batch_order) {
        ClassReport& rep = st.report;
        if (rep.submitted == 0)
          rep.first_submit_cycle = engine.device(st.channels[ch].device_index()).now();
        std::vector<host::JobSpec> specs;
        specs.reserve(batches[ch].size());
        for (GeneratedJob& b : batches[ch]) {
          rep.payload_bytes += b.job.payload.size();
          specs.push_back(std::move(b.job));
        }
        rep.submitted += specs.size();
        std::vector<host::Completion> jobs =
            engine.submit_batch(st.channels[ch], std::move(specs));
        for (std::size_t i = 0; i < jobs.size(); ++i) {
          GeneratedJob& b = batches[ch][i];
          if (!b.verify) {
            jobs[i].on_done([&st, &on_done](const host::JobResult& r) { on_done(st, r); });
            continue;
          }
          // Round-trip: once the sealed packet lands, feed it straight
          // back through the fleet as a decrypt/verify job on the same
          // channel. The resubmit happens inside the completion callback
          // (a documented re-entrant use of the engine), shares the
          // closed loop's in-flight budget, and must authenticate — any
          // failure is a real bug surfacing in auth_failures.
          jobs[i].on_done([&st, &on_done, &on_verify_done, &engine, &inflight, &peak_inflight,
                           ch, remac = st.spec->profile.mode == ChannelMode::kCbcMac,
                           priority = st.spec->profile.priority, iv = std::move(b.verify_iv),
                           aad = std::move(b.verify_aad), msg = std::move(b.verify_msg)](
                              const host::JobResult& r) {
            on_done(st, r);
            if (!r.auth_ok) return;  // nothing sealed to round-trip
            ++inflight;
            peak_inflight = std::max(peak_inflight, inflight);
            ++st.report.decrypt_submitted;
            engine
                .submit_decrypt(st.channels[ch], iv, aad, remac ? msg : r.payload, r.tag,
                                priority)
                .on_done(
                    [&st, &on_verify_done](const host::JobResult& r2) { on_verify_done(st, r2); });
          });
        }
      }
    }

    if (inflight == 0) {
      // Fleet drained: jump the quiet gap to the earliest pending arrival,
      // or finish when every class is exhausted.
      std::optional<double> next;
      for (ClassState& st : states) {
        const std::optional<double>& t = st.stream->next_time();
        if (t && (!next || *t < *next)) next = t;
      }
      if (!next) break;
      const sim::Cycle target = static_cast<sim::Cycle>(std::ceil(*next));
      sample_up_to(target);
      engine.advance_to(target);
    } else {
      engine.step();
      sample_up_to(engine.max_cycle());
    }
  }

  ScenarioReport report;
  report.scenario = spec_.name;
  report.backend = backend_name(spec_.backend);
  report.devices = spec_.devices;
  report.cores_per_device = spec_.cores_per_device;
  report.threads = engine.num_workers();
  report.rounds = engine.rounds();
  report.sharded_rounds = engine.sharded_rounds();
  report.window = spec_.window;
  report.makespan_cycles = engine.max_cycle() - start_cycle;
  report.wall_ms =
      std::chrono::duration<double, std::milli>(WallClock::now() - wall_start).count();
  report.peak_inflight = peak_inflight;
  const host::DeviceStats fleet = engine.device_stats();
  report.reconfigurations = fleet.reconfigurations;
  report.reconfig_stall_cycles = fleet.reconfig_stall_cycles;
  report.bitstream_store = store_spec_name(spec_.bitstream_store);
  report.recovery = std::move(recovery);
  report.devices_failed = devices_failed;
  report.devices_removed = devices_removed;
  report.devices_added = devices_added;
  for (const RecoveryEvent& ev : report.recovery) {
    report.migrated_channels += ev.migrated_channels;
    report.resubmitted_jobs += ev.resubmitted_jobs;
    report.lost_jobs += ev.lost_jobs;
  }
  report.final_devices = engine.alive_devices();
  for (ClassState& st : states) {
    st.report.image_reconfigurations = fleet.reconfigurations_to[reconfig::image_index(
        host::image_for_mode(st.spec->profile.mode))];
    report.classes.push_back(std::move(st.report));
  }
  report.queue_depth = std::move(queue_depth);
  report.queue_sample_interval = sample_interval;
  build_tenant_reports(spec_, report);
  return report;
}

void build_tenant_reports(const ScenarioSpec& spec, ScenarioReport& report) {
  report.tenants.clear();
  for (const qos::TenantConfig& cfg : spec.tenants) {
    TenantReport tr;
    tr.name = cfg.name;
    tr.slo = qos::slo_class_name(cfg.slo);
    tr.quota = cfg.quota;
    tr.weight = cfg.weight;
    tr.p99_slo_cycles = cfg.p99_slo_cycles;
    for (std::size_t i = 0; i < spec.classes.size() && i < report.classes.size(); ++i) {
      if (spec.classes[i].tenant != cfg.name) continue;
      const ClassReport& cr = report.classes[i];
      tr.accepted += cr.submitted;
      tr.completed += cr.completed;
      tr.throttled += cr.throttled;
      tr.shed += cr.shed;
      tr.latency.merge(cr.latency);
    }
    tr.p99_latency_cycles = tr.latency.quantile(0.99);
    tr.slo_ok = cfg.p99_slo_cycles == 0 || tr.p99_latency_cycles <= cfg.p99_slo_cycles;
    report.tenants.push_back(std::move(tr));
  }
}

namespace {

void histogram_json(JsonWriter& json, const std::string& key, const LogHistogram& h) {
  json.begin_object(key)
      .field("count", h.count())
      .field("min", h.min())
      .field("mean", h.mean())
      .field("p50", h.quantile(0.50))
      .field("p90", h.quantile(0.90))
      .field("p99", h.quantile(0.99))
      .field("p999", h.quantile(0.999))
      .field("max", h.max())
      .field("relative_error", h.relative_error())
      .end_object();
}

}  // namespace

std::string report_json(const ScenarioReport& report) {
  LogHistogram latency;
  std::uint64_t payload_bytes = 0;
  for (const ClassReport& c : report.classes) {
    latency.merge(c.latency);
    payload_bytes += c.payload_bytes;
  }
  const double modeled_mbps =
      report.makespan_cycles > 0 ? sim::throughput_mbps(payload_bytes * 8, report.makespan_cycles)
                                 : 0.0;

  JsonWriter json;
  json.begin_object()
      .field("bench", "scenario_runner")
      .field("scenario", report.scenario)
      .field("backend", report.backend)
      .field("kernel", crypto::active_kernel_name())
      .field("devices", report.devices)
      .field("cores_per_device", report.cores_per_device)
      .field("threads", report.threads)
      .field("rounds", report.rounds)
      .field("sharded_rounds", report.sharded_rounds)
      .field("window", report.window)
      .field("makespan_cycles", report.makespan_cycles)
      .field("makespan_ms_at_190mhz",
             static_cast<double>(report.makespan_cycles) / 190e3)
      .field("modeled_mbps", modeled_mbps)
      .field("wall_ms", report.wall_ms)
      .field("peak_inflight", report.peak_inflight)
      .field("reconfigurations", report.reconfigurations)
      .field("reconfig_stall_cycles", report.reconfig_stall_cycles)
      .field("bitstream_store", report.bitstream_store)
      .field("total_offered", report.total_offered())
      .field("total_completed", report.total_completed())
      .field("devices_failed", report.devices_failed)
      .field("devices_removed", report.devices_removed)
      .field("devices_added", report.devices_added)
      .field("migrated_channels", report.migrated_channels)
      .field("resubmitted_jobs", report.resubmitted_jobs)
      .field("lost_jobs", report.lost_jobs)
      .field("final_devices", report.final_devices);
  histogram_json(json, "latency_cycles", latency);
  json.begin_array("recovery");
  for (const RecoveryEvent& ev : report.recovery) {
    json.begin_object()
        .field("kind", ev.kind)
        .field("device", ev.device)
        .field("at_cycle", ev.at_cycle)
        .field("detected_cycle", ev.detected_cycle)
        .field("drain_cycles", ev.drain_cycles)
        .field("completed_during_drain", ev.completed_during_drain)
        .field("migrated_channels", ev.migrated_channels)
        .field("resubmitted_jobs", ev.resubmitted_jobs)
        .field("lost_jobs", ev.lost_jobs)
        .end_object();
  }
  json.end_array();
  json.begin_array("classes");
  for (const ClassReport& c : report.classes) {
    json.begin_object()
        .field("name", c.name)
        .field("mode", c.mode)
        .field("priority", c.priority)
        .field("channels", c.channels)
        .field("tenant", c.tenant)
        .field("offered", c.offered)
        .field("submitted", c.submitted)
        .field("completed", c.completed)
        .field("auth_failures", c.auth_failures)
        .field("dropped", c.dropped)
        .field("throttled", c.throttled)
        .field("shed", c.shed)
        .field("busy_rejections", c.busy_rejections)
        .field("payload_bytes", c.payload_bytes)
        .field("decrypt_submitted", c.decrypt_submitted)
        .field("decrypt_completed", c.decrypt_completed)
        .field("image_reconfigurations", c.image_reconfigurations)
        .field("throughput_mbps", c.throughput_mbps());
    histogram_json(json, "latency_cycles", c.latency);
    histogram_json(json, "service_cycles", c.service);
    json.end_object();
  }
  json.end_array();
  json.begin_array("tenants");
  for (const TenantReport& t : report.tenants) {
    json.begin_object()
        .field("name", t.name)
        .field("slo", t.slo)
        .field("quota", t.quota)
        .field("weight", t.weight)
        .field("accepted", t.accepted)
        .field("completed", t.completed)
        .field("throttled", t.throttled)
        .field("shed", t.shed)
        .field("p99_latency_cycles", t.p99_latency_cycles)
        .field("p99_slo_cycles", t.p99_slo_cycles)
        .field("slo_ok", t.slo_ok);
    histogram_json(json, "latency_cycles", t.latency);
    json.end_object();
  }
  json.end_array();
  json.field("queue_sample_interval", report.queue_sample_interval);
  json.begin_array("queue_depth");
  for (const QueueSample& s : report.queue_depth)
    json.begin_object().field("cycle", s.cycle).field("inflight", s.inflight).end_object();
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace mccp::workload
