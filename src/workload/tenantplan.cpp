#include "workload/tenantplan.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "crypto/whirlpool.h"
#include "host/cost_model.h"
#include "workload/jobgen.h"

namespace mccp::workload {

namespace {

/// Modelled single-lane service time of one accepted packet: the cost
/// model's compute occupancy plus the control-protocol accept/retire
/// overhead, mirroring FastDevice::start_job's block accounting. Split
/// CCM and key-cache effects are deliberately ignored — this feeds the
/// autoscale demand model, which needs a deterministic, backend-free
/// estimate, not an exact completion predictor.
sim::Cycle modeled_service_cycles(const ChannelClass& prof, const JobShape& job) {
  const std::size_t aad_blocks = host::header_blocks(prof.mode, job.aad_len);
  std::size_t payload_blocks = (job.payload_len + 15) / 16;
  if (prof.mode == ChannelMode::kWhirlpool)
    payload_blocks = crypto::whirlpool_padded_len(job.payload_len) / 64;
  const crypto::AesKeySize ks = prof.key_len == 32   ? crypto::AesKeySize::k256
                                : prof.key_len == 24 ? crypto::AesKeySize::k192
                                                     : crypto::AesKeySize::k128;
  const host::ComputeCost cost =
      host::packet_compute_cycles(prof.mode, ks, aad_blocks, payload_blocks, /*split_ccm=*/false);
  return host::accept_control_cycles(-1) + std::max(cost.lane0, cost.lane1) +
         host::retire_control_cycles(-1);
}

/// Plan the boundary-based scale-event sequence: replay the accepted
/// arrival schedule through a modelled FCFS queue over
/// `cores_per_device`-wide devices, and at every `cooldown_cycles`
/// boundary compare the modelled backlog (arrivals due by the boundary
/// minus modelled completions by it) against the thresholds. The model
/// grows and shrinks with its own decisions, so the trace is
/// self-consistent — and being a pure function of the spec, identical
/// for every backend, thread count and transport.
std::vector<ScaleDecision> plan_scale_decisions(const ScenarioSpec& spec,
                                                const std::vector<sim::Cycle>& arrivals,
                                                const std::vector<sim::Cycle>& service) {
  const AutoscaleSpec& as = spec.autoscale;
  std::vector<ScaleDecision> out;
  std::size_t devices = spec.devices;
  // Per-core modelled busy horizon; FCFS onto the earliest-free core.
  std::vector<sim::Cycle> core_free(devices * spec.cores_per_device, 0);
  std::vector<sim::Cycle> done;  // modelled completion stamps, heapified
  std::uint64_t completed = 0;
  std::size_t cursor = 0;

  const sim::Cycle last_arrival = arrivals.empty() ? 0 : arrivals.back();
  for (sim::Cycle boundary = as.cooldown_cycles; boundary <= last_arrival;
       boundary += as.cooldown_cycles) {
    // Feed the model every arrival due by this boundary.
    while (cursor < arrivals.size() && arrivals[cursor] <= boundary) {
      auto slot = std::min_element(core_free.begin(), core_free.end());
      const sim::Cycle start = std::max(*slot, arrivals[cursor]);
      *slot = start + service[cursor];
      done.push_back(*slot);
      std::push_heap(done.begin(), done.end(), std::greater<>{});
      ++cursor;
    }
    while (!done.empty() && done.front() <= boundary) {
      std::pop_heap(done.begin(), done.end(), std::greater<>{});
      done.pop_back();
      ++completed;
    }
    const std::uint64_t backlog = cursor - completed;
    if (backlog >= as.high_inflight && devices < as.max_devices) {
      ++devices;
      core_free.insert(core_free.end(), spec.cores_per_device, boundary);
      out.push_back({boundary, /*add=*/true});
    } else if (backlog <= as.low_inflight && devices > as.min_devices) {
      // Drain the idlest cores out of the model (the runner picks the
      // actual device slot, preferring personality-redundant ones).
      for (std::size_t c = 0; c < spec.cores_per_device && !core_free.empty(); ++c)
        core_free.erase(std::min_element(core_free.begin(), core_free.end()));
      --devices;
      out.push_back({boundary, /*add=*/false});
    }
  }
  return out;
}

}  // namespace

AdmissionPlan build_admission_plan(const ScenarioSpec& spec) {
  AdmissionPlan plan;
  plan.enforced = !spec.tenants.empty();
  plan.drop_planned = spec.admission == Admission::kDrop;
  const bool model_queue = spec.autoscale.enabled || plan.drop_planned;
  if (!plan.enforced && !model_queue) return plan;

  qos::AdmissionController controller(spec.tenants, spec.capacity);
  std::vector<std::unique_ptr<ClassJobStream>> streams;
  streams.reserve(spec.classes.size());
  for (std::size_t i = 0; i < spec.classes.size(); ++i)
    streams.push_back(
        std::make_unique<ClassJobStream>(spec.classes[i], spec.seed, i, spec.max_cycles));
  plan.decisions.resize(spec.classes.size());
  if (plan.drop_planned) plan.drops.resize(spec.classes.size());
  std::vector<sim::Cycle> service;  // per accepted arrival, modelled

  // Modelled window for drop admission: accepted arrivals occupy a slot
  // until their modelled completion, and an arrival finding `window`
  // slots occupied is dropped. The model uses the same FCFS multi-server
  // queue as autoscale planning, over the boot-time fleet.
  std::vector<sim::Cycle> win_core_free(spec.devices * spec.cores_per_device, 0);
  std::vector<sim::Cycle> win_done;  // modelled completion stamps, heapified
  std::uint64_t win_inflight = 0;

  // Merge the per-class streams by (arrival instant, class index) — the
  // canonical global arrival order every transport replays.
  for (;;) {
    std::size_t pick = spec.classes.size();
    double best = 0.0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const auto& t = streams[i]->next_time();
      if (!t.has_value()) continue;
      if (pick == spec.classes.size() || *t < best) {
        pick = i;
        best = *t;
      }
    }
    if (pick == spec.classes.size()) break;

    const auto cycle = static_cast<sim::Cycle>(std::ceil(best));
    const qos::Decision d = controller.decide(spec.classes[pick].tenant_id, cycle);
    if (plan.enforced) plan.decisions[pick].push_back(d);
    if (d != qos::Decision::kAccept) {
      streams[pick]->skip();
      continue;
    }
    if (plan.drop_planned) {
      while (!win_done.empty() && win_done.front() <= cycle) {
        std::pop_heap(win_done.begin(), win_done.end(), std::greater<>{});
        win_done.pop_back();
        --win_inflight;
      }
      if (win_inflight >= spec.window) {
        plan.drops[pick].push_back(true);
        streams[pick]->skip();
        continue;
      }
      plan.drops[pick].push_back(false);
    }
    // Mirror the live run's rng consumption; the job's sizes also feed
    // the modelled service queue.
    const JobShape job = streams[pick]->take_shape();
    plan.accepted_cycles.push_back(cycle);
    if (model_queue) {
      const sim::Cycle svc = modeled_service_cycles(spec.classes[pick].profile, job);
      service.push_back(svc);
      if (plan.drop_planned) {
        auto slot = std::min_element(win_core_free.begin(), win_core_free.end());
        *slot = std::max(*slot, cycle) + svc;
        win_done.push_back(*slot);
        std::push_heap(win_done.begin(), win_done.end(), std::greater<>{});
        ++win_inflight;
      }
    }
  }

  if (spec.autoscale.enabled)
    plan.scale_decisions = plan_scale_decisions(spec, plan.accepted_cycles, service);

  plan.tenant_counts.reserve(spec.tenants.size());
  for (std::size_t t = 0; t < spec.tenants.size(); ++t)
    plan.tenant_counts.push_back(controller.counts(static_cast<std::uint16_t>(t + 1)));
  return plan;
}

}  // namespace mccp::workload
