// Canonical-order tenant admission planning.
//
// Tenant accept/throttle/shed decisions must be a pure function of the
// scenario — not of loop observation instants, completion timing, or
// transport — or per-tenant counts could never be pinned bit-identical
// across sim/fast, serial/threaded, and inproc/net-swarm runs. This
// builder regenerates every class's arrival stream up front, merges them
// in canonical global order (arrival instant, then class index), and runs
// each arrival through the deterministic qos::AdmissionController at its
// engine-clock boundary (the ceiling of the arrival instant).
//
// Crucially the builder consumes the streams exactly like the live run
// will: take_shape() for accepted arrivals (drawing the packet's rng values
// exactly as take() does, without building its bytes), skip() for
// throttled/shed ones (drawing only the next instant). Since a
// stream's later arrival instants depend on which earlier slots drew
// payloads, mirroring consumption is what keeps the plan's arrival
// sequence equal to the live run's.
//
// Executors (ScenarioRunner, net::SwarmRunner) then just look up
// plan.decision(class, arrival_index) — no QoS state at run time.
#pragma once

#include <cstdint>
#include <vector>

#include "qos/admission.h"
#include "workload/spec.h"

namespace mccp::workload {

/// One boundary-based autoscale decision, planned ahead of the run: at
/// engine-clock `boundary`, grow (`add`) or drain (`!add`) the fleet by
/// one device. The sequence is a pure function of the scenario — the
/// accepted arrival schedule pushed through a modelled FCFS multi-server
/// queue whose service times come from the calibrated cost model
/// (host/cost_model.h) — so it is bit-identical across sim/fast backends,
/// serial/threaded engines, and transports.
struct ScaleDecision {
  sim::Cycle boundary = 0;
  bool add = false;
};

struct AdmissionPlan {
  /// decisions[class_index][arrival_index]; empty when !enforced.
  std::vector<std::vector<qos::Decision>> decisions;
  /// Engine-clock instants (ceil of the arrival time) of every *accepted*
  /// arrival, merged across classes in canonical order — the deterministic
  /// demand schedule boundary-based autoscale consumes.
  std::vector<sim::Cycle> accepted_cycles;
  /// Planned scale events in boundary order; empty unless the scenario
  /// enables autoscale. The runner executes these verbatim.
  std::vector<ScaleDecision> scale_decisions;
  /// Planner decision totals per tenant (index = tenant id - 1).
  std::vector<qos::AdmissionController::Counts> tenant_counts;
  /// drops[class_index][arrival_index]: true when drop admission sheds the
  /// arrival at a full window. Like tenant decisions these are planned —
  /// the window is replayed against the modelled completion schedule — so
  /// per-class drop counts are identical across backends and thread
  /// counts, where live window observation could never be.
  std::vector<std::vector<bool>> drops;
  /// False when the scenario declares no tenants: every arrival accepts.
  bool enforced = false;
  /// True when the scenario uses drop admission: `drops` is authoritative.
  bool drop_planned = false;

  qos::Decision decision(std::size_t class_index, std::uint64_t arrival_index) const {
    if (!enforced) return qos::Decision::kAccept;
    return decisions[class_index][arrival_index];
  }

  bool drop(std::size_t class_index, std::uint64_t arrival_index) const {
    if (!drop_planned) return false;
    return drops[class_index][arrival_index];
  }
};

/// Build the plan for `spec`. Cheap when the scenario has no tenants, no
/// autoscale and blocking admission; otherwise regenerates all class
/// streams once.
AdmissionPlan build_admission_plan(const ScenarioSpec& spec);

}  // namespace mccp::workload
