// Declarative scenario specifications.
//
// A scenario file is a JSON document describing a whole experiment: the
// fleet shape (devices x cores, backend, placement), the pacing discipline
// (bounded in-flight window, block-or-drop admission), and a list of
// channel classes — each either a preset from workload/profile.h picked by
// `"class"` or built from scratch, with any field overridable. Shipped
// presets live under scenarios/; `scenario_runner --scenario <file>` runs
// one and the runner's report mirrors the spec's class names.
//
// Example:
//   {
//     "name": "mixed_radio", "seed": 42,
//     "devices": 4, "cores_per_device": 4,
//     "backend": "fast", "placement": "least_loaded", "window": 96,
//     "classes": [
//       {"class": "voip", "packets": 400, "channels": 4},
//       {"class": "bulk", "packets": 300, "channels": 2,
//        "arrival": {"kind": "poisson", "rate": 1.5},
//        "payload": {"uniform": [1024, 4080]}}
//     ]
//   }
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "host/engine.h"
#include "qos/admission.h"
#include "qos/tenant.h"
#include "workload/profile.h"

namespace mccp::workload {

/// What to do with an arrival when the in-flight window is full.
enum class Admission : std::uint8_t {
  kBlock,  // hold the arrival until a completion frees a slot (closed loop)
  kDrop,   // reject it (counted per class as `dropped`)
};

struct ClassSpec {
  ChannelClass profile{};
  std::uint64_t packets = 100;  // arrivals to offer (0 = until the trace exhausts)
  std::size_t channels = 1;     // channels of this class (placement shards them)
  /// Fraction of this class's sealed packets the runner round-trips back
  /// through the fleet as decrypt/verify jobs (0 = encrypt-side only).
  /// Whether a given arrival round-trips is decided from the class rng in
  /// arrival order, so the verify mix is deterministic across backends
  /// and thread counts. Ignored for Whirlpool (hashing has no open side).
  double decrypt_fraction = 0.0;
  /// Owning tenant ("tenant": name from the scenario's "tenants" block;
  /// "" = untenanted). Resolved to the dense 1-based id at parse time.
  std::string tenant{};
  std::uint16_t tenant_id = 0;
};

/// One scripted fleet-membership event ("faults" array): a device death
/// (fault injection), a scripted drain-out, or a hot-add. Kills are wired
/// into the engine at construction (EngineConfig::faults) and fire at the
/// device's own clock; remove/add are executed by the runner's loop when
/// the engine clock passes `at_cycle`.
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kKill,    // device dies hard at `at_cycle` (FaultyDevice freeze)
    kRemove,  // drain + migrate the device out of the fleet
    kAdd,     // hot-add a fleet-identical device
  };
  Kind kind = Kind::kKill;
  std::size_t device = 0;   // kill/remove target slot (ignored for add)
  sim::Cycle at_cycle = 0;  // engine-clock instant
  /// Add only: boot slot layout override for the new device ("slots").
  std::vector<reconfig::CoreImage> slots{};
};

/// Demand-driven autoscaling ("autoscale" object), decided on engine-clock
/// boundaries: at every multiple of `cooldown_cycles` the runner compares
/// the deterministic demand backlog — accepted arrivals scheduled at or
/// before the boundary minus jobs whose completion stamp lands at or
/// before it — against the thresholds, adding a device at `high_inflight`
/// and draining one out at `low_inflight`. Both inputs are pure functions
/// of the scenario (arrival schedule) and the calibrated cost model
/// (completion stamps), so the scale-event sequence (kind, device,
/// boundary cycle) is bit-identical across sim/fast backends and
/// serial/threaded engines. Scale-down prefers personality-redundant
/// devices: a device is skipped while it is the last one holding a core
/// image some live channel still needs.
struct AutoscaleSpec {
  bool enabled = false;
  std::size_t high_inflight = 0;  // backlog >= this: add a device (0 = window)
  std::size_t low_inflight = 0;   // backlog <= this: drain one out
  std::size_t min_devices = 1;
  std::size_t max_devices = 8;
  sim::Cycle cooldown_cycles = 50'000;  // boundary spacing
};

struct ScenarioSpec {
  std::string name = "scenario";
  std::uint64_t seed = 1;
  std::size_t devices = 1;
  std::size_t cores_per_device = 4;
  host::Backend backend = host::Backend::kFast;
  host::Placement placement = host::Placement::kLeastLoaded;
  /// Engine worker threads stepping the fleet (EngineConfig::num_workers):
  /// 0 or 1 = serial. Threaded and serial runs of the same spec resolve the
  /// identical workload (tests/workload/scenario_test.cpp pins this).
  std::size_t threads = 0;
  std::size_t window = 64;  // max jobs in flight across the fleet
  Admission admission = Admission::kBlock;
  sim::Cycle max_cycles = 0;  // stop offering new arrivals after this (0 = off)
  sim::Cycle queue_sample_cycles = 2048;  // queue-depth sampling period

  // -- slot personalities & partial reconfiguration (paper SVII.B) ------------
  /// Boot slot layout applied to every device ("slots": ["aes", ...]);
  /// empty = all slots host the AES image.
  std::vector<reconfig::CoreImage> slot_images{};
  /// Per-device boot layouts ("slots": [["aes"], ["whirlpool"]]); entry i
  /// overrides `slot_images` for device i. Empty = uniform layout.
  std::vector<std::vector<reconfig::CoreImage>> slot_layouts{};
  /// "bitstream_store": where on-demand swaps fetch bitstreams from.
  reconfig::BitstreamStore bitstream_store = reconfig::BitstreamStore::kRam;
  /// "auto_reconfig": swap a slot on demand (true) or fail the packet
  /// fast (false) when a mode's image is missing device-wide.
  bool auto_reconfig = true;
  /// "reconfig_scale": swap-duration timescale compression (>= 1; see
  /// reconfig::scaled_reconfiguration_cycles). 1 = faithful Table IV.
  std::uint32_t reconfig_time_divisor = 1;

  // -- fleet elasticity & fault injection -------------------------------------
  /// Scripted membership events, sorted by at_cycle at parse time.
  std::vector<FaultEvent> faults{};
  AutoscaleSpec autoscale{};

  // -- multi-tenant QoS -------------------------------------------------------
  /// Tenant contracts ("tenants" array); classes bind by name via
  /// ClassSpec::tenant. Ids are dense 1-based in declaration order.
  /// Tenanted scenarios require block admission and encrypt-only classes
  /// (enforced at parse): the admission plan mirrors exactly the arrivals
  /// the runner consumes.
  std::vector<qos::TenantConfig> tenants{};
  /// Fleet capacity for graceful degradation ("capacity" object): when
  /// enabled, in-contract arrivals shed in SLO order (bulk before video
  /// before voip) as the capacity bucket drains.
  qos::CapacityConfig capacity{};

  std::vector<ClassSpec> classes;
};

/// Parse a scenario from a JSON document. `base_dir` resolves relative
/// trace-file references ("" = current directory). Throws
/// json::ParseError / std::invalid_argument with field-level messages.
ScenarioSpec parse_scenario(const json::Value& doc, const std::string& base_dir = "");
ScenarioSpec parse_scenario_text(std::string_view json_text, const std::string& base_dir = "");
/// Load from a file; trace references resolve relative to its directory.
ScenarioSpec load_scenario(const std::string& path);

/// The CLIs' `--scale F`: multiply every counted class's packet count by
/// `scale`, rounding to nearest (halves away from zero) with a floor of one
/// packet; trace-driven classes (packets == 0) keep replaying their trace.
/// Throws std::invalid_argument naming `--scale` unless `scale` is finite
/// and > 0 and every scaled count fits in 63 bits.
void scale_packets(ScenarioSpec& spec, double scale);

const char* backend_name(host::Backend backend);
host::Backend backend_from_name(const std::string& name);
const char* placement_name(host::Placement placement);
host::Placement placement_from_name(const std::string& name);
/// Spec-file spellings of the reconfiguration enums: "aes" / "whirlpool",
/// "ram" / "compact_flash".
const char* image_spec_name(reconfig::CoreImage image);
reconfig::CoreImage image_from_name(const std::string& name);
const char* store_spec_name(reconfig::BitstreamStore store);
reconfig::BitstreamStore store_from_name(const std::string& name);

}  // namespace mccp::workload
