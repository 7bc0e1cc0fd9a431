#include "workload/spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "workload/trace.h"

namespace mccp::workload {

namespace {

SizeDist parse_size_dist(const json::Value& v, const std::string& field) {
  // {"fixed": 256} | {"uniform": [512, 1424]} | {"empirical": [64, 256, 1500]}
  // | {"empirical": {"values": [...], "weights": [...]}} | bare number.
  if (v.is_number()) return SizeDist::fixed(static_cast<std::size_t>(v.as_number()));
  if (!v.is_object())
    throw std::invalid_argument("scenario: \"" + field + "\" must be a number or an object");
  if (const json::Value* f = v.find("fixed"))
    return SizeDist::fixed(static_cast<std::size_t>(f->as_number()));
  if (const json::Value* u = v.find("uniform")) {
    const auto& arr = u->as_array();
    if (arr.size() != 2)
      throw std::invalid_argument("scenario: \"" + field + "\".uniform wants [lo, hi]");
    return SizeDist::uniform(static_cast<std::size_t>(arr[0].as_number()),
                             static_cast<std::size_t>(arr[1].as_number()));
  }
  if (const json::Value* e = v.find("empirical")) {
    std::vector<std::size_t> values;
    std::vector<double> weights;
    const json::Value* values_node = e->is_object() ? e->find("values") : e;
    if (values_node == nullptr || !values_node->is_array())
      throw std::invalid_argument("scenario: \"" + field + "\".empirical wants a value array");
    for (const json::Value& x : values_node->as_array())
      values.push_back(static_cast<std::size_t>(x.as_number()));
    if (e->is_object())
      if (const json::Value* w = e->find("weights"))
        for (const json::Value& x : w->as_array()) weights.push_back(x.as_number());
    return SizeDist::empirical(std::move(values), std::move(weights));
  }
  throw std::invalid_argument("scenario: \"" + field +
                              "\" wants one of fixed / uniform / empirical");
}

ArrivalSpec parse_arrival(const json::Value& v, const std::string& base_dir,
                          const std::string& class_name) {
  ArrivalSpec spec;
  const std::string kind = v.string_or("kind", "poisson");
  if (kind == "fixed_rate") {
    spec.kind = ArrivalSpec::Kind::kFixedRate;
  } else if (kind == "poisson") {
    spec.kind = ArrivalSpec::Kind::kPoisson;
  } else if (kind == "onoff") {
    spec.kind = ArrivalSpec::Kind::kOnOff;
  } else if (kind == "trace") {
    spec.kind = ArrivalSpec::Kind::kTrace;
  } else {
    throw std::invalid_argument("scenario: unknown arrival kind \"" + kind +
                                "\" (known: fixed_rate, poisson, onoff, trace)");
  }
  spec.rate = v.number_or("rate", spec.rate);
  spec.off_rate = v.number_or("off_rate", spec.off_rate);
  spec.mean_on = v.number_or("mean_on", spec.mean_on);
  spec.mean_off = v.number_or("mean_off", spec.mean_off);
  if (spec.kind == ArrivalSpec::Kind::kTrace) {
    if (const json::Value* times = v.find("times")) {
      for (const json::Value& t : times->as_array()) spec.trace.push_back(t.as_number());
    } else if (const json::Value* file = v.find("file")) {
      std::string path = file->as_string();
      if (!base_dir.empty() && !path.empty() && path.front() != '/')
        path = base_dir + "/" + path;
      Trace trace = load_trace(path);
      // Replay the events recorded for this class (the file may carry a
      // whole mix); "trace_class" overrides when the names differ.
      const std::string cls = v.string_or("trace_class", class_name);
      for (const TraceEvent& ev : trace) {
        if (ev.channel_class != cls) continue;
        spec.trace.push_back(ev.cycle);
        spec.trace_payload_len.push_back(ev.payload_len);
        spec.trace_aad_len.push_back(ev.aad_len);
      }
      if (spec.trace.empty())
        throw std::invalid_argument("scenario: trace " + path + " has no events for class \"" +
                                    cls + "\"");
    } else {
      throw std::invalid_argument("scenario: trace arrival wants \"times\" or \"file\"");
    }
  }
  return spec;
}

ClassSpec parse_class(const json::Value& v, const std::string& base_dir) {
  if (!v.is_object()) throw std::invalid_argument("scenario: each class must be an object");
  ClassSpec spec;
  if (const json::Value* preset = v.find("class")) {
    spec.profile = preset_class(preset->as_string());
  }
  spec.profile.name = v.string_or("name", spec.profile.name);
  if (spec.profile.name.empty()) throw std::invalid_argument("scenario: class needs a name");
  if (const json::Value* mode = v.find("mode"))
    spec.profile.mode = mode_from_name(mode->as_string());
  spec.profile.key_len =
      static_cast<std::size_t>(v.u64_or("key_len", spec.profile.key_len));
  if (spec.profile.key_len != 16 && spec.profile.key_len != 24 && spec.profile.key_len != 32)
    throw std::invalid_argument("scenario: key_len must be 16, 24 or 32");
  spec.profile.tag_len = static_cast<unsigned>(v.u64_or("tag_len", spec.profile.tag_len));
  if (v.find("nonce_len") != nullptr) {
    spec.profile.nonce_len = static_cast<unsigned>(v.u64_or("nonce_len", spec.profile.nonce_len));
  } else if (spec.profile.mode == ChannelMode::kGcm) {
    spec.profile.nonce_len = 12;  // GCM: registered IV length; 12 = fast path
  }
  if ((spec.profile.mode == ChannelMode::kGcm || spec.profile.mode == ChannelMode::kCcm) &&
      (spec.profile.nonce_len < 1 || spec.profile.nonce_len > 15))
    throw std::invalid_argument("scenario: nonce_len must be in [1, 15]");
  spec.profile.priority = static_cast<unsigned>(v.u64_or("priority", spec.profile.priority));
  if (const json::Value* payload = v.find("payload"))
    spec.profile.payload = parse_size_dist(*payload, "payload");
  if (const json::Value* aad = v.find("aad")) spec.profile.aad = parse_size_dist(*aad, "aad");
  if (const json::Value* arrival = v.find("arrival"))
    spec.profile.arrival = parse_arrival(*arrival, base_dir, spec.profile.name);
  spec.packets = v.u64_or("packets", spec.packets);
  spec.channels = static_cast<std::size_t>(v.u64_or("channels", spec.channels));
  if (spec.channels == 0) throw std::invalid_argument("scenario: channels must be >= 1");
  spec.decrypt_fraction = v.number_or("decrypt_fraction", spec.decrypt_fraction);
  if (spec.decrypt_fraction < 0.0 || spec.decrypt_fraction > 1.0)
    throw std::invalid_argument("scenario: decrypt_fraction must be in [0, 1]");
  if (spec.decrypt_fraction > 0.0 && spec.profile.mode == ChannelMode::kWhirlpool)
    throw std::invalid_argument("scenario: class \"" + spec.profile.name +
                                "\": decrypt_fraction is meaningless for whirlpool "
                                "(hashing has no open side)");
  if (spec.packets == 0 && spec.profile.arrival.kind != ArrivalSpec::Kind::kTrace)
    throw std::invalid_argument(
        "scenario: packets must be >= 1 (0 is only meaningful for trace arrivals)");
  spec.tenant = v.string_or("tenant", "");
  return spec;
}

// "rate": {"tokens": N, "per_cycles": M} — N submissions per M cycles.
void parse_rate(const json::Value& v, const std::string& owner, std::uint64_t& tokens,
                sim::Cycle& cycles) {
  if (!v.is_object())
    throw std::invalid_argument("scenario: " + owner + " \"rate\" wants an object "
                                "{\"tokens\": N, \"per_cycles\": M}");
  tokens = v.u64_or("tokens", tokens);
  cycles = v.u64_or("per_cycles", cycles);
  if (cycles == 0)
    throw std::invalid_argument("scenario: " + owner + " rate per_cycles must be >= 1");
}

qos::TenantConfig parse_tenant(const json::Value& v) {
  if (!v.is_object()) throw std::invalid_argument("scenario: each tenant must be an object");
  qos::TenantConfig t;
  t.name = v.string_or("name", "");
  if (t.name.empty()) throw std::invalid_argument("scenario: tenant needs a \"name\"");
  if (const json::Value* slo = v.find("slo")) t.slo = qos::slo_class_from_name(slo->as_string());
  if (const json::Value* rate = v.find("rate"))
    parse_rate(*rate, "tenant \"" + t.name + "\"", t.rate_tokens, t.rate_cycles);
  t.burst = v.u64_or("burst", t.burst);
  if (t.burst == 0) throw std::invalid_argument("scenario: tenant burst must be >= 1");
  t.quota = static_cast<std::size_t>(v.u64_or("quota", t.quota));
  t.weight = static_cast<std::uint32_t>(v.u64_or("weight", t.weight));
  t.p99_slo_cycles = v.u64_or("p99_slo_cycles", t.p99_slo_cycles);
  return t;
}

}  // namespace

ScenarioSpec parse_scenario(const json::Value& doc, const std::string& base_dir) {
  if (!doc.is_object()) throw std::invalid_argument("scenario: document must be a JSON object");
  ScenarioSpec spec;
  spec.name = doc.string_or("name", spec.name);
  spec.seed = doc.u64_or("seed", spec.seed);
  spec.devices = static_cast<std::size_t>(doc.u64_or("devices", spec.devices));
  spec.cores_per_device =
      static_cast<std::size_t>(doc.u64_or("cores_per_device", spec.cores_per_device));
  if (spec.devices == 0 || spec.cores_per_device == 0)
    throw std::invalid_argument("scenario: devices and cores_per_device must be >= 1");
  if (const json::Value* backend = doc.find("backend"))
    spec.backend = backend_from_name(backend->as_string());
  if (const json::Value* placement = doc.find("placement"))
    spec.placement = placement_from_name(placement->as_string());
  spec.threads = static_cast<std::size_t>(doc.u64_or("threads", spec.threads));
  spec.window = static_cast<std::size_t>(doc.u64_or("window", spec.window));
  if (spec.window == 0) throw std::invalid_argument("scenario: window must be >= 1");
  const std::string admission = doc.string_or("admission", "block");
  if (admission == "block") {
    spec.admission = Admission::kBlock;
  } else if (admission == "drop") {
    spec.admission = Admission::kDrop;
  } else {
    throw std::invalid_argument("scenario: admission must be \"block\" or \"drop\"");
  }
  spec.max_cycles = doc.u64_or("max_cycles", spec.max_cycles);
  spec.queue_sample_cycles = doc.u64_or("queue_sample_cycles", spec.queue_sample_cycles);
  if (spec.queue_sample_cycles == 0)
    throw std::invalid_argument("scenario: queue_sample_cycles must be >= 1");

  // Slot personalities: "slots": ["aes", "whirlpool", ...] applies one
  // boot layout to every device; an array of arrays gives device i its own
  // layout (missing / empty entries fall back to the uniform layout).
  if (const json::Value* slots = doc.find("slots")) {
    if (!slots->is_array() || slots->as_array().empty())
      throw std::invalid_argument("scenario: \"slots\" wants a non-empty array");
    auto parse_layout = [&](const json::Value& arr) {
      std::vector<reconfig::CoreImage> layout;
      for (const json::Value& s : arr.as_array()) layout.push_back(image_from_name(s.as_string()));
      if (layout.size() > spec.cores_per_device)
        throw std::invalid_argument("scenario: a \"slots\" layout lists more slots than "
                                    "cores_per_device");
      return layout;
    };
    if (slots->as_array().front().is_array()) {
      if (slots->as_array().size() > spec.devices)
        throw std::invalid_argument("scenario: \"slots\" lists more layouts than devices");
      for (const json::Value& layout : slots->as_array())
        spec.slot_layouts.push_back(parse_layout(layout));
    } else {
      spec.slot_images = parse_layout(*slots);
    }
  }
  if (const json::Value* store = doc.find("bitstream_store"))
    spec.bitstream_store = store_from_name(store->as_string());
  spec.auto_reconfig = doc.bool_or("auto_reconfig", spec.auto_reconfig);
  spec.reconfig_time_divisor =
      static_cast<std::uint32_t>(doc.u64_or("reconfig_scale", spec.reconfig_time_divisor));
  if (spec.reconfig_time_divisor == 0)
    throw std::invalid_argument("scenario: reconfig_scale must be >= 1");

  // Fleet elasticity & fault injection: "faults" scripts membership
  // events, "autoscale" turns on the queue-depth policy.
  if (const json::Value* faults = doc.find("faults")) {
    if (!faults->is_array())
      throw std::invalid_argument("scenario: \"faults\" wants an array of event objects");
    for (const json::Value& f : faults->as_array()) {
      if (!f.is_object())
        throw std::invalid_argument("scenario: each \"faults\" event must be an object");
      FaultEvent ev;
      const std::string kind = f.string_or("kind", "");
      if (kind == "kill") {
        ev.kind = FaultEvent::Kind::kKill;
      } else if (kind == "remove") {
        ev.kind = FaultEvent::Kind::kRemove;
      } else if (kind == "add") {
        ev.kind = FaultEvent::Kind::kAdd;
      } else {
        throw std::invalid_argument("scenario: fault kind must be \"kill\", \"remove\" or "
                                    "\"add\" (got \"" + kind + "\")");
      }
      ev.at_cycle = f.u64_or("at_cycle", 0);
      if (ev.at_cycle == 0)
        throw std::invalid_argument("scenario: fault events need \"at_cycle\" >= 1");
      ev.device = static_cast<std::size_t>(f.u64_or("device", 0));
      if (ev.kind == FaultEvent::Kind::kKill && ev.device >= spec.devices)
        throw std::invalid_argument("scenario: fault kill targets device " +
                                    std::to_string(ev.device) + " but the fleet boots " +
                                    std::to_string(spec.devices));
      if (ev.kind == FaultEvent::Kind::kAdd)
        if (const json::Value* slots = f.find("slots"))
          for (const json::Value& s : slots->as_array())
            ev.slots.push_back(image_from_name(s.as_string()));
      spec.faults.push_back(std::move(ev));
    }
    std::stable_sort(spec.faults.begin(), spec.faults.end(),
                     [](const FaultEvent& a, const FaultEvent& b) { return a.at_cycle < b.at_cycle; });
  }
  if (const json::Value* autoscale = doc.find("autoscale")) {
    if (!autoscale->is_object())
      throw std::invalid_argument("scenario: \"autoscale\" wants an object");
    AutoscaleSpec& as = spec.autoscale;
    as.enabled = autoscale->bool_or("enabled", true);
    as.high_inflight =
        static_cast<std::size_t>(autoscale->u64_or("high_inflight", spec.window));
    as.low_inflight = static_cast<std::size_t>(autoscale->u64_or("low_inflight", 0));
    as.min_devices = static_cast<std::size_t>(autoscale->u64_or("min_devices", 1));
    as.max_devices = static_cast<std::size_t>(
        autoscale->u64_or("max_devices", std::max<std::uint64_t>(spec.devices * 2, 2)));
    as.cooldown_cycles = autoscale->u64_or("cooldown_cycles", as.cooldown_cycles);
    if (as.min_devices < 1 || as.max_devices < as.min_devices)
      throw std::invalid_argument("scenario: autoscale wants 1 <= min_devices <= max_devices");
    if (as.enabled && as.low_inflight >= as.high_inflight)
      throw std::invalid_argument("scenario: autoscale wants low_inflight < high_inflight");
  }

  // Multi-tenant QoS: "tenants" declares the contracts, "capacity" the
  // fleet-wide bucket for graceful degradation; classes bind by name.
  if (const json::Value* tenants = doc.find("tenants")) {
    if (!tenants->is_array())
      throw std::invalid_argument("scenario: \"tenants\" wants an array of tenant objects");
    for (const json::Value& t : tenants->as_array()) {
      qos::TenantConfig cfg = parse_tenant(t);
      for (const qos::TenantConfig& prev : spec.tenants)
        if (prev.name == cfg.name)
          throw std::invalid_argument("scenario: duplicate tenant \"" + cfg.name + "\"");
      spec.tenants.push_back(std::move(cfg));
    }
  }
  if (const json::Value* capacity = doc.find("capacity")) {
    if (!capacity->is_object())
      throw std::invalid_argument("scenario: \"capacity\" wants an object");
    spec.capacity.enabled = capacity->bool_or("enabled", true);
    spec.capacity.rate_tokens = capacity->u64_or("tokens", spec.capacity.rate_tokens);
    spec.capacity.rate_cycles = capacity->u64_or("per_cycles", spec.capacity.rate_cycles);
    spec.capacity.burst = capacity->u64_or("burst", spec.capacity.burst);
    if (spec.capacity.rate_cycles == 0 || spec.capacity.burst == 0)
      throw std::invalid_argument("scenario: capacity per_cycles and burst must be >= 1");
    if (spec.capacity.enabled && spec.tenants.empty())
      throw std::invalid_argument("scenario: \"capacity\" without \"tenants\" has no effect");
  }

  const json::Value* classes = doc.find("classes");
  if (classes == nullptr || !classes->is_array() || classes->as_array().empty())
    throw std::invalid_argument("scenario: wants a non-empty \"classes\" array");
  for (const json::Value& c : classes->as_array()) spec.classes.push_back(parse_class(c, base_dir));
  for (std::size_t i = 0; i < spec.classes.size(); ++i)
    for (std::size_t j = i + 1; j < spec.classes.size(); ++j)
      if (spec.classes[i].profile.name == spec.classes[j].profile.name)
        throw std::invalid_argument("scenario: duplicate class name \"" +
                                    spec.classes[i].profile.name + "\"");

  // Resolve class -> tenant bindings and check the tenanted-scenario
  // preconditions: the admission plan regenerates the class streams and
  // must consume them exactly like the live run, which rules out drop
  // admission (window drops depend on completion timing) and
  // decrypt/verify resubmits (extra jobs outside the plan).
  for (ClassSpec& cs : spec.classes) {
    if (cs.tenant.empty()) continue;
    std::uint16_t id = 0;
    for (std::size_t t = 0; t < spec.tenants.size(); ++t)
      if (spec.tenants[t].name == cs.tenant) id = static_cast<std::uint16_t>(t + 1);
    if (id == 0)
      throw std::invalid_argument("scenario: class \"" + cs.profile.name +
                                  "\" names unknown tenant \"" + cs.tenant + "\"");
    cs.tenant_id = id;
    if (spec.admission == Admission::kDrop)
      throw std::invalid_argument(
          "scenario: tenanted classes require \"admission\": \"block\" (drop admission "
          "would desynchronize the deterministic admission plan)");
    if (cs.decrypt_fraction > 0.0)
      throw std::invalid_argument("scenario: class \"" + cs.profile.name +
                                  "\": tenanted classes must be encrypt-only "
                                  "(decrypt_fraction 0) so the admission plan covers "
                                  "every submission");
  }
  return spec;
}

ScenarioSpec parse_scenario_text(std::string_view json_text, const std::string& base_dir) {
  return parse_scenario(json::parse(json_text), base_dir);
}

ScenarioSpec load_scenario(const std::string& path) {
  std::string base_dir;
  if (std::size_t slash = path.find_last_of('/'); slash != std::string::npos)
    base_dir = path.substr(0, slash);
  try {
    return parse_scenario(json::parse_file(path), base_dir);
  } catch (const json::ParseError& e) {
    // Name the file: the CLIs print e.what() as their one-line diagnostic,
    // and "unexpected end of input at line 2" alone doesn't say where.
    if (std::string(e.what()).find(path) != std::string::npos) throw;
    throw json::ParseError(path + ": " + e.what());
  }
}

void scale_packets(ScenarioSpec& spec, double scale) {
  char shown[32];
  std::snprintf(shown, sizeof(shown), "%g", scale);
  if (!(std::isfinite(scale) && scale > 0.0))
    throw std::invalid_argument(std::string("--scale must be a finite number > 0, got ") + shown);
  for (ClassSpec& cs : spec.classes) {
    if (cs.packets == 0) continue;
    const double scaled = std::round(static_cast<double>(cs.packets) * scale);
    if (!(scaled < 0x1p63))
      throw std::invalid_argument(std::string("--scale ") + shown +
                                  " overflows a class's packet count");
    cs.packets = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(scaled));
  }
}

const char* backend_name(host::Backend backend) {
  return backend == host::Backend::kSim ? "sim" : "fast";
}

host::Backend backend_from_name(const std::string& name) {
  if (name == "sim") return host::Backend::kSim;
  if (name == "fast") return host::Backend::kFast;
  throw std::invalid_argument("scenario: unknown backend \"" + name + "\" (known: sim, fast)");
}

const char* placement_name(host::Placement placement) {
  switch (placement) {
    case host::Placement::kRoundRobin: return "round_robin";
    case host::Placement::kLeastLoaded: return "least_loaded";
    case host::Placement::kModeAffinity: return "mode_affinity";
  }
  return "?";
}

host::Placement placement_from_name(const std::string& name) {
  if (name == "round_robin") return host::Placement::kRoundRobin;
  if (name == "least_loaded") return host::Placement::kLeastLoaded;
  if (name == "mode_affinity") return host::Placement::kModeAffinity;
  throw std::invalid_argument("scenario: unknown placement \"" + name +
                              "\" (known: round_robin, least_loaded, mode_affinity)");
}

const char* image_spec_name(reconfig::CoreImage image) {
  return image == reconfig::CoreImage::kWhirlpool ? "whirlpool" : "aes";
}

reconfig::CoreImage image_from_name(const std::string& name) {
  if (name == "aes") return reconfig::CoreImage::kAesEncryptWithKs;
  if (name == "whirlpool") return reconfig::CoreImage::kWhirlpool;
  throw std::invalid_argument("scenario: unknown core image \"" + name +
                              "\" (known: aes, whirlpool)");
}

const char* store_spec_name(reconfig::BitstreamStore store) {
  return store == reconfig::BitstreamStore::kCompactFlash ? "compact_flash" : "ram";
}

reconfig::BitstreamStore store_from_name(const std::string& name) {
  if (name == "ram") return reconfig::BitstreamStore::kRam;
  if (name == "compact_flash") return reconfig::BitstreamStore::kCompactFlash;
  throw std::invalid_argument("scenario: unknown bitstream store \"" + name +
                              "\" (known: ram, compact_flash)");
}

}  // namespace mccp::workload
