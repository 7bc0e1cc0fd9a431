#include "workload/jobgen.h"

#include <utility>

namespace mccp::workload {

std::uint64_t class_seed(std::uint64_t scenario_seed, std::size_t class_index) {
  return scenario_seed * 0x9E3779B97F4A7C15ull + (class_index + 1) * 0xBF58476D1CE4E5B9ull;
}

Bytes class_key(std::uint64_t scenario_seed, std::size_t class_index, std::size_t key_len) {
  Rng key_rng(class_seed(scenario_seed, class_index) ^ 0x5DEECE66Dull);
  return key_rng.bytes(key_len);
}

host::EngineConfig engine_config_from(const ScenarioSpec& spec) {
  host::EngineConfig cfg;
  cfg.num_devices = spec.devices;
  cfg.device.num_cores = spec.cores_per_device;
  cfg.device.slot_images = spec.slot_images;
  cfg.device.bitstream_store = spec.bitstream_store;
  cfg.device.auto_reconfig = spec.auto_reconfig;
  cfg.device.reconfig_time_divisor = spec.reconfig_time_divisor;
  cfg.slot_layouts = spec.slot_layouts;
  cfg.placement = spec.placement;
  cfg.backend = spec.backend;
  cfg.num_workers = spec.threads;
  // Scenario runs register the tenants for identity, quota enforcement
  // and per-tenant accounting, but zero the live rate metering: the
  // admission *plan* (workload/tenantplan.h) is the rate/shed authority
  // for scenario traffic, and it may legitimately accept weighted-surplus
  // borrows beyond a tenant's contract rate — live contract-only buckets
  // would spuriously throttle those plan-approved submissions. Live rate
  // enforcement is for direct-API / service deployments with no plan.
  cfg.tenants = spec.tenants;
  for (qos::TenantConfig& t : cfg.tenants) t.rate_tokens = 0;
  return cfg;
}

namespace {

std::size_t iv_len(ChannelMode mode, unsigned nonce_len) {
  switch (mode) {
    // The channel's registered nonce_len is the exact IV/nonce length the
    // core streams — a mismatched IV would underfill the simulated FIFOs.
    case ChannelMode::kGcm:
    case ChannelMode::kCcm: return nonce_len;
    case ChannelMode::kCtr: return 16;
    default: return 0;
  }
}

Bytes make_iv(Rng& rng, ChannelMode mode, unsigned nonce_len) {
  Bytes iv = rng.bytes(iv_len(mode, nonce_len));
  if (mode == ChannelMode::kCtr) iv[14] = iv[15] = 0;  // leave the 16-bit counter space clear
  return iv;
}

}  // namespace

ClassJobStream::ClassJobStream(const ClassSpec& spec, std::uint64_t scenario_seed,
                               std::size_t class_index, sim::Cycle max_cycles)
    : spec_(&spec),
      max_cycles_(max_cycles),
      rng_(class_seed(scenario_seed, class_index)),
      arrival_(make_arrival(spec.profile.arrival)) {
  draw_next();
}

void ClassJobStream::draw_next() {
  const std::uint64_t cap = spec_->packets;
  if (cap != 0 && generated_ >= cap) {
    next_time_.reset();
    return;
  }
  next_time_ = arrival_->next(rng_);
  if (next_time_ && max_cycles_ != 0 && *next_time_ > static_cast<double>(max_cycles_))
    next_time_.reset();
}

JobShape ClassJobStream::draw_shape() {
  const ChannelClass& p = spec_->profile;
  long long fixed_payload = -1, fixed_aad = -1;
  const ArrivalSpec& as = p.arrival;
  if (generated_ < as.trace_payload_len.size())
    fixed_payload = as.trace_payload_len[generated_];
  if (generated_ < as.trace_aad_len.size()) fixed_aad = as.trace_aad_len[generated_];
  JobShape shape;
  shape.payload_len = normalize_payload(
      fixed_payload >= 0 ? static_cast<std::size_t>(fixed_payload) : p.payload.sample(rng_));
  shape.aad_len = normalize_aad(
      fixed_aad >= 0 ? static_cast<std::size_t>(fixed_aad) : p.aad.sample(rng_));
  return shape;
}

bool ClassJobStream::draw_verify() {
  return spec_->decrypt_fraction > 0.0 && spec_->profile.mode != ChannelMode::kWhirlpool &&
         rng_.next_double() < spec_->decrypt_fraction;
}

GeneratedJob ClassJobStream::take() {
  const ChannelClass& p = spec_->profile;
  const JobShape shape = draw_shape();
  host::JobSpec job;
  job.iv_or_nonce = make_iv(rng_, p.mode, p.nonce_len);
  job.aad = rng_.bytes(shape.aad_len);
  job.payload = rng_.bytes(shape.payload_len);
  job.priority = p.priority;

  GeneratedJob built;
  built.job = std::move(job);
  if (draw_verify()) {
    built.verify = true;
    built.verify_iv = built.job.iv_or_nonce;
    built.verify_aad = built.job.aad;
    if (p.mode == ChannelMode::kCbcMac) built.verify_msg = built.job.payload;
  }

  ++generated_;
  draw_next();
  return built;
}

JobShape ClassJobStream::take_shape() {
  const ChannelClass& p = spec_->profile;
  const JobShape shape = draw_shape();
  rng_.discard_bytes(iv_len(p.mode, p.nonce_len));
  rng_.discard_bytes(shape.aad_len);
  rng_.discard_bytes(shape.payload_len);
  draw_verify();

  ++generated_;
  draw_next();
  return shape;
}

void ClassJobStream::skip() {
  ++generated_;
  draw_next();
}

}  // namespace mccp::workload
