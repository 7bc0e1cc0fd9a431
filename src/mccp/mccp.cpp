#include "mccp/mccp.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/ccm.h"
#include "mccp/timing.h"

namespace mccp::top {

namespace {

/// Which CU personality a slot exposes once it hosts `img`.
cu::CuPersonality personality_for(reconfig::CoreImage img) {
  return img == reconfig::CoreImage::kWhirlpool ? cu::CuPersonality::kWhirlpool
                                                : cu::CuPersonality::kAes;
}

}  // namespace

Mccp::Mccp(const MccpConfig& config, const KeyMemory& keys)
    : key_memory_(&keys), key_scheduler_(keys), ccm_mapping_(config.ccm_mapping),
      control_latency_(config.control_latency_cycles >= 0 ? config.control_latency_cycles
                                                          : kControlLatencyCycles),
      bitstream_store_(config.bitstream_store), auto_reconfig_(config.auto_reconfig),
      reconfig_time_divisor_(config.reconfig_time_divisor) {
  key_scheduler_.set_cache_enabled(config.key_cache_enabled);
  if (config.num_cores == 0) throw std::invalid_argument("Mccp: need at least one core");
  if (config.slot_images.size() > config.num_cores)
    throw std::invalid_argument("Mccp: slot_images lists more slots than num_cores");
  if (config.reconfig_time_divisor == 0)
    throw std::invalid_argument("Mccp: reconfig_time_divisor must be >= 1");
  for (std::size_t i = 0; i < config.num_cores; ++i)
    cores_.push_back(std::make_unique<core::CryptoCore>("core" + std::to_string(i)));
  // Ring topology: core i's outbound shift register feeds core i+1 (SIV.A).
  for (std::size_t i = 0; i < config.num_cores; ++i)
    cores_[(i + 1) % config.num_cores]->connect_shift_in(&cores_[i]->shift_out());
  core_allocated_.assign(config.num_cores, false);
  reconfig_.resize(config.num_cores);
  // Boot-time slot layout: the static bitstream already carries these
  // personalities, so no transfer time is charged.
  for (std::size_t i = 0; i < config.slot_images.size(); ++i) {
    reconfig_[i].image = reconfig_[i].target = config.slot_images[i];
    cores_[i]->set_personality(personality_for(config.slot_images[i]));
  }
  std::vector<core::CryptoCore*> raw;
  raw.reserve(cores_.size());
  for (auto& c : cores_) raw.push_back(c.get());
  crossbar_ = std::make_unique<CrossBar>(std::move(raw));
}

void Mccp::pulse_start() {
  if (ctrl_state_ != CtrlState::kIdle)
    throw std::logic_error("Mccp: start pulsed while an instruction is executing "
                           "(the four protocol steps are non-interruptible)");
  ctrl_state_ = CtrlState::kDecoding;
  ctrl_latency_ = control_latency_;
}

std::size_t Mccp::idle_core_count() const {
  std::size_t n = 0;
  for (bool a : core_allocated_)
    if (!a) ++n;
  return n;
}

const Mccp::RequestInfo* Mccp::request_info(std::uint8_t id) const {
  auto it = requests_.find(id);
  return it == requests_.end() ? nullptr : &it->second.info;
}

std::optional<std::size_t> Mccp::find_idle_core(cu::CuPersonality need) const {
  for (std::size_t i = 0; i < cores_.size(); ++i)
    if (!core_allocated_[i] && cores_[i]->personality() == need) return i;
  return std::nullopt;
}

std::optional<std::pair<std::size_t, std::size_t>> Mccp::find_idle_pair() const {
  if (cores_.size() < 2) return std::nullopt;
  auto aes_idle = [&](std::size_t i) {
    return !core_allocated_[i] && cores_[i]->personality() == cu::CuPersonality::kAes;
  };
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    std::size_t j = (i + 1) % cores_.size();
    if (aes_idle(i) && aes_idle(j)) return std::make_pair(i, j);
  }
  return std::nullopt;
}

std::size_t Mccp::cores_hosting(reconfig::CoreImage img) const {
  std::size_t n = 0;
  for (const CoreReconfigState& r : reconfig_)
    if (r.remaining == 0 && r.image == img) ++n;
  return n;
}

bool Mccp::image_acquirable(reconfig::CoreImage img) const {
  for (const CoreReconfigState& r : reconfig_)
    if (r.remaining > 0 ? r.target == img : r.image == img) return true;
  return false;
}

std::optional<std::uint64_t> Mccp::begin_core_reconfiguration(std::size_t core_idx,
                                                              reconfig::CoreImage image,
                                                              reconfig::BitstreamStore store) {
  if (core_idx >= cores_.size()) return std::nullopt;
  if (core_allocated_[core_idx] || reconfig_[core_idx].remaining > 0) return std::nullopt;
  core_allocated_[core_idx] = true;  // reserved during the bitstream transfer
  reconfig_[core_idx].target = image;
  reconfig_[core_idx].remaining =
      reconfig::scaled_reconfiguration_cycles(image, store, reconfig_time_divisor_);
  ++swaps_in_flight_;
  ++reconfigurations_done_;
  reconfig_stall_cycles_ += reconfig_[core_idx].remaining;
  ++reconfig_to_[static_cast<std::size_t>(image)];
  trace_.record(cycle_, "scheduler",
                "reconfiguring core " + std::to_string(core_idx) + " -> " +
                    reconfig::image_name(image));
  return reconfig_[core_idx].remaining;
}

void Mccp::tick_reconfiguration() {
  if (swaps_in_flight_ == 0) return;
  for (std::size_t i = 0; i < reconfig_.size(); ++i) {
    auto& r = reconfig_[i];
    if (r.remaining == 0) continue;
    if (--r.remaining == 0) {
      --swaps_in_flight_;
      r.image = r.target;
      cores_[i]->set_personality(personality_for(r.image));
      core_allocated_[i] = false;
      trace_.record(cycle_, "scheduler",
                    "core " + std::to_string(i) + " now hosts " +
                        reconfig::image_name(r.image));
    }
  }
}

void Mccp::finish(std::uint8_t rr) {
  rr_ = rr;
  ctrl_state_ = CtrlState::kIdle;
  starting_request_.reset();
}

void Mccp::execute_instruction() {
  const auto op = static_cast<ControlOp>((ir_ >> 24) & 0xFF);
  const auto a = static_cast<std::uint8_t>((ir_ >> 16) & 0xFF);
  const auto b = static_cast<std::uint8_t>((ir_ >> 8) & 0xFF);
  const auto c = static_cast<std::uint8_t>(ir_ & 0xFF);
  switch (op) {
    case ControlOp::kOpen: exec_open(a, b, c); break;
    case ControlOp::kClose: exec_close(a); break;
    case ControlOp::kEncrypt: exec_crypt(false, a, b, c); break;
    case ControlOp::kDecrypt: exec_crypt(true, a, b, c); break;
    case ControlOp::kRetrieveData: exec_retrieve(); break;
    case ControlOp::kTransferDone: exec_transfer_done(a); break;
    default: finish(make_error(ControlError::kBadInstruction));
  }
}

void Mccp::exec_open(std::uint8_t a, std::uint8_t b, std::uint8_t c) {
  auto mode = static_cast<ChannelMode>(a);
  if (a > static_cast<std::uint8_t>(ChannelMode::kWhirlpool))
    return finish(make_error(ControlError::kBadParameters));
  if (mode != ChannelMode::kWhirlpool && key_memory_->lookup(b) == nullptr)
    return finish(make_error(ControlError::kNoKey));
  std::uint8_t tag_len = static_cast<std::uint8_t>(((c >> 4) & 0xF) + 1);
  std::uint8_t nonce_len = static_cast<std::uint8_t>(c & 0xF);
  if (mode == ChannelMode::kCcm &&
      !crypto::ccm_params_valid({.tag_len = tag_len, .nonce_len = nonce_len}))
    return finish(make_error(ControlError::kBadParameters));
  for (std::uint8_t id = 0; id < 64; ++id) {
    if (!channels_.count(id)) {
      channels_[id] = Channel{mode, b, tag_len, nonce_len};
      trace_.record(cycle_, "scheduler", "OPEN channel " + std::to_string(id));
      return finish(make_ok(id));
    }
  }
  finish(make_error(ControlError::kChannelsExhausted));
}

void Mccp::exec_close(std::uint8_t a) {
  if (!channels_.erase(a)) return finish(make_error(ControlError::kNoChannel));
  trace_.record(cycle_, "scheduler", "CLOSE channel " + std::to_string(a));
  finish(make_ok(a));
}

void Mccp::exec_crypt(bool decrypt, std::uint8_t chan, std::uint8_t header_blocks,
                      std::uint8_t data_blocks) {
  auto cit = channels_.find(chan);
  if (cit == channels_.end()) return finish(make_error(ControlError::kNoChannel));
  const Channel& ch = cit->second;

  // Allocate a request id.
  std::optional<std::uint8_t> rid;
  for (std::uint8_t id = 0; id < 64; ++id)
    if (!requests_.count(id)) {
      rid = id;
      break;
    }
  if (!rid) return finish(make_error(ControlError::kNoCoreAvailable));

  Request req;
  req.info.id = *rid;
  req.info.channel = chan;
  req.info.decrypt = decrypt;
  const std::uint16_t tag_mask = core::tag_mask_for_len(ch.tag_len);

  using core::AlgId;
  const bool want_pair =
      ch.mode == ChannelMode::kCcm &&
      (ccm_mapping_ == CcmMapping::kPairPreferred ||
       (ccm_mapping_ == CcmMapping::kAdaptive &&
        idle_core_count() * 2 > cores_.size()));  // plenty of idle capacity
  if (want_pair) {
    if (auto pair = find_idle_pair()) {
      // Role order follows the ring direction: the producing core's shift
      // register feeds its successor. Encrypt: MAC core i -> CTR core i+1
      // (T forwarded); decrypt: CTR core i -> MAC core i+1 (plaintext
      // forwarded).
      std::size_t ctr_idx = decrypt ? pair->first : pair->second;
      std::size_t mac_idx = decrypt ? pair->second : pair->first;
      req.info.lanes = {ctr_idx, mac_idx};
      req.info.split_ccm = true;
      core::CoreTaskParams ctr_p{decrypt ? AlgId::kCcmCtrDecrypt : AlgId::kCcmCtrEncrypt, 0,
                                 data_blocks, tag_mask};
      core::CoreTaskParams mac_p{decrypt ? AlgId::kCcmMacDecrypt : AlgId::kCcmMacEncrypt,
                                 header_blocks, data_blocks, tag_mask};
      req.core_params = {ctr_p, mac_p};
    }
  }
  if (req.info.lanes.empty()) {
    const cu::CuPersonality need = ch.mode == ChannelMode::kWhirlpool
                                       ? cu::CuPersonality::kWhirlpool
                                       : cu::CuPersonality::kAes;
    auto idx = find_idle_core(need);
    if (!idx) {
      ++requests_rejected_;
      return finish(make_error(ControlError::kNoCoreAvailable));
    }
    req.info.lanes = {*idx};
    AlgId alg;
    switch (ch.mode) {
      case ChannelMode::kGcm: alg = decrypt ? AlgId::kGcmDecrypt : AlgId::kGcmEncrypt; break;
      case ChannelMode::kCcm: alg = decrypt ? AlgId::kCcm1Decrypt : AlgId::kCcm1Encrypt; break;
      case ChannelMode::kCtr: alg = AlgId::kCtr; break;
      case ChannelMode::kCbcMac:
        alg = decrypt ? AlgId::kCbcMacVerify : AlgId::kCbcMacGenerate;
        break;
      case ChannelMode::kWhirlpool: alg = AlgId::kWhirlpoolHash; break;
      default: return finish(make_error(ControlError::kBadParameters));
    }
    core::CoreTaskParams params{alg, header_blocks, data_blocks, tag_mask};
    // GCM channels with a non-96-bit IV use the on-core GHASH J0 derivation:
    // padded IV blocks plus the IV-length block.
    if (ch.mode == ChannelMode::kGcm && ch.nonce_len != 12)
      params.iv_blocks = static_cast<std::uint8_t>((ch.nonce_len + 15) / 16 + 1);
    req.core_params = {params};
  }

  // Claim the cores and stage the round keys; the instruction completes once
  // the Key Scheduler has filled the key caches (paper SVI.B: "the Task
  // Scheduler selects the cores ... and generates the needed round keys").
  for (std::size_t lane : req.info.lanes) core_allocated_[lane] = true;
  if (ch.mode != ChannelMode::kWhirlpool)
    for (std::size_t lane : req.info.lanes)
      key_scheduler_.request_load(cores_[lane].get(), ch.key_id);
  trace_.record(cycle_, "scheduler",
                std::string(decrypt ? "DECRYPT" : "ENCRYPT") + " req " + std::to_string(*rid) +
                    " on " + std::to_string(req.info.lanes.size()) + " core(s)");
  requests_[*rid] = std::move(req);
  starting_request_ = *rid;
  ctrl_state_ = CtrlState::kWaitKeys;
}

void Mccp::try_finish_wait_keys() {
  Request& req = requests_.at(*starting_request_);
  const Channel& ch = channels_.at(req.info.channel);
  if (ch.mode != ChannelMode::kWhirlpool)
    for (std::size_t lane : req.info.lanes)
      if (!key_scheduler_.core_has_key(cores_[lane].get(), ch.key_id)) return;
  // Keys are cached: program the mailboxes, strobe start, open write lanes.
  for (std::size_t i = 0; i < req.info.lanes.size(); ++i) {
    cores_[req.info.lanes[i]]->start_task(req.core_params[i]);
    crossbar_->open_write(req.info.lanes[i]);
  }
  req.state = ReqState::kProcessing;
  if (!req.info.decrypt) ++unannounced_encrypts_;
  std::uint8_t id = req.info.id;
  finish(make_ok(id));
}

void Mccp::exec_retrieve() {
  if (available_.empty()) return finish(make_error(ControlError::kNothingReady));
  auto [id, ok] = available_.front();
  available_.pop_front();
  if (ok) {
    // "this instruction configures the Cross Bar to enable I/O access when
    // an OK flag has been returned" (SIII.B).
    const Request& req = requests_.at(id);
    for (std::size_t lane : req.info.lanes) crossbar_->open_read(lane);
    finish(make_ok(id));
  } else {
    finish(make_auth_fail(id));
  }
}

void Mccp::exec_transfer_done(std::uint8_t id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return finish(make_error(ControlError::kNoSuchRequest));
  if (it->second.state != ReqState::kCompleted)
    return finish(make_error(ControlError::kBadParameters));
  for (std::size_t lane : it->second.info.lanes) {
    crossbar_->close(lane);
    core_allocated_[lane] = false;
  }
  trace_.record(cycle_, "scheduler", "TRANSFER_DONE req " + std::to_string(id));
  requests_.erase(it);
  finish(make_ok(id));
}

void Mccp::scan_requests() {
  // Without a fresh done line, an unannounced encrypt or a running
  // countdown, every request below would fall through untouched.
  std::uint64_t tasks_completed = 0;
  for (const auto& c : cores_) tasks_completed += c->tasks_completed();
  if (tasks_completed == scanned_tasks_completed_ && unannounced_encrypts_ == 0 &&
      done_countdowns_ == 0)
    return;
  scanned_tasks_completed_ = tasks_completed;

  auto announce = [&](std::uint8_t id, Request& req, bool ok) {
    req.announced = true;
    available_.push_back({id, ok});
    if (!req.info.decrypt) --unannounced_encrypts_;
  };
  for (auto& [id, req] : requests_) {
    if (req.state != ReqState::kProcessing) continue;

    // Encryption output may stream out as soon as it appears (ciphertext is
    // public); Data Available fires on the first output words.
    if (!req.info.decrypt && !req.announced) {
      for (std::size_t lane : req.info.lanes) {
        if (!cores_[lane]->out_fifo().empty()) {
          announce(id, req, true);
          break;
        }
      }
    }

    bool all_done = true;
    for (std::size_t lane : req.info.lanes)
      if (!cores_[lane]->done_pending()) all_done = false;
    if (!all_done) continue;

    if (req.done_scan_countdown < 0) {
      req.done_scan_countdown = kDoneScanCycles;
      ++done_countdowns_;
    }
    if (--req.done_scan_countdown > 0) continue;
    --done_countdowns_;

    // All cores reported: collect results.
    req.auth_ok = true;
    for (std::size_t lane : req.info.lanes) {
      if (cores_[lane]->result() != core::CoreResult::kOk) req.auth_ok = false;
      cores_[lane]->acknowledge_done();
    }
    if (!req.auth_ok) {
      // Cross-core security rule: when the MAC half rejects a split-CCM
      // packet, the partner core's already-decrypted output must be wiped
      // too before anything can be read.
      for (std::size_t lane : req.info.lanes) {
        // Grab through the crossbar model as well: nothing was read-granted
        // yet, but clear any drained residue defensively.
        crossbar_->close(lane);
        crossbar_->open_write(lane);  // keep lane bookkeeping consistent
      }
      for (std::size_t lane : req.info.lanes) {
        cores_[lane]->out_fifo().clear();
      }
    }
    req.state = ReqState::kCompleted;
    ++requests_completed_;
    if (!req.announced) announce(id, req, req.auth_ok);
    trace_.record(cycle_, "scheduler",
                  "req " + std::to_string(id) + (req.auth_ok ? " done" : " AUTH FAIL"));
  }
}

std::uint64_t Mccp::quiet_horizon(std::uint64_t budget) const {
  // Control-plane machinery mid-transaction decides cycle by cycle.
  if (ctrl_state_ != CtrlState::kIdle || !key_scheduler_.idle()) return 0;
  if (!crossbar_->quiet()) return 0;
  std::uint64_t h = budget;
  for (const CoreReconfigState& r : reconfig_) {
    if (r.remaining == 0) continue;
    if (r.remaining == 1) return 0;  // the swap lands next tick
    h = std::min(h, r.remaining - 1);
  }
  for (const auto& [id, req] : requests_) {
    if (req.state != ReqState::kProcessing) continue;
    // The next scan would act: a running done-scan countdown, a Data
    // Available announce for freshly appeared ciphertext, or the first
    // observation of an all-lanes-done request.
    if (req.done_scan_countdown >= 0) return 0;
    if (!req.info.decrypt && !req.announced)
      for (std::size_t lane : req.info.lanes)
        if (!cores_[lane]->out_fifo().empty()) return 0;
    bool all_done = true;
    for (std::size_t lane : req.info.lanes)
      if (!cores_[lane]->done_pending()) all_done = false;
    if (all_done) return 0;
  }
  for (const auto& c : cores_) {
    const std::uint64_t ch = c->quiet_horizon();
    if (ch == 0) return 0;
    h = std::min(h, ch);
  }
  return h;
}

void Mccp::advance_quiet(std::uint64_t n) {
  // Scheduler, key loader, crossbar and request scans are all no-ops for
  // the span (quiet_horizon's contract): only the swap countdowns, the
  // cores and the clock move. Countdowns stay >= 1 because the horizon is
  // capped at remaining - 1, so no swap can land inside the span.
  for (CoreReconfigState& r : reconfig_)
    if (r.remaining > 0) r.remaining -= n;
  for (auto& c : cores_) c->advance_quiet(n);
  cycle_ += n;
}

void Mccp::tick() {
  if (ctrl_state_ == CtrlState::kDecoding) {
    if (--ctrl_latency_ <= 0) execute_instruction();
  } else if (ctrl_state_ == CtrlState::kWaitKeys) {
    try_finish_wait_keys();
  }
  scan_requests();
  tick_reconfiguration();
  key_scheduler_.tick();
  crossbar_->tick();
  for (auto& c : cores_) c->tick();
  ++cycle_;
}

}  // namespace mccp::top
