#include "host/sim_device.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "crypto/ccm.h"
#include "crypto/whirlpool.h"
#include "host/cost_model.h"
#include "sim/fifo.h"

namespace mccp::host {

SimDevice::SimDevice(const top::MccpConfig& config, std::string name)
    : name_(std::move(name)), mccp_(config, key_memory_) {}

std::uint8_t SimDevice::run_control(std::uint32_t instruction) {
  // The four non-interruptible steps of SIII.B. The rest of the platform
  // (cores, crossbar) keeps running while the scheduler decodes, and the
  // controller keeps draining read-granted output FIFOs.
  mccp_.write_instruction(instruction);
  mccp_.pulse_start();
  while (!mccp_.instruction_done()) {
    drain_retrieved();
    mccp_.tick();
  }
  last_rr_ = mccp_.return_register();
  return last_rr_;
}

bool SimDevice::drain_retrieved() {
  const std::uint64_t words_out = mccp_.crossbar().words_out();
  if (words_out == drained_words_out_ && !retrieved_since_drain_) return false;
  drained_words_out_ = words_out;
  retrieved_since_drain_ = false;
  bool drained = false;
  for (DeviceJobId id : active_) {
    Job& job = book_.job(id);
    if (job.state == Job::State::kRetrieved) {
      drained |= drain_outputs(job);
      if (fully_drained(job)) {
        job.state = Job::State::kDrained;
        drained = true;
      }
    }
  }
  return drained;
}

std::optional<ChannelInfo> SimDevice::open_channel(ChannelMode mode, top::KeyId key,
                                                   unsigned tag_len, unsigned nonce_len) {
  std::uint8_t rr = run_control(top::encode_open(mode, key, tag_len, nonce_len));
  if (top::is_error(rr)) return std::nullopt;
  ++open_channels_;
  // Report the parameters the device actually registered: the OPEN word
  // carries (tag_len - 1) and nonce_len in 4-bit fields, so out-of-range
  // values wrap on the wire (Mccp::exec_open decodes the wrapped values).
  return ChannelInfo{top::return_id(rr), mode, key,
                     static_cast<std::uint8_t>(((tag_len - 1) & 0xF) + 1),
                     static_cast<std::uint8_t>(nonce_len & 0xF)};
}

DeviceStats SimDevice::stats() const {
  DeviceStats s;
  s.inflight = book_.inflight();
  s.open_channels = open_channels_;
  s.reconfigurations = mccp_.reconfigurations_done();
  s.reconfig_stall_cycles = mccp_.reconfig_stall_cycles();
  for (reconfig::CoreImage img :
       {reconfig::CoreImage::kAesEncryptWithKs, reconfig::CoreImage::kWhirlpool}) {
    s.reconfigurations_to[reconfig::image_index(img)] = mccp_.reconfigurations_to(img);
    s.slots_with_image[reconfig::image_index(img)] = mccp_.cores_hosting(img);
  }
  return s;
}

bool SimDevice::close_channel(std::uint8_t channel_id) {
  bool ok = top::is_ok(run_control(top::encode_close(channel_id)));
  if (ok && open_channels_ > 0) --open_channels_;
  return ok;
}

namespace {

// Instruction header/data fields per mode (the firmware conventions of
// stream_format.cpp).
std::pair<std::uint8_t, std::uint8_t> block_fields(const ChannelInfo& ch, std::size_t aad_len,
                                                   std::size_t payload_len) {
  const auto header = static_cast<std::uint8_t>(header_blocks(ch.mode, aad_len));
  switch (ch.mode) {
    case ChannelMode::kGcm:
    case ChannelMode::kCcm:
    case ChannelMode::kCtr:
      return {header, static_cast<std::uint8_t>(payload_len / 16)};
    case ChannelMode::kCbcMac:
      return {0, static_cast<std::uint8_t>(payload_len / 16 - 1)};
    case ChannelMode::kWhirlpool:
      return {0, static_cast<std::uint8_t>(crypto::whirlpool_padded_len(payload_len) / 64)};
  }
  return {0, 0};
}

/// Largest GCM, CCM or CTR open SimDevice accepts, in blocks: one core's
/// output FIFO. Longer ones made the CU throw an instruction overrun (GCM,
/// one-core CCM; CTR from 130) or never completed (pair CCM).
constexpr std::size_t kMaxOpenBlocks = sim::kCoreFifoDepth / 4;

/// AES-mode packets the simulated chip cannot serve: a payload that is not
/// whole 16-byte blocks or exceeds the instruction's block count, AAD that
/// formats to more header blocks than that count carries, an empty CBC-MAC
/// message, a GCM tag outside 4..16 bytes (all rejected by the stream
/// formatters, core/stream_format.cpp), an open over kMaxOpenBlocks.
/// FastDevice serves them (its documented extension); here they are
/// refused at submit instead of failing once a core accepts them.
bool unformattable(const JobSpec& spec) {
  const std::size_t n = spec.payload.size();
  const bool fits = n % 16 == 0 && n / 16 <= core::kMaxInstructionBlocks &&
                    header_blocks(spec.channel.mode, spec.aad.size()) <=
                        core::kMaxInstructionBlocks;
  const bool long_open = spec.decrypt && n / 16 > kMaxOpenBlocks;
  switch (spec.channel.mode) {
    case ChannelMode::kGcm: {
      const std::size_t tag_len = spec.decrypt ? spec.tag.size() : spec.channel.tag_len;
      return !fits || long_open || tag_len < 4 || tag_len > 16;
    }
    case ChannelMode::kCcm:
    case ChannelMode::kCtr: return !fits || long_open;
    case ChannelMode::kCbcMac: return !fits || n == 0;
    case ChannelMode::kWhirlpool: return false;  // refused_at_submit's limit
  }
  return false;
}

}  // namespace

DeviceJobId SimDevice::submit(JobSpec spec) {
  if (refused_at_submit(spec) || unformattable(spec)) {
    // Fail fast at the seam: accepted, this packet would deadlock the
    // core (a GCM IV shorter or longer than the registered nonce_len, a
    // long pair-CCM open), wrap the instruction's block count (an oversize
    // Whirlpool message) or make the stream formatter or the CU throw.
    return book_.refuse(now());
  }
  Job& job = book_.enqueue(std::move(spec), now());
  std::tie(job.header_blocks, job.data_blocks) =
      block_fields(job.spec.channel, job.spec.aad.size(), job.spec.payload.size());
  return job.id;
}

void SimDevice::on_accept(Job& job, std::uint8_t request_id) {
  job.request_id = request_id;
  const top::Mccp::RequestInfo* info = mccp_.request_info(request_id);
  if (info == nullptr) throw std::logic_error("SimDevice: accepted request has no info");
  job.lanes = info->lanes;
  job.state = Job::State::kAccepted;
  active_.push_back(job.id);
  book_.result_at(job.id).accept_cycle = now();

  // Now that the core mapping is known, format the per-lane streams
  // ("the communication controller must format data prior to send").
  const ChannelInfo& ch = job.spec.channel;
  const JobSpec& s = job.spec;
  job.lane_jobs.clear();
  switch (ch.mode) {
    case ChannelMode::kGcm:
      job.lane_jobs.push_back(
          s.decrypt ? core::format_gcm_decrypt(s.iv_or_nonce, s.aad, s.payload, s.tag)
                    : core::format_gcm_encrypt(s.iv_or_nonce, s.aad, s.payload, ch.tag_len));
      break;
    case ChannelMode::kCcm: {
      crypto::CcmParams p{ch.tag_len, ch.nonce_len};
      if (info->split_ccm) {
        auto split = s.decrypt
                         ? core::format_ccm2_decrypt(p, s.iv_or_nonce, s.aad, s.payload, s.tag)
                         : core::format_ccm2_encrypt(p, s.iv_or_nonce, s.aad, s.payload);
        job.lane_jobs.push_back(std::move(split.ctr));
        job.lane_jobs.push_back(std::move(split.mac));
      } else {
        job.lane_jobs.push_back(
            s.decrypt ? core::format_ccm1_decrypt(p, s.iv_or_nonce, s.aad, s.payload, s.tag)
                      : core::format_ccm1_encrypt(p, s.iv_or_nonce, s.aad, s.payload));
      }
      break;
    }
    case ChannelMode::kCtr:
      job.lane_jobs.push_back(core::format_ctr(Block128::from_span(s.iv_or_nonce), s.payload));
      break;
    case ChannelMode::kCbcMac:
      job.lane_jobs.push_back(s.decrypt ? core::format_cbcmac_verify(s.payload, s.tag)
                                        : core::format_cbcmac_generate(s.payload, ch.tag_len));
      break;
    case ChannelMode::kWhirlpool:
      job.lane_jobs.push_back(core::format_whirlpool_hash(s.payload));
      break;
  }
  if (job.lane_jobs.size() != job.lanes.size())
    throw std::logic_error("SimDevice: lane/job count mismatch");
  job.collected.resize(job.lanes.size());
  for (std::size_t i = 0; i < job.lanes.size(); ++i)
    mccp_.crossbar().push_words(job.lanes[i], job.lane_jobs[i].stream);
}

bool SimDevice::drain_outputs(Job& job) {
  bool any = false;
  for (std::size_t i = 0; i < job.lanes.size(); ++i)
    any |= mccp_.crossbar().take_output_into(job.lanes[i], job.collected[i]);
  return any;
}

bool SimDevice::fully_drained(const Job& job) const {
  for (std::size_t i = 0; i < job.lanes.size(); ++i)
    if (job.collected[i].size() < job.lane_jobs[i].expected_output_words) return false;
  return true;
}

void SimDevice::finalize(Job& job) {
  JobResult& res = book_.result_at(job.id);
  res.auth_ok = job.auth_ok;
  if (job.auth_ok && !job.lane_jobs.empty()) {
    // Lane 0 carries the payload stream in every mapping.
    if (job.spec.decrypt) {
      res.payload = core::words_to_bytes(job.collected[0]);
      res.payload.resize(job.spec.payload.size());
    } else if (job.spec.channel.mode == ChannelMode::kCbcMac) {
      Bytes tag_block = core::words_to_bytes(job.collected[0]);
      res.tag.assign(tag_block.begin(), tag_block.begin() + job.spec.channel.tag_len);
    } else if (job.spec.channel.mode == ChannelMode::kCtr) {
      res.payload = core::words_to_bytes(job.collected[0]);
    } else if (job.spec.channel.mode == ChannelMode::kWhirlpool) {
      res.payload = core::words_to_bytes(job.collected[0]);  // 64-byte digest
    } else {
      auto parsed = core::parse_sealed_output(job.collected[0], job.spec.payload.size(),
                                              job.spec.channel.tag_len);
      res.payload = std::move(parsed.payload);
      res.tag = std::move(parsed.tag);
    }
  }
  active_.erase(std::find(active_.begin(), active_.end(), job.id));
  book_.complete(job.id, now());  // last: resets the record `job` refers to
}

bool SimDevice::pump() {
  // Continuous duties: drain read-granted outputs.
  bool acted = drain_retrieved();

  // Priority 1: service the Data Available interrupt.
  if (mccp_.data_available()) {
    std::uint8_t rr = run_control(top::encode_retrieve());
    if (!top::is_error(rr)) {
      std::uint8_t req = top::return_id(rr);
      for (DeviceJobId id : active_) {
        Job& job = book_.job(id);
        if (job.state == Job::State::kAccepted && job.request_id == req) {
          job.auth_ok = !top::is_auth_fail(rr);
          job.state = job.auth_ok ? Job::State::kRetrieved : Job::State::kDrained;
          retrieved_since_drain_ |= job.auth_ok;
          break;
        }
      }
    }
    return true;
  }

  // Priority 2: close out fully drained requests.
  for (DeviceJobId id : active_) {
    Job& job = book_.job(id);
    if (job.state == Job::State::kDrained) {
      std::uint8_t rr = run_control(top::encode_transfer_done(job.request_id));
      if (top::is_ok(rr)) finalize(job);
      // kBadParameters: cores not fully retired yet; retry next pump.
      return true;
    }
  }

  // Priority 3: submit the most urgent pending packet — lowest priority
  // value first, arrival order within a class (SIII.C default; SVIII QoS
  // extension when priorities differ): the head of the first bucket.
  if (Job* head = book_.head()) {
    Job& job = *head;
    // Personality gate (paper SVII.B): a packet whose mode needs a core
    // image that no slot hosts — and that no running swap will land — is
    // never silently computed. Either schedule a partial reconfiguration
    // of the highest-index idle slot (auto_reconfig; low ring indices stay
    // AES so CCM pairs keep finding adjacent cores) or fail the job fast.
    const reconfig::CoreImage need = image_for_mode(job.spec.channel.mode);
    if (!mccp_.image_acquirable(need)) {
      if (!mccp_.auto_reconfig()) {
        book_.pop_head();
        book_.fail(job.id, now());
        return true;
      }
      for (std::size_t i = mccp_.num_cores(); i-- > 0;)
        if (mccp_.begin_core_reconfiguration(i, need, mccp_.bitstream_store())) break;
      // Every slot busy: retry on a later pump. Swap scheduled: the head
      // waits for the bitstream transfer like any busy-core retry.
      return true;
    }
    std::uint32_t instr =
        job.spec.decrypt
            ? top::encode_decrypt(job.spec.channel.id, job.header_blocks, job.data_blocks)
            : top::encode_encrypt(job.spec.channel.id, job.header_blocks, job.data_blocks);
    std::uint8_t rr = run_control(instr);
    if (top::is_ok(rr)) {
      book_.pop_head();
      on_accept(job, top::return_id(rr));
    } else if (top::return_error(rr) == top::ControlError::kNoCoreAvailable) {
      ++book_.result_at(job.id).rejections;  // busy: retry on a later pump
    } else {
      // Unrecoverable (bad channel etc.): surface as failed job.
      book_.pop_head();
      book_.fail(job.id, now());
    }
    return true;
  }
  return acted;
}

void SimDevice::step() {
  // One scheduling round, then one chip cycle. The round itself may move
  // the clock: each control instruction it issues runs to completion
  // through run_control(), ticking the chip for the scheduler's decode
  // latency. So a step() advances at least one cycle, and more whenever
  // the round issued an instruction. Every stamp stays deterministic.
  //
  // An uncapped quiet burst here is tempting but wrong at the fleet level:
  // step() has no horizon to cap against, so an idle device would race its
  // clock arbitrarily far ahead of busy siblings, blowing wait budgets
  // (which are denominated in max-over-devices cycles) and shifting the
  // submit-cycle stamps of every later placement. Quiet fast-forwarding
  // lives in advance_to(), whose target provides the cap.
  pump();
  mccp_.tick();
}

void SimDevice::advance_quiet(sim::Cycle n) {
  if (n <= 1) {
    // Either a round acted (here or on a fleet sibling) or the chip is
    // busy: this cycle must replay for real.
    mccp_.tick();
    return;
  }
  // n is bounded by this chip's own quiet horizon (advance_to asked for
  // it, or the Engine took the fleet min), so the O(components)
  // fast-forward is bit-exact.
  mccp_.advance_quiet(n);
}

void SimDevice::advance_to(sim::Cycle target) {
  while (now() < target) {
    // When the pump acted (it ran control instructions, drained words or
    // retired a job) the next cycles are control traffic: keep the classic
    // one-cycle cadence so its decisions replay exactly. When it is purely
    // waiting on the chip, none of its inputs (Data Available, outboxes,
    // job states, the pending queue) can change before the chip's next
    // non-quiet cycle, so the chip may fast-forward to that boundary,
    // capped at `target`. The cap holds for quiet spans only: a control
    // instruction the pump issues just before `target` runs to completion
    // and can carry the clock past it. The result is the same clock and
    // the same stamps as step() called until now() >= target.
    if (pump()) {
      mccp_.tick();
      continue;
    }
    advance_quiet(mccp_.quiet_horizon(target - now()));
  }
}

}  // namespace mccp::host
