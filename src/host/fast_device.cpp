#include "host/fast_device.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "crypto/cbc_mac.h"
#include "crypto/ccm.h"
#include "crypto/ctr.h"
#include "crypto/gcm.h"
#include "crypto/whirlpool.h"
#include "host/cost_model.h"

namespace mccp::host {

namespace {

// Tag check as the verify cores perform it: the first tag_len bytes of the
// computed tag against the submitted tag, which refused_at_submit has
// already held to exactly the channel's tag_len bytes.
bool hw_tag_ok(const Block128& computed, ByteSpan tag, std::size_t tag_len) {
  return ct_equal(ByteSpan(computed.b.data(), tag_len), tag);
}

/// Hand a job's payload buffer, which the kernels have transformed in
/// place, to its result; a failed job's (already wiped by the failed open)
/// is dropped instead.
void yield_payload(Bytes& payload, JobResult& res) {
  if (res.auth_ok) {
    res.payload = std::move(payload);
    return;
  }
  payload.clear();
  res.payload.clear();
  res.tag.clear();
}

}  // namespace

FastDevice::FastDevice(const top::MccpConfig& config, std::string name)
    : name_(std::move(name)), config_(config), lanes_(config.num_cores) {
  // Same contract as the Mccp constructor behind SimDevice.
  if (config.num_cores == 0) throw std::invalid_argument("FastDevice: need at least one core");
  if (config.slot_images.size() > config.num_cores)
    throw std::invalid_argument("FastDevice: slot_images lists more slots than num_cores");
  if (config.reconfig_time_divisor == 0)
    throw std::invalid_argument("FastDevice: reconfig_time_divisor must be >= 1");
  core_free_.assign(config.num_cores, 0);
  core_key_.resize(config.num_cores);
  // Boot-time slot layout (static bitstream, no transfer charged).
  core_image_.assign(config.num_cores, reconfig::CoreImage::kAesEncryptWithKs);
  for (std::size_t i = 0; i < config.slot_images.size(); ++i)
    core_image_[i] = config.slot_images[i];
  core_target_ = core_image_;
  core_swap_until_.assign(config.num_cores, 0);
  running_.reserve(config.num_cores);
}

std::optional<std::uint64_t> FastDevice::begin_reconfiguration(std::size_t slot,
                                                               reconfig::CoreImage image,
                                                               reconfig::BitstreamStore store) {
  if (slot >= core_free_.size()) return std::nullopt;
  if (core_free_[slot] > now_ || core_swap_until_[slot] > now_) return std::nullopt;
  const sim::Cycle cycles =
      reconfiguration_occupancy_cycles(image, store, config_.reconfig_time_divisor);
  core_image_[slot] = image_at(slot, now_);  // commit any settled prior swap
  core_target_[slot] = image;
  core_swap_until_[slot] = now_ + cycles;
  core_free_[slot] = now_ + cycles;  // reserved for the bitstream transfer
  core_key_[slot].reset();           // the swapped-in region boots key-less
  ++reconfigurations_;
  reconfig_stall_cycles_ += cycles;
  ++reconfig_to_[reconfig::image_index(image)];
  return cycles;
}

DeviceStats FastDevice::stats() const {
  DeviceStats s;
  s.inflight = book_.inflight();
  s.open_channels = open_channels_;
  s.reconfigurations = reconfigurations_;
  s.reconfig_stall_cycles = reconfig_stall_cycles_;
  s.reconfigurations_to = reconfig_to_;
  for (std::size_t c = 0; c < config_.num_cores; ++c)
    if (!slot_reconfiguring(c)) ++s.slots_with_image[reconfig::image_index(slot_image(c))];
  return s;
}

void FastDevice::provision_key(top::KeyId id, Bytes session_key) {
  // A new bundle, never an in-place overwrite: jobs already dispatched keep
  // the bundle they hold.
  auto k = std::make_shared<Key>();
  k->expanded = crypto::aes_expand_key(session_key);  // throws on bad length, like the red side
  k->gcm = crypto::GcmKey(k->expanded);
  k->generation = next_generation_++;  // rotation invalidates every key cache
  keys_[id] = std::move(k);
}

std::optional<ChannelInfo> FastDevice::open_channel(ChannelMode mode, top::KeyId key,
                                                    unsigned tag_len, unsigned nonce_len) {
  // The OPEN control word carries (tag_len - 1) and nonce_len in 4-bit
  // fields (top::encode_open), so out-of-range values wrap exactly as they
  // would on the wire; registering the wrapped values keeps both backends'
  // channel parameters identical and tag_len within a Block128.
  tag_len = ((tag_len - 1) & 0xF) + 1;
  nonce_len &= 0xF;
  // Same validation order as Mccp::exec_open.
  if (mode != ChannelMode::kWhirlpool && !keys_.count(key)) {
    last_rr_ = top::make_error(top::ControlError::kNoKey);
    return std::nullopt;
  }
  if (mode == ChannelMode::kCcm &&
      !crypto::ccm_params_valid({.tag_len = static_cast<std::size_t>(tag_len),
                                 .nonce_len = static_cast<std::size_t>(nonce_len)})) {
    last_rr_ = top::make_error(top::ControlError::kBadParameters);
    return std::nullopt;
  }
  for (std::uint8_t id = 0; id < channels_.size(); ++id) {
    if (!channels_[id]) {
      channels_[id] = mode;
      ++open_channels_;
      last_rr_ = top::make_ok(id);
      return ChannelInfo{id, mode, key, static_cast<std::uint8_t>(tag_len),
                         static_cast<std::uint8_t>(nonce_len)};
    }
  }
  last_rr_ = top::make_error(top::ControlError::kChannelsExhausted);
  return std::nullopt;
}

bool FastDevice::close_channel(std::uint8_t channel_id) {
  if (channel_id >= channels_.size() || !channels_[channel_id]) {
    last_rr_ = top::make_error(top::ControlError::kNoChannel);
    return false;
  }
  channels_[channel_id].reset();
  --open_channels_;
  last_rr_ = top::make_ok(channel_id);
  return true;
}

DeviceJobId FastDevice::submit(JobSpec spec) {
  // Same seam contract as SimDevice: the simulated hardware cannot serve
  // this packet, so the fast path must not silently compute it.
  if (refused_at_submit(spec)) return book_.refuse(now_);
  return book_.enqueue(std::move(spec), now_).id;
}

void FastDevice::advance_to(sim::Cycle target) {
  while (!book_.idle() && now_ < target) step();
  now_ = std::max(now_, target);
}

void FastDevice::schedule_pending() {
  // Serve the most urgent pending packet first — lowest priority value,
  // arrival order within a class (SIII.C / SVIII QoS), exactly like
  // SimDevice's pump loop: the head of the lowest-priority bucket. Keep
  // placing packets until that head cannot get a core this round.
  while (Job* head = book_.head()) {
    Job& job = *head;
    const std::uint8_t channel = job.spec.channel.id;
    if (channel >= channels_.size() || channels_[channel] != job.spec.channel.mode) {
      // SimDevice's unrecoverable-submit path: the job fails after one
      // ENCRYPT/DECRYPT round trip, with no core time charged.
      book_.pop_head();
      book_.fail(job.id, now_ + accept_control_cycles(config_.control_latency_cycles));
      continue;
    }

    // Personality gate (paper SVII.B): only slots hosting this mode's
    // image are schedulable. If NO slot hosts it (nor a running swap will
    // land it), the packet is never silently computed: schedule a partial
    // reconfiguration of the highest-index idle slot (auto_reconfig; low
    // indices stay AES so CCM pairs keep finding cores) or fail it fast.
    const reconfig::CoreImage need = image_for_mode(job.spec.channel.mode);
    const std::size_t n = core_free_.size();
    std::size_t first_free = n;  // first idle core hosting `need`
    std::size_t total_free = 0;  // idle cores of ANY personality (adaptive CCM)
    // Acquirable = some slot's committed-or-landing image is `need`
    // (core_target_ is exactly that, matching Mccp::image_acquirable —
    // a slot mid-swap AWAY from `need` does not count).
    bool acquirable = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (core_target_[i] == need) acquirable = true;
      if (core_free_[i] <= now_) {
        ++total_free;
        if (first_free == n && image_at(i, now_) == need) first_free = i;
      }
    }
    if (first_free == n) {
      if (!acquirable) {
        if (!config_.auto_reconfig) {
          // Seam-style failure: SimDevice's personality gate rejects
          // before any control instruction is exchanged, so no
          // accept-latency is charged (unlike an unknown channel, which
          // models a failed ENCRYPT/DECRYPT round trip) — and, like the
          // pump, at most one head is rejected per scheduling round.
          book_.pop_head();
          book_.fail(job.id, now_);
          return;
        }
        for (std::size_t i = n; i-- > 0;)
          if (begin_reconfiguration(i, need, config_.bitstream_store)) break;
        // Every slot busy: retry once a completion frees one.
      }
      if (!job.first_denied) job.first_denied = now_;  // busy: controller retries
      return;
    }

    // Adaptive CCM looks at total idle capacity, matching the simulated
    // scheduler's idle_core_count() — which counts idle cores of every
    // personality, not just the AES ones this packet can run on.
    const bool want_pair =
        job.spec.channel.mode == ChannelMode::kCcm &&
        (config_.ccm_mapping == top::CcmMapping::kPairPreferred ||
         (config_.ccm_mapping == top::CcmMapping::kAdaptive &&
          total_free * 2 > n));
    // Pair selection mirrors Mccp::find_idle_pair: the first RING-ADJACENT
    // pair of idle AES-image cores, in index order (split CCM streams
    // through the inter-core shift registers, so only neighbours qualify);
    // no adjacent pair -> single-core fallback, like the simulator.
    CoreSet cores{{first_free, 0}, 1};
    if (want_pair && n >= 2) {
      auto aes_idle = [&](std::size_t i) {
        return core_free_[i] <= now_ &&
               image_at(i, now_) == reconfig::CoreImage::kAesEncryptWithKs;
      };
      for (std::size_t i = 0; i < n; ++i) {
        std::size_t j = (i + 1) % n;
        if (aes_idle(i) && aes_idle(j)) {
          cores = {{i, j}, 2};
          break;
        }
      }
    }

    book_.pop_head();
    start_job(job, cores);
  }
}

void FastDevice::start_job(Job& job, CoreSet cores) {
  const ChannelInfo& ch = job.spec.channel;
  const bool split = cores.size == 2;

  // Key Scheduler accounting: a core pays the word-serial round-key
  // expansion unless its key cache already holds this key generation.
  const Key* key = nullptr;
  sim::Cycle key_load = 0;
  if (ch.mode != ChannelMode::kWhirlpool) {
    job.key = keys_.at(ch.key_id);
    key = job.key.get();
    for (std::size_t c : cores) {
      if (config_.key_cache_enabled && core_key_[c] &&
          core_key_[c]->first == ch.key_id && core_key_[c]->second == key->generation)
        continue;
      key_load = std::max<sim::Cycle>(
          key_load, static_cast<sim::Cycle>(top::key_expansion_cycles(key->expanded.key_size)));
      core_key_[c] = {ch.key_id, key->generation};
    }
  }

  const std::size_t aad_blocks = header_blocks(ch.mode, job.spec.aad.size());
  std::size_t payload_blocks = (job.spec.payload.size() + 15) / 16;
  if (ch.mode == ChannelMode::kWhirlpool)
    payload_blocks = crypto::whirlpool_padded_len(job.spec.payload.size()) / 64;

  const crypto::AesKeySize ks = key ? key->expanded.key_size : crypto::AesKeySize::k128;
  ComputeCost cost = packet_compute_cycles(ch.mode, ks, aad_blocks, payload_blocks, split);

  const sim::Cycle accept = now_ + accept_control_cycles(config_.control_latency_cycles);
  const sim::Cycle occupancy = key_load + std::max(cost.lane0, cost.lane1);
  const sim::Cycle done = accept + occupancy + retire_control_cycles(config_.control_latency_cycles);

  JobResult& res = book_.result_at(job.id);
  if (job.first_denied) {
    // SimDevice counts one rejection per busy-error retry of the ENCRYPT/
    // DECRYPT instruction, one instruction latency apart — reconstruct
    // the same figure from the time this job spent denied a core.
    res.rejections = static_cast<std::uint32_t>(
        (now_ - *job.first_denied) / accept_control_cycles(config_.control_latency_cycles) + 1);
  }
  for (std::size_t c : cores) core_free_[c] = done;

  res.accept_cycle = accept;

  job.done_at = done;
  running_.push_back(job.id);
  if (ch.mode == ChannelMode::kCcm) {
    // Parked in the lanes now, with the key bundle of this dispatch;
    // computed beside the device's other CCM packets until it retires.
    JobSpec& s = job.spec;
    const crypto::AesRoundKeys& keys = key->expanded;
    const crypto::CcmParams p{s.channel.tag_len, s.channel.nonce_len};
    job.lane = lanes_.submit(
        s.decrypt ? crypto::CcmJob::open_in_place(keys, p, s.iv_or_nonce, s.aad, s.payload, s.tag)
                  : crypto::CcmJob::seal_in_place(keys, p, s.iv_or_nonce, s.aad, s.payload));
  }
}

void FastDevice::compute(Job& job, JobResult& res) {
  const ChannelInfo& ch = job.spec.channel;
  JobSpec& s = job.spec;
  res.auth_ok = true;
  switch (ch.mode) {
    case ChannelMode::kGcm: {
      // The simulated GCM firmware walks the data counters with the INC
      // core's 16-bit increments. tag_len is whatever 1..16 bytes the
      // channel's 4-bit field holds (refused_at_submit has held an open's
      // tag to exactly that), so the seal truncates the full tag and the
      // open takes any tag length.
      const crypto::GcmKey& key = job.key->gcm;
      constexpr auto kWalk = crypto::GcmCounter::kInc16;
      if (s.decrypt) {
        res.auth_ok =
            crypto::gcm_open_in_place(key, s.iv_or_nonce, s.aad, s.payload, s.tag, kWalk);
      } else {
        const Block128 tag =
            crypto::gcm_seal_in_place(key, s.iv_or_nonce, s.aad, s.payload, kWalk);
        res.tag.assign(tag.b.begin(), tag.b.begin() + ch.tag_len);
      }
      break;
    }
    case ChannelMode::kCcm: {
      crypto::CcmJob& done = lanes_.finish(job.lane);
      res.auth_ok = done.ok;
      res.tag = std::move(done.sealed_tag);
      break;
    }
    case ChannelMode::kCtr:
      // The INC core's 16-bit counter walk, matching the simulated
      // hardware on wrap (differential-tested with a 0xFFFF counter).
      crypto::ctr_transform_inc16_in_place(job.key->expanded, Block128::from_span(s.iv_or_nonce),
                                           s.payload);
      break;
    case ChannelMode::kCbcMac: {
      crypto::CbcMac mac(job.key->expanded);
      mac.update_padded(s.payload);
      if (!s.decrypt) {
        res.tag.assign(mac.mac().b.begin(), mac.mac().b.begin() + ch.tag_len);
        return;
      }
      res.auth_ok = hw_tag_ok(mac.mac(), s.tag, ch.tag_len);
      // The simulated verify core streams no output; SimDevice surfaces a
      // zero placeholder of message length, so mirror that exactly.
      std::fill(s.payload.begin(), s.payload.end(), 0);
      break;
    }
    case ChannelMode::kWhirlpool: {
      auto digest = crypto::whirlpool(s.payload);
      res.payload.assign(digest.begin(), digest.end());
      return;
    }
  }
  yield_payload(s.payload, res);
}

void FastDevice::step() {
  schedule_pending();

  // Event-driven clock: jump to the next completion (but always advance at
  // least one cycle, per the Device contract). Only the running set — at
  // most one job per core — needs scanning, never the pending backlog.
  // With packets queued behind a reconfiguring slot, the swap's end cycle
  // is an event too (nothing else would wake the scheduler).
  sim::Cycle next = 0;
  bool have_next = false;
  for (DeviceJobId id : running_) {
    const sim::Cycle done_at = book_.job(id).done_at;
    if (!have_next || done_at < next) {
      next = done_at;
      have_next = true;
    }
  }
  if (book_.has_pending()) {
    for (sim::Cycle until : core_swap_until_) {
      if (until > now_ && (!have_next || until < next)) {
        next = until;
        have_next = true;
      }
    }
  }
  now_ = have_next ? std::max(now_ + 1, next) : now_ + 1;

  for (auto it = running_.begin(); it != running_.end();) {
    Job& job = book_.job(*it);
    if (job.done_at <= now_) {
      compute(job, book_.result_at(*it));
      book_.complete(*it, job.done_at);  // last: resets the record `job` refers to
      it = running_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace mccp::host
