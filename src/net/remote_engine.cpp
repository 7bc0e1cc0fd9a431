#include "net/remote_engine.h"

#include <chrono>
#include <map>
#include <stdexcept>
#include <utility>

namespace mccp::net {

namespace {

host::JobResult to_result(const CompletionFrame& c) {
  host::JobResult r;
  r.complete = true;
  r.auth_ok = c.auth_ok;
  r.payload = c.payload;
  r.tag = c.tag;
  r.submit_cycle = c.submit_cycle;
  r.accept_cycle = c.accept_cycle;
  r.complete_cycle = c.complete_cycle;
  r.rejections = c.rejections;
  return r;
}

}  // namespace

// -- RemoteChannel --------------------------------------------------------------

RemoteChannel& RemoteChannel::operator=(RemoteChannel&& other) noexcept {
  if (this != &other) {
    close();
    engine_ = std::exchange(other.engine_, nullptr);
    id_ = other.id_;
    mode_ = other.mode_;
    tag_len_ = other.tag_len_;
    nonce_len_ = other.nonce_len_;
    device_index_ = other.device_index_;
  }
  return *this;
}

void RemoteChannel::close() {
  if (!engine_) return;
  RemoteEngine* engine = std::exchange(engine_, nullptr);
  try {
    engine->client_.close_channel(id_);
  } catch (...) {
    // Destructor path on a dead connection: the server-side session
    // teardown already reclaimed the slot.
  }
}

// -- RemoteCompletion -----------------------------------------------------------

const host::JobResult& RemoteCompletion::result() const& {
  if (!done()) throw std::logic_error("RemoteCompletion::result: job still in flight");
  return state_->result;
}

void RemoteCompletion::on_done(std::function<void(const host::JobResult&)> fn) {
  if (!state_) return;
  if (state_->done) {
    fn(state_->result);
    return;
  }
  state_->callbacks.push_back(std::move(fn));
}

const host::JobResult& RemoteCompletion::wait(int timeout_ms) & {
  if (!state_) throw std::logic_error("RemoteCompletion::wait: invalid completion");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!state_->done) {
    if (std::chrono::steady_clock::now() >= deadline)
      throw std::runtime_error("RemoteCompletion::wait: timed out");
    engine_->poll(50);
  }
  return state_->result;
}

host::JobResult RemoteCompletion::wait(int timeout_ms) && { return wait(timeout_ms); }

// -- RemoteEngine ---------------------------------------------------------------

RemoteEngine::RemoteEngine(const ClientConfig& config) : client_(config) {}

void RemoteEngine::provision_key(top::KeyId id, const Bytes& session_key) {
  client_.provision_key(id, session_key);
}

RemoteChannel RemoteEngine::open_channel(top::ChannelMode mode, top::KeyId key, unsigned tag_len,
                                         unsigned nonce_len) {
  OpenOkFrame ok = client_.open_channel(static_cast<std::uint8_t>(mode), key,
                                        static_cast<std::uint8_t>(tag_len),
                                        static_cast<std::uint8_t>(nonce_len));
  RemoteChannel ch;
  ch.engine_ = this;
  ch.id_ = ok.channel;
  ch.mode_ = static_cast<top::ChannelMode>(ok.mode);
  ch.tag_len_ = ok.tag_len;
  ch.nonce_len_ = ok.nonce_len;
  ch.device_index_ = ok.device_index;
  return ch;
}

RemoteCompletion RemoteEngine::submit_one(const RemoteChannel& ch, SubmitJob job) {
  job.job_id = next_job_++;
  auto state = std::make_shared<RemoteCompletion::State>();
  state->job_id = job.job_id;
  client_.submit(ch.id(), std::move(job), [state](const CompletionFrame& c) {
    state->done = true;
    state->result = to_result(c);
    auto callbacks = std::move(state->callbacks);
    state->callbacks.clear();
    for (auto& fn : callbacks) fn(state->result);
  });
  return RemoteCompletion(this, std::move(state));
}

RemoteCompletion RemoteEngine::submit_encrypt(const RemoteChannel& ch, Bytes iv_or_nonce,
                                              Bytes aad, Bytes plaintext, unsigned priority) {
  SubmitJob job;
  job.decrypt = false;
  job.priority = static_cast<std::uint8_t>(priority);
  job.iv = std::move(iv_or_nonce);
  job.aad = std::move(aad);
  job.payload = std::move(plaintext);
  return submit_one(ch, std::move(job));
}

RemoteCompletion RemoteEngine::submit_decrypt(const RemoteChannel& ch, Bytes iv_or_nonce,
                                              Bytes aad, Bytes ciphertext, Bytes tag,
                                              unsigned priority) {
  SubmitJob job;
  job.decrypt = true;
  job.priority = static_cast<std::uint8_t>(priority);
  job.iv = std::move(iv_or_nonce);
  job.aad = std::move(aad);
  job.payload = std::move(ciphertext);
  job.tag = std::move(tag);
  return submit_one(ch, std::move(job));
}

std::vector<RemoteCompletion> RemoteEngine::submit_batch(const RemoteChannel& ch,
                                                         std::vector<host::JobSpec> specs) {
  std::vector<RemoteCompletion> out;
  out.reserve(specs.size());
  std::vector<SubmitJob> jobs;
  jobs.reserve(specs.size());
  std::map<std::uint64_t, std::shared_ptr<RemoteCompletion::State>> states;
  for (host::JobSpec& spec : specs) {
    SubmitJob job;
    job.job_id = next_job_++;
    job.decrypt = spec.decrypt;
    job.priority = static_cast<std::uint8_t>(spec.priority);
    job.iv = std::move(spec.iv_or_nonce);
    job.aad = std::move(spec.aad);
    job.payload = std::move(spec.payload);
    job.tag = std::move(spec.tag);
    auto state = std::make_shared<RemoteCompletion::State>();
    state->job_id = job.job_id;
    states.emplace(job.job_id, state);
    out.push_back(RemoteCompletion(this, std::move(state)));
    jobs.push_back(std::move(job));
  }
  client_.submit_batch(ch.id(), std::move(jobs),
                       [states = std::move(states)](const CompletionFrame& c) {
                         auto it = states.find(c.job_id);
                         if (it == states.end()) return;
                         auto& state = *it->second;
                         state.done = true;
                         state.result = to_result(c);
                         auto callbacks = std::move(state.callbacks);
                         state.callbacks.clear();
                         for (auto& fn : callbacks) fn(state.result);
                       });
  return out;
}

}  // namespace mccp::net
