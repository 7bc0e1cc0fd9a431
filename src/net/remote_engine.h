// net::RemoteEngine — the in-process Engine API, over the wire.
//
// Wraps one net::Client and re-exposes the host::Engine surface the
// workload layer programs against: provision_key / open_channel (RAII
// RemoteChannel) / submit_encrypt / submit_decrypt / submit_batch
// returning RemoteCompletion tokens with the same done()/result()/
// on_done() contract as host::Completion. Code written for the
// in-process engine ports by swapping types and replacing step-driven
// pumping with poll() — which is exactly how examples/net_offload.cpp
// uses it. The client-swarm scenario replay (net/swarm.h) drives
// net::Client directly instead.
//
// Same threading contract as Client: one thread per RemoteEngine.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "host/device.h"
#include "net/client.h"

namespace mccp::net {

class RemoteEngine;

/// RAII handle to a server-side channel: destroying it sends
/// CLOSE_CHANNEL, mirroring host::Channel's auto-CLOSE.
class RemoteChannel {
 public:
  RemoteChannel() = default;
  RemoteChannel(RemoteChannel&& other) noexcept { *this = std::move(other); }
  RemoteChannel& operator=(RemoteChannel&& other) noexcept;
  RemoteChannel(const RemoteChannel&) = delete;
  RemoteChannel& operator=(const RemoteChannel&) = delete;
  ~RemoteChannel() { close(); }

  bool valid() const { return engine_ != nullptr; }
  explicit operator bool() const { return valid(); }

  std::uint32_t id() const { return id_; }
  top::ChannelMode mode() const { return mode_; }
  std::uint8_t tag_len() const { return tag_len_; }
  std::uint8_t nonce_len() const { return nonce_len_; }
  /// Which fleet device the server placed this channel on.
  std::uint16_t device_index() const { return device_index_; }

  void close();

 private:
  friend class RemoteEngine;
  RemoteEngine* engine_ = nullptr;
  std::uint32_t id_ = 0;
  top::ChannelMode mode_{};
  std::uint8_t tag_len_ = 16;
  std::uint8_t nonce_len_ = 13;
  std::uint16_t device_index_ = 0;
};

/// Async handle for one remote job; same contract as host::Completion.
class RemoteCompletion {
 public:
  RemoteCompletion() = default;

  bool valid() const { return state_ != nullptr; }
  std::uint64_t id() const { return state_ ? state_->job_id : 0; }
  bool done() const { return state_ && state_->done; }

  /// Final result; throws std::logic_error while still in flight. As on
  /// host::Completion, a temporary handle has no result to lend.
  const host::JobResult& result() const&;
  const host::JobResult& result() const&& = delete;

  /// Fires exactly once — immediately if already done, otherwise from
  /// RemoteEngine::poll() when the COMPLETION frame arrives.
  void on_done(std::function<void(const host::JobResult&)> fn);

  /// Pump the connection until this job completes (throws on timeout).
  /// The handle is the job state's last owner once the COMPLETION frame
  /// has fired, so a temporary returns the result by value.
  const host::JobResult& wait(int timeout_ms = 60'000) &;
  host::JobResult wait(int timeout_ms = 60'000) &&;

 private:
  friend class RemoteEngine;
  struct State {
    std::uint64_t job_id = 0;
    bool done = false;
    host::JobResult result;
    std::vector<std::function<void(const host::JobResult&)>> callbacks;
  };
  RemoteCompletion(RemoteEngine* engine, std::shared_ptr<State> state)
      : engine_(engine), state_(std::move(state)) {}

  RemoteEngine* engine_ = nullptr;
  std::shared_ptr<State> state_;
};

class RemoteEngine {
 public:
  /// Connects + handshakes (throws on failure).
  explicit RemoteEngine(const ClientConfig& config);

  const WelcomeFrame& welcome() const { return client_.welcome(); }

  // -- main-controller / control plane -----------------------------------------
  void provision_key(top::KeyId id, const Bytes& session_key);
  /// Throws with the server's typed ERROR text on rejection (the
  /// in-process engine returns an invalid handle; over the wire the
  /// failure already carries a message, so surface it).
  RemoteChannel open_channel(top::ChannelMode mode, top::KeyId key, unsigned tag_len = 16,
                             unsigned nonce_len = 13);

  // -- data plane ---------------------------------------------------------------
  RemoteCompletion submit_encrypt(const RemoteChannel& ch, Bytes iv_or_nonce, Bytes aad,
                                  Bytes plaintext, unsigned priority = 128);
  RemoteCompletion submit_decrypt(const RemoteChannel& ch, Bytes iv_or_nonce, Bytes aad,
                                  Bytes ciphertext, Bytes tag, unsigned priority = 128);
  /// One SUBMIT_BATCH frame; `spec.channel` is ignored (the handle names
  /// the channel), matching Engine::submit_batch.
  std::vector<RemoteCompletion> submit_batch(const RemoteChannel& ch,
                                             std::vector<host::JobSpec> specs);

  /// Pump the connection; returns completions fired. The remote
  /// equivalent of stepping the engine.
  std::size_t poll(int timeout_ms = 0) { return client_.poll(timeout_ms); }
  /// Pump until every in-flight job completed (throws on timeout).
  void wait_all(int timeout_ms = 60'000) { client_.drain(timeout_ms); }
  std::size_t inflight() const { return client_.inflight(); }

  /// Fresh server-side fleet snapshot (cycle clock, completed jobs,
  /// reconfiguration totals).
  StatsFrame stats() { return client_.stats_snapshot(); }

  Client& client() { return client_; }

 private:
  friend class RemoteChannel;
  friend class RemoteCompletion;

  RemoteCompletion submit_one(const RemoteChannel& ch, SubmitJob job);

  Client client_;
  /// Starts above any u32 request id so an ERROR `ref` is never ambiguous
  /// between the two number spaces.
  std::uint64_t next_job_ = std::uint64_t{1} << 32;
};

}  // namespace mccp::net
