// net::Client — the wire-level client for the crypto-offload service.
//
// One Client owns one TCP connection. The constructor connects and runs
// the HELLO/WELCOME version handshake; control-plane calls
// (provision_key, open_channel, close_channel) block until the matching
// ACK/OPEN_OK/ERROR reply, dispatching any asynchronous frames (job
// completions, stats pushes) that arrive in the meantime. The data plane
// is asynchronous, mirroring host::Engine: submit()/submit_batch() queue
// SUBMIT frames with a per-job callback, and poll()/drain() pump the
// socket and fire callbacks as COMPLETION frames arrive.
//
// Batched sends: every outgoing frame is appended to one FIFO send queue.
// The queue goes out, in as few send() calls as the socket takes and in
// the order the frames were queued, at:
//   * the start of each poll(), and again at its end, so a job submitted
//     from a completion callback leaves in the same poll();
//   * each step of drain();
//   * each blocking control call (provision_key, open_channel,
//     close_channel, stats_snapshot) before it waits for its reply;
//   * the destructor, after the GOODBYE frame is queued;
//   * any submit or control frame that brings the queue to 64 KiB.
// A send the socket cannot take yet stays queued for the next of these.
//
// Deadlock note: the server applies backpressure by not reading a
// flooding client's socket, so a client that only ever writes can wedge
// with both directions full. No send here blocks: what the socket cannot
// take stays queued, and every waiting loop (poll, drain, control replies)
// keeps reading — completions are consumed (freeing server egress and
// in-flight budget) while the submit backlog trickles out.
//
// A Client is single-threaded: all calls from one thread. Concurrency
// comes from many Clients (see net/swarm.h).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "net/protocol.h"

namespace mccp::net {

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string name = "mccp-client";
  /// Tenant id announced in HELLO (0 = untenanted). Every channel this
  /// connection opens binds to it; an id the server has not registered is
  /// rejected at handshake time (kUnknownTenant).
  std::uint16_t tenant = 0;
  /// Cap on any single blocking wait (handshake, control reply, drain
  /// step); exceeding it throws std::runtime_error.
  int io_timeout_ms = 30'000;
};

class Client {
 public:
  /// Connects and completes the HELLO/WELCOME handshake; throws
  /// std::runtime_error on refusal, version mismatch or timeout.
  explicit Client(const ClientConfig& config);
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  /// Best-effort GOODBYE, then closes the socket.
  ~Client();

  /// The server's handshake reply (backend, fleet shape, name).
  const WelcomeFrame& welcome() const { return welcome_; }

  // -- control plane (blocking request/reply) ----------------------------------
  void provision_key(std::uint8_t key_id, const Bytes& key);
  /// Opens a device channel; throws with the server's typed ERROR text on
  /// rejection.
  OpenOkFrame open_channel(std::uint8_t mode, std::uint8_t key_id, std::uint8_t tag_len = 16,
                           std::uint8_t nonce_len = 13);
  void close_channel(std::uint32_t channel);
  /// One fresh STATS snapshot (subscribes, takes the immediate push,
  /// unsubscribes).
  StatsFrame stats_snapshot();

  // -- data plane (asynchronous) -----------------------------------------------
  /// Fires exactly once per job: with the COMPLETION frame, or with a
  /// synthesized !auth_ok frame if the server rejected the submit with a
  /// job-referenced ERROR.
  using CompletionFn = std::function<void(const CompletionFrame&)>;

  /// Queue one job. `job.job_id` must be unique among this client's
  /// in-flight jobs (the completion echoes it back).
  void submit(std::uint32_t channel, SubmitJob job, CompletionFn fn);
  /// Queue a burst on one channel as a single SUBMIT_BATCH frame; `fn` is
  /// shared by every job in the batch.
  void submit_batch(std::uint32_t channel, std::vector<SubmitJob> jobs, CompletionFn fn);

  /// Jobs submitted whose completion has not yet fired.
  std::size_t inflight() const { return pending_.size(); }

  /// Pump I/O once: flush queued sends, read what's available, dispatch
  /// completion callbacks, then flush what the callbacks queued.
  /// timeout_ms 0 polls, > 0 blocks until activity.
  /// Returns the number of completions dispatched.
  std::size_t poll(int timeout_ms);
  /// Pump until every in-flight job completed (throws on timeout).
  void drain(int timeout_ms = 60'000);

 private:
  void send_frame(const Frame& frame);
  void flush_tx();
  /// One bounded poll()+recv pass; dispatches frames. Returns false on
  /// timeout with no activity.
  bool pump(int timeout_ms);
  /// Pump until the reply (ACK / OPEN_OK / job-unrelated ERROR) for
  /// `request_id` arrives.
  Frame wait_reply(std::uint64_t request_id);
  void dispatch(Frame frame);
  [[noreturn]] void fail(const std::string& what);

  int fd_ = -1;
  ClientConfig config_;
  WelcomeFrame welcome_;
  bool welcomed_ = false;
  std::vector<std::uint8_t> rx_;
  std::size_t rx_head_ = 0;  // decoded, not yet erased
  std::vector<std::uint8_t> tx_;
  std::size_t tx_head_ = 0;
  std::uint32_t next_request_ = 1;
  std::map<std::uint64_t, CompletionFn> pending_;  // by job_id
  std::size_t dispatched_ = 0;                     // completions fired in current poll()

  // Blocking-reply rendezvous (control calls are serialized, so one slot).
  std::uint64_t want_request_ = 0;
  std::optional<Frame> reply_;
  // stats_snapshot rendezvous.
  bool want_stats_ = false;
  std::optional<StatsFrame> stats_;
};

}  // namespace mccp::net
