// net::Server — the crypto-offload service: a poll-driven TCP event loop
// that owns a host::Engine and multiplexes any number of client sessions
// onto the fleet.
//
// One thread runs everything (the Engine API is single-threaded by
// contract): the loop polls the listener and every session socket, decodes
// and executes frames (net/protocol.h), pumps the engine a bounded number
// of rounds (`Engine::pump`), encodes COMPLETION/STATS frames into the
// owning session's egress queue, and flushes writable sockets. When the
// fleet is idle and no egress is pending, the loop blocks in poll() — an
// idle server burns no CPU and the device clocks stay frozen, exactly like
// an idle in-process engine.
//
// Per-client state and backpressure (the Channel Access lesson: one
// flooding client must never starve the fleet or balloon server memory):
//
//  * Each session owns a private channel namespace: OPEN_CHANNEL returns a
//    session-scoped u32 id mapping to an RAII host::Channel, so a session
//    teardown (GOODBYE, disconnect, protocol violation) closes exactly its
//    own device channel slots and nobody else's.
//  * `session_inflight_budget` bounds the jobs a session may have
//    unfinished, and `session_egress_cap` bounds the bytes queued toward
//    it. When either is exhausted the server simply STOPS READING that
//    socket (its POLLIN is masked) until completions drain it back under
//    budget — kernel TCP flow control pushes back to the client, in-flight
//    work already accepted still completes, and every other session keeps
//    streaming. Session memory is therefore bounded by
//    egress_cap + inflight_budget * max completion size + one rx frame.
//  * A malformed frame, unknown opcode or oversized length prefix gets a
//    typed ERROR frame (when the socket still accepts writes) and the
//    session is dropped; its in-flight jobs finish into the void.
//
// The constructor binds and listens (so `port()` is valid before run());
// `run()` blocks until `stop()` — callable from any thread — wakes the
// loop via the self-pipe. tests/net/ drive a Server on an ephemeral
// loopback port from a std::thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "host/engine.h"
#include "net/protocol.h"

namespace mccp::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read the bound port via port()
  std::string name = "mccp-offload";
  /// The fleet this service fronts.
  host::EngineConfig engine{};
  /// Max unfinished jobs per session before its socket stops being read.
  std::size_t session_inflight_budget = 1024;
  /// Max queued egress bytes per session before its socket stops being
  /// read (completions for already-accepted jobs may still exceed this by
  /// at most inflight_budget frames — the documented bound).
  std::size_t session_egress_cap = 4u << 20;
  std::size_t max_sessions = 1024;
};

class Server {
 public:
  /// Binds + listens (throws std::runtime_error on socket failure).
  explicit Server(ServerConfig config);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();

  /// The bound TCP port (resolves config.port == 0).
  std::uint16_t port() const { return port_; }

  /// Event loop; blocks until stop(). Not re-entrant.
  void run();
  /// Thread-safe: request run() to return.
  void stop();

  // -- introspection (test seams; meaningful between/after run()) -------------
  struct SessionSnapshot {
    std::uint64_t id = 0;
    std::string peer;
    std::size_t inflight = 0;
    std::size_t egress_bytes = 0;
    bool reads_paused = false;
    std::size_t channels = 0;
  };
  /// Lifetime totals, readable from other threads while the loop runs.
  std::uint64_t sessions_accepted() const { return sessions_accepted_.load(); }
  std::uint64_t sessions_dropped() const { return sessions_dropped_.load(); }
  std::uint64_t frames_received() const { return frames_received_.load(); }
  std::uint64_t completions_sent() const { return completions_sent_.load(); }
  std::uint64_t errors_sent() const { return errors_sent_.load(); }
  /// High-water mark of any single session's egress queue, in bytes — the
  /// flooding-client tests pin this against the documented bound.
  std::size_t peak_session_egress() const { return peak_session_egress_.load(); }

 private:
  struct Session;

  void accept_clients();
  void read_session(Session& s);
  void handle_frame(Session& s, Frame frame);
  void handle_submit_jobs(Session& s, std::uint32_t channel, std::vector<SubmitJob> jobs);
  void send_frame(Session& s, const Frame& frame);
  /// Raise peak_session_egress() to `s`'s queued bytes after an append.
  void note_egress(const Session& s);
  void send_error(Session& s, ErrorCode code, std::uint64_t ref, const std::string& message);
  void flush_session(Session& s);
  void drop_session(Session& s);
  void push_stats();
  StatsFrame stats_now() const;
  void update_pause(Session& s);

  ServerConfig config_;
  std::unique_ptr<host::Engine> engine_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: stop() wakes a blocked poll()
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};

  std::map<int, std::unique_ptr<Session>> sessions_;  // by fd
  /// Liveness map for completion callbacks: a callback captures the
  /// session *id*, never a pointer — a session that died while its jobs
  /// were in flight simply isn't found and the completion is dropped.
  std::map<std::uint64_t, Session*> sessions_by_id_;
  std::uint64_t next_session_id_ = 1;

  std::atomic<std::uint64_t> sessions_accepted_{0};
  std::atomic<std::uint64_t> sessions_dropped_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> completions_sent_{0};
  std::atomic<std::uint64_t> errors_sent_{0};
  std::atomic<std::size_t> peak_session_egress_{0};
};

}  // namespace mccp::net
