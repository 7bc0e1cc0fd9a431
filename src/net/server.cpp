#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace mccp::net {

namespace {

/// Engine rounds per loop iteration: the slice of device time taken
/// between socket servicings while work is in flight.
constexpr std::size_t kStepRounds = 32;

void set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

/// Everything the server tracks for one connected client.
struct Server::Session {
  int fd = -1;
  std::uint64_t id = 0;
  std::string peer;
  bool ready = false;    // HELLO/WELCOME handshake completed
  bool closing = false;  // flush remaining egress, then close
  /// Tenant from HELLO (qos::TenantTable id, 0 = none); every channel this
  /// session opens binds to it, so admission shares the tenant's budget.
  std::uint16_t tenant = 0;
  bool dead = false;     // remove at the end of the loop iteration
  /// Client half-closed its write side (recv saw EOF) but may still be
  /// reading: no more requests will arrive, yet in-flight jobs and queued
  /// egress (a large completion mid-write) must still be delivered. The
  /// session is reaped once both drain.
  bool rx_closed = false;

  std::vector<std::uint8_t> rx;
  /// Egress as a flat buffer with a consumed-head offset (compacted when
  /// the head outgrows half the buffer) — frames append cheaply and
  /// partial sends don't reshuffle bytes.
  std::vector<std::uint8_t> egress;
  std::size_t egress_head = 0;

  std::map<std::uint32_t, host::Channel> channels;
  std::uint32_t next_channel = 1;
  std::size_t inflight = 0;  // submitted, not yet completed
  bool reads_paused = false;

  std::uint64_t stats_interval = 0;  // 0 = not subscribed
  std::uint64_t last_stats_cycle = 0;

  std::size_t egress_bytes() const { return egress.size() - egress_head; }
};

Server::Server(ServerConfig config) : config_(std::move(config)) {
  engine_ = std::make_unique<host::Engine>(config_.engine);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("net::Server: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("net::Server: bad bind address " + config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("net::Server: cannot bind/listen on " + config_.bind_address + ":" +
                             std::to_string(config_.port) + " (" + std::strerror(errno) + ")");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  set_nonblocking(listen_fd_);

  if (::pipe(wake_fds_) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("net::Server: pipe() failed");
  }
  set_nonblocking(wake_fds_[0]);
  set_nonblocking(wake_fds_[1]);
}

Server::~Server() {
  for (auto& [fd, s] : sessions_) ::close(fd);
  sessions_.clear();  // RAII-closes device channels while the engine lives
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

void Server::stop() {
  stopping_.store(true);
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

void Server::run() {
  std::vector<pollfd> fds;
  std::vector<Session*> fd_sessions;  // parallel to fds[2..]

  while (!stopping_.load()) {
    fds.clear();
    fd_sessions.clear();
    fds.push_back({listen_fd_,
                   static_cast<short>(sessions_.size() < config_.max_sessions ? POLLIN : 0), 0});
    fds.push_back({wake_fds_[0], POLLIN, 0});
    for (auto& [fd, s] : sessions_) {
      short events = 0;
      if (!s->reads_paused && !s->closing && !s->rx_closed) events |= POLLIN;
      if (s->egress_bytes() > 0) events |= POLLOUT;
      fds.push_back({fd, events, 0});
      fd_sessions.push_back(s.get());
    }

    // Busy fleet: take a zero-timeout poll between engine slices. Idle
    // fleet with nothing queued: block until a socket (or stop()) wakes us.
    const int timeout_ms = engine_->idle() ? -1 : 0;
    int rc = ::poll(fds.data(), fds.size(), timeout_ms);
    if (rc < 0 && errno != EINTR) break;

    if (fds[1].revents & POLLIN) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (fds[0].revents & POLLIN) accept_clients();

    for (std::size_t i = 0; i < fd_sessions.size(); ++i) {
      Session& s = *fd_sessions[i];
      const short re = fds[i + 2].revents;
      if (s.dead) continue;
      if (re & (POLLERR | POLLNVAL)) {
        s.dead = true;
        continue;
      }
      // POLLHUP with readable data still delivers the data first; read
      // handles the eventual 0-byte EOF.
      if (re & (POLLIN | POLLHUP)) read_session(s);
    }

    // A bounded slice of device time; completions land in session egress
    // queues via the callbacks registered at submit.
    engine_->pump(kStepRounds);
    push_stats();

    // Optimistic flush: completions enqueued this iteration go out now
    // when the socket has room; POLLOUT catches the rest next round.
    for (auto& [fd, s] : sessions_)
      if (!s->dead && s->egress_bytes() > 0) flush_session(*s);

    for (auto& [fd, s] : sessions_) {
      if (!s->dead && s->closing && s->egress_bytes() == 0) s->dead = true;
      // Half-closed client: linger until its in-flight jobs complete and
      // their frames are flushed, then close our side too.
      if (!s->dead && s->rx_closed && s->inflight == 0 && s->egress_bytes() == 0)
        s->dead = true;
    }

    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second->dead) {
        drop_session(*it->second);
        it = sessions_.erase(it);
      } else {
        update_pause(*it->second);
        ++it;
      }
    }
  }
}

void Server::accept_clients() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) return;  // EAGAIN or transient error: done accepting
    if (sessions_.size() >= config_.max_sessions) {
      // Best-effort typed rejection; the fd was never a session.
      std::vector<std::uint8_t> frame = encode_frame(
          ErrorFrame{ErrorCode::kBusy, 0, "server at max_sessions"});
      [[maybe_unused]] ssize_t n = ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    set_nodelay(fd);
    auto s = std::make_unique<Session>();
    s->fd = fd;
    s->id = next_session_id_++;
    char ip[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
    s->peer = std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port));
    sessions_by_id_[s->id] = s.get();
    sessions_.emplace(fd, std::move(s));
    sessions_accepted_.fetch_add(1);
  }
}

void Server::read_session(Session& s) {
  std::uint8_t buf[65536];
  ssize_t n = ::recv(s.fd, buf, sizeof(buf), 0);
  if (n == 0) {
    // Orderly shutdown of the client's write side (shutdown(SHUT_WR), or a
    // closing client draining responses). NOT a teardown: completions for
    // in-flight jobs and any partially written egress still go out; the
    // reap happens in run() once both have drained. A client that vanished
    // entirely surfaces as EPIPE on the next send instead.
    s.rx_closed = true;
    s.rx.clear();  // a partial frame can never complete now
    return;
  }
  if (n < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) s.dead = true;
    return;
  }
  s.rx.insert(s.rx.end(), buf, buf + n);

  // Frames decode in place from a moving head; the consumed prefix is
  // erased once per recv, and a trailing partial frame stays for the next.
  std::size_t head = 0;
  while (!s.dead && !s.closing) {
    Decoded d = decode_frame(std::span<const std::uint8_t>(s.rx).subspan(head));
    if (d.status == DecodeStatus::kNeedMore) break;
    if (d.status == DecodeStatus::kBad) {
      // Typed ERROR where possible, then drop — the byte stream is
      // unparseable from here on.
      send_error(s, d.error_code, 0, d.error);
      s.closing = true;
      break;
    }
    head += d.consumed;
    frames_received_.fetch_add(1);
    handle_frame(s, std::move(d.frame));
  }
  s.rx.erase(s.rx.begin(), s.rx.begin() + static_cast<std::ptrdiff_t>(head));
}

void Server::handle_frame(Session& s, Frame frame) {
  if (auto* hello = std::get_if<HelloFrame>(&frame)) {
    if (s.ready) {
      send_error(s, ErrorCode::kMalformedFrame, 0, "repeated HELLO");
      s.closing = true;
      return;
    }
    if (hello->ver_min > kProtocolVersion || hello->ver_max < kProtocolVersion) {
      send_error(s, ErrorCode::kVersionMismatch, 0,
                 "server speaks version " + std::to_string(kProtocolVersion) +
                     ", client offered [" + std::to_string(hello->ver_min) + ", " +
                     std::to_string(hello->ver_max) + "]");
      s.closing = true;
      return;
    }
    if (hello->tenant != 0 && !engine_->tenants().known(hello->tenant)) {
      send_error(s, ErrorCode::kUnknownTenant, 0,
                 "tenant " + std::to_string(hello->tenant) + " is not registered");
      s.closing = true;
      return;
    }
    s.tenant = hello->tenant;
    s.ready = true;
    WelcomeFrame w;
    w.version = kProtocolVersion;
    w.backend = static_cast<std::uint8_t>(config_.engine.backend);
    w.devices = static_cast<std::uint16_t>(engine_->num_devices());
    w.cores_per_device = static_cast<std::uint16_t>(config_.engine.device.num_cores);
    w.server_name = config_.name;
    send_frame(s, w);
    return;
  }

  if (!s.ready) {
    send_error(s, ErrorCode::kNotReady, 0,
               std::string(op_name(frame_op(frame))) + " before HELLO");
    s.closing = true;
    return;
  }

  struct Visitor {
    Server& srv;
    Session& s;
    const Frame& frame;

    void operator()(HelloFrame&) {}  // handled above
    void operator()(ProvisionKeyFrame& f) {
      if (f.key.empty()) {
        srv.send_error(s, ErrorCode::kKeyRejected, f.request_id, "empty session key");
        return;
      }
      srv.engine_->provision_key(f.key_id, f.key);
      srv.send_frame(s, AckFrame{f.request_id});
    }
    void operator()(OpenChannelFrame& f) {
      if (f.mode > static_cast<std::uint8_t>(top::ChannelMode::kWhirlpool)) {
        srv.send_error(s, ErrorCode::kOpenFailed, f.request_id,
                       "unknown channel mode " + std::to_string(f.mode));
        return;
      }
      host::Channel ch = srv.engine_->open_channel(static_cast<top::ChannelMode>(f.mode),
                                                   f.key_id, f.tag_len, f.nonce_len, s.tenant);
      if (!ch) {
        srv.send_error(s, ErrorCode::kOpenFailed, f.request_id,
                       "device OPEN rejected (rr=" +
                           std::to_string(srv.engine_->last_error()) + ")");
        return;
      }
      OpenOkFrame ok;
      ok.request_id = f.request_id;
      ok.channel = s.next_channel++;
      ok.mode = static_cast<std::uint8_t>(ch.mode());
      ok.tag_len = ch.info().tag_len;
      ok.nonce_len = ch.info().nonce_len;
      ok.device_index = static_cast<std::uint16_t>(ch.device_index());
      s.channels.emplace(ok.channel, std::move(ch));
      srv.send_frame(s, ok);
    }
    void operator()(CloseChannelFrame& f) {
      auto it = s.channels.find(f.channel);
      if (it == s.channels.end()) {
        srv.send_error(s, ErrorCode::kUnknownChannel, f.request_id,
                       "CLOSE_CHANNEL on unknown channel " + std::to_string(f.channel));
        return;
      }
      s.channels.erase(it);  // RAII: device slot freed
      srv.send_frame(s, AckFrame{f.request_id});
    }
    void operator()(SubmitFrame& f) {
      std::vector<SubmitJob> jobs;
      jobs.push_back(std::move(f.job));
      srv.handle_submit_jobs(s, f.channel, std::move(jobs));
    }
    void operator()(SubmitBatchFrame& f) { srv.handle_submit_jobs(s, f.channel, std::move(f.jobs)); }
    void operator()(StatsSubscribeFrame& f) {
      s.stats_interval = f.interval_cycles;
      srv.send_frame(s, AckFrame{f.request_id});
      if (f.interval_cycles > 0) {
        // Immediate snapshot; the next push waits a full interval.
        StatsFrame st = srv.stats_now();
        s.last_stats_cycle = st.engine_cycle;
        srv.send_frame(s, st);
      }
    }
    void operator()(GoodbyeFrame&) { s.closing = true; }
    // Server-to-client opcodes arriving at the server are a violation.
    void operator()(WelcomeFrame&) { reject(); }
    void operator()(ErrorFrame&) { reject(); }
    void operator()(AckFrame&) { reject(); }
    void operator()(OpenOkFrame&) { reject(); }
    void operator()(CompletionFrame&) { reject(); }
    void operator()(StatsFrame&) { reject(); }

    void reject() {
      srv.send_error(s, ErrorCode::kMalformedFrame, 0,
                     std::string(op_name(frame_op(frame))) + " is a server-to-client frame");
      s.closing = true;
    }
  };
  std::visit(Visitor{*this, s, frame}, frame);
}

void Server::handle_submit_jobs(Session& s, std::uint32_t channel,
                                std::vector<SubmitJob> jobs) {
  auto it = s.channels.find(channel);
  if (it == s.channels.end()) {
    // Typed, job-referenced error; the session survives (the client can
    // map the ref back to a failed submit).
    const std::uint64_t ref = jobs.empty() ? 0 : jobs.front().job_id;
    send_error(s, ErrorCode::kUnknownChannel, ref,
               "SUBMIT on unknown channel " + std::to_string(channel));
    return;
  }
  if (jobs.empty()) return;

  std::vector<host::JobSpec> specs;
  specs.reserve(jobs.size());
  for (SubmitJob& j : jobs) {
    host::JobSpec spec;
    spec.decrypt = j.decrypt;
    spec.iv_or_nonce = std::move(j.iv);
    spec.aad = std::move(j.aad);
    spec.payload = std::move(j.payload);
    spec.tag = std::move(j.tag);
    spec.priority = j.priority;
    specs.push_back(std::move(spec));
  }

  // Tenant QoS: the engine enforces the session tenant's rate/quota at the
  // submit boundary (atomically for the whole batch — no partial accepts).
  // Refusals are typed, job-referenced and non-fatal: one ERROR per job so
  // the client can resolve each as a failed completion, and the session
  // stays up to retry after backoff.
  std::vector<host::Completion> completions;
  try {
    completions = engine_->submit_batch(it->second, std::move(specs));
  } catch (const qos::TenantError& e) {
    const ErrorCode code = dynamic_cast<const qos::TenantQuotaExceededError*>(&e) != nullptr
                               ? ErrorCode::kTenantQuotaExceeded
                               : ErrorCode::kTenantThrottled;
    for (const SubmitJob& j : jobs) send_error(s, code, j.job_id, e.what());
    return;
  }
  s.inflight += jobs.size();
  for (std::size_t i = 0; i < completions.size(); ++i) {
    // Capture the session *id*, not the session: if the client disconnects
    // while the job is on a device, the completion finds no session and is
    // dropped — no dangling pointer, no cross-session interference.
    const std::uint64_t session_id = s.id;
    const std::uint64_t job_id = jobs[i].job_id;
    completions[i].on_done([this, session_id, job_id](const host::JobResult& r) {
      auto sit = sessions_by_id_.find(session_id);
      if (sit == sessions_by_id_.end()) return;
      Session& owner = *sit->second;
      if (owner.inflight > 0) --owner.inflight;
      if (owner.dead) return;
      encode_completion({.job_id = job_id,
                         .auth_ok = r.auth_ok,
                         .rejections = r.rejections,
                         .submit_cycle = r.submit_cycle,
                         .accept_cycle = r.accept_cycle,
                         .complete_cycle = r.complete_cycle,
                         .payload = r.payload,
                         .tag = r.tag},
                        owner.egress);
      note_egress(owner);
      completions_sent_.fetch_add(1);
    });
  }
}

void Server::send_frame(Session& s, const Frame& frame) {
  if (s.dead) return;
  encode_frame(frame, s.egress);
  note_egress(s);
}

void Server::note_egress(const Session& s) {
  const std::size_t bytes = s.egress_bytes();
  std::size_t peak = peak_session_egress_.load();
  while (bytes > peak && !peak_session_egress_.compare_exchange_weak(peak, bytes)) {
  }
}

void Server::send_error(Session& s, ErrorCode code, std::uint64_t ref,
                        const std::string& message) {
  send_frame(s, ErrorFrame{code, ref, message});
  errors_sent_.fetch_add(1);
}

void Server::flush_session(Session& s) {
  while (s.egress_bytes() > 0) {
    ssize_t n = ::send(s.fd, s.egress.data() + s.egress_head, s.egress_bytes(), MSG_NOSIGNAL);
    if (n > 0) {
      s.egress_head += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    s.dead = true;
    return;
  }
  if (s.egress_head == s.egress.size()) {
    s.egress.clear();
    s.egress_head = 0;
  } else if (s.egress_head > 65536 && s.egress_head > s.egress.size() / 2) {
    s.egress.erase(s.egress.begin(), s.egress.begin() + static_cast<std::ptrdiff_t>(s.egress_head));
    s.egress_head = 0;
  }
}

void Server::drop_session(Session& s) {
  sessions_by_id_.erase(s.id);
  ::close(s.fd);
  // s.channels destructs with the Session: every device channel slot this
  // client held is CLOSEd; its in-flight jobs complete into the void.
  sessions_dropped_.fetch_add(1);
}

void Server::update_pause(Session& s) {
  const bool over_budget = s.inflight >= config_.session_inflight_budget ||
                           s.egress_bytes() >= config_.session_egress_cap;
  s.reads_paused = over_budget;
}

StatsFrame Server::stats_now() const {
  StatsFrame f;
  f.engine_cycle = engine_->max_cycle();
  f.completed_jobs = engine_->completed_jobs();
  const host::DeviceStats fleet = engine_->device_stats();
  f.inflight = fleet.inflight;
  f.reconfigurations = fleet.reconfigurations;
  f.reconfig_stall_cycles = fleet.reconfig_stall_cycles;
  f.sessions = static_cast<std::uint32_t>(sessions_.size());
  f.devices = static_cast<std::uint16_t>(engine_->num_devices());
  return f;
}

void Server::push_stats() {
  StatsFrame now{};
  bool have_now = false;
  for (auto& [fd, s] : sessions_) {
    if (s->dead || s->stats_interval == 0) continue;
    if (!have_now) {
      now = stats_now();
      have_now = true;
    }
    if (now.engine_cycle - s->last_stats_cycle < s->stats_interval) continue;
    s->last_stats_cycle = now.engine_cycle;
    send_frame(*s, now);
  }
}

}  // namespace mccp::net
