#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace mccp::net {

namespace {

/// Queued bytes at which send_frame() flushes instead of waiting for the
/// next poll(), so a caller that submits without polling still sends.
constexpr std::size_t kTxFlushBytes = 64 * 1024;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Client::Client(const ClientConfig& config) : config_(config) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("net::Client: socket() failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config.port);
  if (::inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("net::Client: bad host address " + config.host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("net::Client: connect to " + config.host + ":" +
                             std::to_string(config.port) + " failed (" + std::strerror(err) + ")");
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);

  // Handshake: HELLO out, WELCOME (or typed ERROR) back.
  try {
    HelloFrame hello;
    hello.ver_min = kProtocolVersion;
    hello.ver_max = kProtocolVersion;
    hello.tenant = config.tenant;
    hello.client_name = config.name;
    send_frame(hello);
    flush_tx();

    const std::int64_t deadline = now_ms() + config.io_timeout_ms;
    while (!welcomed_) {
      if (now_ms() >= deadline) fail("handshake timed out");
      pump(50);
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

Client::~Client() {
  if (fd_ < 0) return;
  try {
    send_frame(GoodbyeFrame{});
    flush_tx();
  } catch (...) {
  }
  ::close(fd_);
}

void Client::fail(const std::string& what) {
  throw std::runtime_error("net::Client(" + config_.host + ":" + std::to_string(config_.port) +
                           "): " + what);
}

// -- control plane --------------------------------------------------------------

void Client::provision_key(std::uint8_t key_id, const Bytes& key) {
  ProvisionKeyFrame f;
  f.request_id = next_request_++;
  f.key_id = key_id;
  f.key = key;
  send_frame(f);
  Frame reply = wait_reply(f.request_id);
  if (auto* err = std::get_if<ErrorFrame>(&reply))
    fail("PROVISION_KEY rejected: [" + std::string(error_code_name(err->code)) + "] " +
         err->message);
}

OpenOkFrame Client::open_channel(std::uint8_t mode, std::uint8_t key_id, std::uint8_t tag_len,
                                 std::uint8_t nonce_len) {
  OpenChannelFrame f;
  f.request_id = next_request_++;
  f.mode = mode;
  f.key_id = key_id;
  f.tag_len = tag_len;
  f.nonce_len = nonce_len;
  send_frame(f);
  Frame reply = wait_reply(f.request_id);
  if (auto* err = std::get_if<ErrorFrame>(&reply))
    fail("OPEN_CHANNEL rejected: [" + std::string(error_code_name(err->code)) + "] " +
         err->message);
  if (auto* ok = std::get_if<OpenOkFrame>(&reply)) return *ok;
  fail("unexpected reply to OPEN_CHANNEL");
}

void Client::close_channel(std::uint32_t channel) {
  CloseChannelFrame f;
  f.request_id = next_request_++;
  f.channel = channel;
  send_frame(f);
  Frame reply = wait_reply(f.request_id);
  if (auto* err = std::get_if<ErrorFrame>(&reply))
    fail("CLOSE_CHANNEL rejected: [" + std::string(error_code_name(err->code)) + "] " +
         err->message);
}

StatsFrame Client::stats_snapshot() {
  // Subscribing triggers one immediate push; take it, then unsubscribe.
  StatsSubscribeFrame sub;
  sub.request_id = next_request_++;
  sub.interval_cycles = ~std::uint64_t{0};
  send_frame(sub);
  want_stats_ = true;
  stats_.reset();
  Frame reply = wait_reply(sub.request_id);
  if (auto* err = std::get_if<ErrorFrame>(&reply))
    fail("STATS_SUBSCRIBE rejected: [" + std::string(error_code_name(err->code)) + "] " +
         err->message);
  const std::int64_t deadline = now_ms() + config_.io_timeout_ms;
  while (!stats_.has_value()) {
    if (now_ms() >= deadline) fail("STATS push timed out");
    pump(50);
  }
  want_stats_ = false;
  StatsFrame snapshot = *stats_;
  stats_.reset();

  StatsSubscribeFrame unsub;
  unsub.request_id = next_request_++;
  unsub.interval_cycles = 0;
  send_frame(unsub);
  reply = wait_reply(unsub.request_id);
  if (auto* err = std::get_if<ErrorFrame>(&reply))
    fail("STATS unsubscribe rejected: " + err->message);
  return snapshot;
}

// -- data plane -----------------------------------------------------------------

void Client::submit(std::uint32_t channel, SubmitJob job, CompletionFn fn) {
  const std::uint64_t job_id = job.job_id;
  SubmitFrame f;
  f.channel = channel;
  f.job = std::move(job);
  pending_.emplace(job_id, std::move(fn));
  send_frame(f);
}

void Client::submit_batch(std::uint32_t channel, std::vector<SubmitJob> jobs, CompletionFn fn) {
  if (jobs.empty()) return;
  for (const SubmitJob& j : jobs) pending_.emplace(j.job_id, fn);
  SubmitBatchFrame f;
  f.channel = channel;
  f.jobs = std::move(jobs);
  send_frame(f);
}

std::size_t Client::poll(int timeout_ms) {
  dispatched_ = 0;
  flush_tx();
  pump(timeout_ms);
  flush_tx();  // jobs submitted from completion callbacks leave now
  return dispatched_;
}

void Client::drain(int timeout_ms) {
  const std::int64_t deadline = now_ms() + timeout_ms;
  while (!pending_.empty() || tx_head_ < tx_.size()) {
    if (now_ms() >= deadline) fail("drain timed out with " + std::to_string(pending_.size()) +
                                   " jobs still in flight");
    flush_tx();
    pump(50);
  }
}

// -- plumbing -------------------------------------------------------------------

void Client::send_frame(const Frame& frame) {
  encode_frame(frame, tx_);
  if (tx_.size() - tx_head_ >= kTxFlushBytes) flush_tx();
}

void Client::flush_tx() {
  for (;;) {
    if (tx_head_ == tx_.size()) {
      tx_.clear();
      tx_head_ = 0;
      return;
    }
    ssize_t n = ::send(fd_, tx_.data() + tx_head_, tx_.size() - tx_head_, MSG_NOSIGNAL);
    if (n > 0) {
      tx_head_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Socket full (the server may have paused reads on us): the rest
    // stays queued, and the caller's wait loop keeps reading meanwhile.
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    fail("send failed (" + std::string(std::strerror(errno)) + ")");
  }
}

bool Client::pump(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  if (tx_head_ < tx_.size()) pfd.events |= POLLOUT;
  int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc < 0 && errno != EINTR) fail("poll failed");
  if (rc <= 0) return false;
  if (pfd.revents & POLLOUT) flush_tx();
  if (!(pfd.revents & (POLLIN | POLLHUP | POLLERR))) return true;

  std::uint8_t buf[65536];
  ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
  if (n == 0) fail("server closed the connection");
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return true;
    fail("recv failed (" + std::string(std::strerror(errno)) + ")");
  }
  rx_.insert(rx_.end(), buf, buf + n);

  // Frames decode in place from rx_head_; the consumed prefix is erased
  // once per recv. A callback that makes a blocking control call pumps
  // re-entrantly and carries on from the same head.
  for (;;) {
    Decoded d = decode_frame(std::span<const std::uint8_t>(rx_).subspan(rx_head_));
    if (d.status == DecodeStatus::kNeedMore) break;
    if (d.status == DecodeStatus::kBad) fail("undecodable frame from server: " + d.error);
    rx_head_ += d.consumed;
    dispatch(std::move(d.frame));
  }
  rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(rx_head_));
  rx_head_ = 0;
  return true;
}

void Client::dispatch(Frame frame) {
  if (auto* w = std::get_if<WelcomeFrame>(&frame)) {
    welcome_ = std::move(*w);
    welcomed_ = true;
    return;
  }
  if (auto* c = std::get_if<CompletionFrame>(&frame)) {
    auto it = pending_.find(c->job_id);
    if (it == pending_.end()) return;  // duplicate / unknown: ignore
    CompletionFn fn = std::move(it->second);
    pending_.erase(it);
    ++dispatched_;
    if (fn) fn(*c);
    return;
  }
  if (auto* st = std::get_if<StatsFrame>(&frame)) {
    if (want_stats_) stats_ = *st;
    return;
  }
  if (auto* err = std::get_if<ErrorFrame>(&frame)) {
    // A job-referenced rejection: fire the callback as a failed
    // completion. Checked before the control-reply slot so a job id can
    // never shadow a request id (callers keep the two ranges disjoint —
    // RemoteEngine starts job ids at 2^32, above any u32 request id).
    auto it = pending_.find(err->ref);
    if (it != pending_.end()) {
      CompletionFn fn = std::move(it->second);
      pending_.erase(it);
      ++dispatched_;
      CompletionFrame failed;
      failed.job_id = err->ref;
      failed.auth_ok = false;
      if (fn) fn(failed);
      return;
    }
    // A control reply we're blocked on?
    if (want_request_ != 0 && err->ref == want_request_) {
      reply_ = std::move(frame);
      return;
    }
    fail("server error: [" + std::string(error_code_name(err->code)) + "] " + err->message);
  }
  if (auto* ack = std::get_if<AckFrame>(&frame)) {
    if (want_request_ != 0 && ack->request_id == want_request_) reply_ = std::move(frame);
    return;
  }
  if (auto* ok = std::get_if<OpenOkFrame>(&frame)) {
    if (want_request_ != 0 && ok->request_id == want_request_) reply_ = std::move(frame);
    return;
  }
  // HELLO/SUBMIT/... arriving at a client is a server bug; ignore rather
  // than wedge.
}

Frame Client::wait_reply(std::uint64_t request_id) {
  want_request_ = request_id;
  reply_.reset();
  const std::int64_t deadline = now_ms() + config_.io_timeout_ms;
  while (!reply_.has_value()) {
    if (now_ms() >= deadline) fail("no reply to request " + std::to_string(request_id));
    flush_tx();
    pump(50);
  }
  want_request_ = 0;
  Frame out = std::move(*reply_);
  reply_.reset();
  return out;
}

}  // namespace mccp::net
