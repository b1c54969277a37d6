#include "transport/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

namespace p2panon::transport {

namespace {

constexpr std::size_t kReadChunk = 4096;

int make_socket() noexcept { return ::socket(AF_INET, SOCK_STREAM, 0); }

sockaddr_in loopback_addr(std::uint16_t port) noexcept {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

void set_nodelay(int fd) noexcept {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Every connection runs non-blocking: the poll loop must never wedge in
// send() against a peer that stopped reading, or in accept()/recv() on a
// spurious wakeup.
void set_nonblock(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

TcpTransport::TcpTransport(TcpConfig cfg, sim::rng::Stream jitter_stream)
    : cfg_(cfg), jitter_(jitter_stream) {}

TcpTransport::~TcpTransport() {
  for (auto& [fd, c] : conns_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

double TcpTransport::now_seconds() noexcept {
  // Real processes need real time; the waiver scopes the wall clock to this
  // one accessor so the rest of the file stays greppably clock-free.
  using clock = std::chrono::steady_clock;  // lint-exempt(determinism): multi-process transport runs outside the simulator; deadlines/heartbeats need wall time
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

bool TcpTransport::sockets_available() noexcept {
  const int fd = make_socket();
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

std::uint16_t TcpTransport::listen(std::uint16_t port) {
  const int fd = make_socket();
  if (fd < 0) return 0;
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return 0;
  }
  set_nonblock(fd);
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  return port_;
}

TcpTransport::Conn* TcpTransport::connection(std::uint16_t peer) {
  const auto it = outbound_fd_.find(peer);
  if (it == outbound_fd_.end()) return nullptr;
  const auto cit = conns_.find(it->second);
  return cit == conns_.end() ? nullptr : &cit->second;
}

TcpTransport::Conn* TcpTransport::dial_once(std::uint16_t peer, bool register_conn) {
  const int fd = make_socket();
  if (fd < 0) return nullptr;
  sockaddr_in addr = loopback_addr(peer);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  set_nodelay(fd);
  set_nonblock(fd);
  Conn& c = conns_[fd];
  c.fd = fd;
  c.peer_port = peer;
  c.outbound = true;
  if (register_conn) {
    outbound_fd_[peer] = fd;
    if (was_connected_[peer]) ++counters_.reconnects;
    was_connected_[peer] = true;
  }
  return &c;
}

TcpTransport::Conn* TcpTransport::dial(std::uint16_t peer) {
  if (Conn* c = connection(peer)) return c;
  for (int attempt = 1; attempt <= cfg_.connect_max_attempts; ++attempt) {
    if (Conn* c = dial_once(peer)) return c;
    if (attempt == cfg_.connect_max_attempts) break;
    // Same capped-exponential shape as the in-sim setup retries: the cap is
    // applied to the exact power of two (ldexp) and the jitter is a seeded
    // multiplicative draw, so the dial schedule replays with the seed.
    const double capped =
        std::min(std::ldexp(cfg_.connect_backoff_base, attempt - 1), cfg_.connect_backoff_cap);
    const double delay = capped * jitter_.uniform(1.0 - cfg_.connect_jitter,
                                                  1.0 + cfg_.connect_jitter);
    ++counters_.backoff_retries;
    const double until = now_seconds() + delay;
    while (now_seconds() < until) {
      // Keep serving peers while we wait out the backoff.
      pump(std::min(0.05, until - now_seconds()));
    }
  }
  return nullptr;
}

void TcpTransport::enqueue_frame(Conn& c, const wire::WireMessage& msg) {
  scratch_.clear();
  const std::size_t frame = encode(msg, scratch_);
  ++counters_.frames_sent;
  counters_.bytes_sent += frame;
  c.outbuf.insert(c.outbuf.end(), scratch_.begin(), scratch_.end());
}

void TcpTransport::flush(Conn& c) {
  while (!c.outbuf.empty()) {
    const ssize_t n = ::send(c.fd, c.outbuf.data(), c.outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.outbuf.erase(c.outbuf.begin(), c.outbuf.begin() + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) return;
    ++counters_.frames_dropped;
    close_conn(c.fd);
    return;
  }
  ++counters_.frames_delivered;
}

void TcpTransport::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (it->second.in_flight && !it->second.replies.empty()) {
    // The peer answered and then closed (reply + Bye in one batch). The
    // waiting request() must still see the reply, not a dead connection.
    orphaned_.insert_or_assign(fd, std::move(it->second.replies.front()));
  }
  if (it->second.outbound) {
    const auto out = outbound_fd_.find(it->second.peer_port);
    if (out != outbound_fd_.end() && out->second == fd) outbound_fd_.erase(out);
  }
  ::close(fd);
  conns_.erase(it);
}

void TcpTransport::drain_inbuf(Conn& c) {
  // A handler may pump re-entrantly (nested request()), and that pump may
  // read MORE bytes into this very connection. A second drain walking the
  // same buffer would re-dispatch frames the outer walk already consumed
  // and erase the prefix out from under the outer offset — heap corruption.
  // The guard makes the inner read a pure append; the outer loop re-checks
  // inbuf.size() every iteration and picks the new bytes up itself.
  if (c.draining) return;
  c.draining = true;
  std::size_t offset = 0;
  bool drop = false;
  while (offset < c.inbuf.size()) {
    wire::WireMessage msg;
    std::size_t consumed = 0;
    const DecodeResult r = decode(
        std::span<const std::byte>(c.inbuf.data() + offset, c.inbuf.size() - offset), msg,
        consumed, cfg_.max_frame);
    if (r == DecodeResult::kTruncated) break;  // wait for more bytes
    if (r == DecodeResult::kBadMagic || r == DecodeResult::kOversize) {
      // Unresynchronisable garbage: count it and cut the connection.
      ++counters_.frames_rejected;
      drop = true;
      break;
    }
    offset += consumed;
    if (r != DecodeResult::kOk) {
      // Skippable verdicts (bad CRC, future version, unknown type, bad
      // length): count and continue with the next frame.
      ++counters_.frames_rejected;
      continue;
    }
    const int fd = c.fd;
    dispatch(c, msg);
    if (conns_.find(fd) == conns_.end()) return;  // dispatch closed us (Bye)
  }
  c.inbuf.erase(c.inbuf.begin(), c.inbuf.begin() + static_cast<std::ptrdiff_t>(offset));
  c.draining = false;
  if (drop) close_conn(c.fd);
}

void TcpTransport::dispatch(Conn& c, const wire::WireMessage& msg) {
  if (const auto* hb = std::get_if<wire::HeartbeatMsg>(&msg)) {
    enqueue_frame(c, wire::HeartbeatAckMsg{hb->nonce});
    flush(c);
    return;
  }
  if (std::get_if<wire::HeartbeatAckMsg>(&msg) != nullptr) {
    if (c.outbound) {
      const auto it = watched_.find(c.peer_port);
      if (it != watched_.end()) it->second.last_seen = now_seconds();
    }
    return;
  }
  if (const auto* bye = std::get_if<wire::ByeMsg>(&msg)) {
    if (peer_bye_) peer_bye_(bye->port);
    close_conn(c.fd);
    return;
  }
  if (c.outbound) {
    // FIFO reply to an in-flight request on this connection.
    c.replies.push_back(msg);
    return;
  }
  if (!handler_) return;
  std::optional<wire::WireMessage> reply = handler_(msg);
  // The handler may have pumped re-entrantly; make sure we still exist.
  const auto it = conns_.find(c.fd);
  if (it == conns_.end() || !reply.has_value()) return;
  enqueue_frame(it->second, *reply);
  flush(it->second);
}

void TcpTransport::heartbeat_tick(double now) {
  std::vector<std::uint16_t> dead;
  for (auto& [peer, w] : watched_) {
    if (now - w.last_seen > cfg_.heartbeat_timeout) {
      dead.push_back(peer);
      continue;
    }
    if (now >= w.next_send) {
      w.next_send = now + cfg_.heartbeat_period;
      Conn* c = connection(peer);
      if (c == nullptr) c = dial_once(peer);  // no backoff: the timeout decides
      if (c != nullptr) {
        enqueue_frame(*c, wire::HeartbeatMsg{++w.nonce});
        flush(*c);
      }
    }
  }
  for (const std::uint16_t peer : dead) {
    watched_.erase(peer);
    ++counters_.heartbeat_timeouts;
    if (Conn* c = connection(peer)) close_conn(c->fd);
    if (peer_dead_) peer_dead_(peer);
  }
}

void TcpTransport::pump(double max_wait) {
  std::vector<pollfd> fds;
  fds.reserve(conns_.size() + 1);
  if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
  for (const auto& [fd, c] : conns_) {
    short events = POLLIN;
    if (!c.outbuf.empty()) events |= POLLOUT;
    fds.push_back({fd, events, 0});
  }
  const int timeout_ms =
      std::max(0, static_cast<int>(std::min(max_wait, cfg_.heartbeat_period / 2) * 1000.0));
  const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
  if (rc > 0) {
    for (const pollfd& p : fds) {
      if (p.revents == 0) continue;
      if (p.fd == listen_fd_) {
        // Non-blocking listen socket: drain the whole backlog this round.
        for (;;) {
          const int nfd = ::accept(listen_fd_, nullptr, nullptr);
          if (nfd < 0) break;
          set_nodelay(nfd);
          set_nonblock(nfd);
          Conn& c = conns_[nfd];
          c.fd = nfd;
        }
        continue;
      }
      const auto it = conns_.find(p.fd);
      if (it == conns_.end()) continue;  // closed by an earlier dispatch
      if ((p.revents & POLLOUT) != 0) flush(it->second);
      if (conns_.find(p.fd) == conns_.end()) continue;
      if ((p.revents & POLLIN) != 0) {
        std::byte chunk[kReadChunk];
        const ssize_t n = ::recv(p.fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
          it->second.inbuf.insert(it->second.inbuf.end(), chunk, chunk + n);
          drain_inbuf(it->second);
        } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
          close_conn(p.fd);
          continue;
        }
      }
      if ((p.revents & (POLLERR | POLLHUP)) != 0 && conns_.find(p.fd) != conns_.end() &&
          conns_[p.fd].inbuf.empty()) {
        close_conn(p.fd);
      }
    }
  }
  heartbeat_tick(now_seconds());
}

std::optional<wire::WireMessage> TcpTransport::request(std::uint16_t peer,
                                                       const wire::WireMessage& msg) {
  Conn* c = dial(peer);
  if (c == nullptr) {
    ++counters_.frames_dropped;
    return std::nullopt;
  }
  // A nested request() to the SAME peer (a handler calling out while an
  // outer request is parked in its wait loop below) must not share the
  // connection: FIFO correlation would hand the inner caller the outer
  // caller's reply. Nested calls get a private, unregistered connection
  // that is torn down once their reply (or deadline) arrives.
  bool private_conn = false;
  if (c->in_flight) {
    c = dial_once(peer, /*register_conn=*/false);
    if (c == nullptr) {
      ++counters_.frames_dropped;
      return std::nullopt;
    }
    private_conn = true;
  }
  const int fd = c->fd;
  c->in_flight = true;
  enqueue_frame(*c, msg);
  flush(*c);
  std::optional<wire::WireMessage> reply;
  const double deadline = now_seconds() + cfg_.read_deadline;
  for (;;) {
    const auto orphan = orphaned_.find(fd);
    if (orphan != orphaned_.end()) {  // conn died right after replying
      reply = std::move(orphan->second);
      orphaned_.erase(orphan);
      break;
    }
    const auto it = conns_.find(fd);
    if (it == conns_.end()) break;  // connection died mid-wait, no reply
    if (!it->second.replies.empty()) {
      reply = std::move(it->second.replies.front());
      it->second.replies.pop_front();
      break;
    }
    const double remaining = deadline - now_seconds();
    if (remaining <= 0.0) {
      ++counters_.deadline_expiries;
      break;
    }
    pump(std::min(remaining, 0.05));
  }
  orphaned_.erase(fd);
  const auto it = conns_.find(fd);
  if (it != conns_.end()) {
    it->second.in_flight = false;
    // Tear down private channels always, and any channel whose request
    // timed out: a reply arriving after the deadline would sit in the FIFO
    // and be mis-correlated with the NEXT request on this connection.
    if (private_conn || !reply.has_value()) close_conn(fd);
  }
  return reply;
}

bool TcpTransport::send_oneway(std::uint16_t peer, const wire::WireMessage& msg) {
  Conn* c = dial(peer);
  if (c == nullptr) {
    ++counters_.frames_dropped;
    return false;
  }
  enqueue_frame(*c, msg);
  flush(*c);
  return true;
}

void TcpTransport::watch(std::uint16_t peer) {
  Watch w;
  w.last_seen = now_seconds();
  w.next_send = w.last_seen;
  watched_.emplace(peer, w);
}

void TcpTransport::unwatch(std::uint16_t peer) { watched_.erase(peer); }

void TcpTransport::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  std::vector<int> open_fds;
  open_fds.reserve(conns_.size());
  for (const auto& [fd, c] : conns_) open_fds.push_back(fd);
  for (const int fd : open_fds) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    enqueue_frame(it->second, wire::ByeMsg{port_});
    flush(it->second);
  }
  for (const int fd : open_fds) close_conn(fd);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace p2panon::transport
