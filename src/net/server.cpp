#include "net/server.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/error.h"
#include "common/failpoint.h"

namespace omadrm::net {

using omadrm::Error;
using omadrm::ErrorKind;

std::string format_issuer_stats(const ri::RightsIssuer& issuer) {
  const auto shards = issuer.shard_stats();
  std::string out;
  const auto append = [&out](const char* label,
                             const ri::RightsIssuer::ShardStats& s) {
    const std::uint64_t lookups = s.replay_hits + s.replay_misses;
    const double hit_rate = lookups == 0
                                ? 0.0
                                : 100.0 * static_cast<double>(s.replay_hits) /
                                      static_cast<double>(lookups);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%s: exchanges=%" PRIu64 " contended=%" PRIu64
                  " replay_hits=%" PRIu64 " replay_misses=%" PRIu64
                  " hit_rate=%.1f%%\n",
                  label, s.exchanges, s.contended, s.replay_hits,
                  s.replay_misses, hit_rate);
    out += line;
  };

  ri::RightsIssuer::ShardStats total;
  for (const auto& sh : shards) {
    total.exchanges += sh.exchanges;
    total.contended += sh.contended;
    total.replay_hits += sh.replay_hits;
    total.replay_misses += sh.replay_misses;
  }
  append("issuer", total);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const auto& sh = shards[i];
    // Idle shards (no fleet traffic hashed there) are elided so a
    // two-device test prints two lines, not kShardCount.
    if (sh.exchanges == 0 && sh.replay_hits == 0 && sh.replay_misses == 0) {
      continue;
    }
    char label[16];
    std::snprintf(label, sizeof(label), "shard[%02zu]", i);
    append(label, sh);
  }
  return out;
}

// ---------------------------------------------------------------------------
// RiServer
// ---------------------------------------------------------------------------

RiServer::RiServer(ri::RightsIssuer& issuer, Config config)
    : issuer_(issuer), config_(std::move(config)) {}

RiServer::~RiServer() { stop(); }

void RiServer::start() {
  if (running_.load(std::memory_order_acquire)) {
    throw Error(ErrorKind::kState, "net: server already running");
  }
  if (config_.workers == 0) {
    throw Error(ErrorKind::kState, "net: server needs at least one worker");
  }

  listen_ = listen_tcp(config_.bind_address, config_.port, config_.backlog,
                       &port_);

  const int epfd = ::epoll_create1(0);
  if (epfd < 0) {
    listen_.close();
    throw Error(ErrorKind::kState,
                std::string("net: epoll_create1: ") + std::strerror(errno));
  }
  epoll_ = Socket(epfd);

  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    listen_.close();
    epoll_.close();
    throw Error(ErrorKind::kState,
                std::string("net: pipe: ") + std::strerror(errno));
  }
  set_nonblocking(pipefd[0]);
  set_nonblocking(pipefd[1]);
  wake_read_ = Socket(pipefd[0]);
  wake_write_ = Socket(pipefd[1]);

  epoll_set(EPOLL_CTL_ADD, listen_.fd(), false);
  epoll_set(EPOLL_CTL_ADD, wake_read_.fd(), false);

  stopping_.store(false, std::memory_order_release);
  loop_exit_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);

  loop_thread_ = std::thread([this] { event_loop(); });
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void RiServer::stop() {
  MutexLock stop_lock(stop_mu_);
  if (!running_.load(std::memory_order_acquire)) return;

  // 1. Stop intake: the loop drops the listen fd and ignores further
  //    reads, so the job queue can only shrink from here.
  stopping_.store(true, std::memory_order_release);
  wake();

  // 2. Serve everything already accepted: queued and executing jobs.
  {
    UniqueLock lock(jobs_mu_);
    jobs_done_cv_.wait(lock, [this] {
      jobs_mu_.assert_held();  // wait() re-holds it around the predicate
      return jobs_.empty() && jobs_executing_ == 0;
    });
  }
  jobs_cv_.notify_all();  // workers exit: stopping_ && queue empty
  for (std::thread& w : workers_) w.join();
  workers_.clear();

  // 3. Flush every outbox, bounded by drain_timeout_ms. The event loop
  //    is still running and owns the writes; we just watch and poke.
  const std::uint64_t deadline = steady_ms() + config_.drain_timeout_ms;
  for (;;) {
    bool pending = false;
    {
      MutexLock lock(conns_mu_);
      for (const auto& [fd, conn] : conns_) {
        MutexLock cl(conn->mu);
        if (!conn->dead && conn->outpos < conn->outbox.size()) {
          pending = true;
          break;
        }
      }
    }
    if (!pending || steady_ms() >= deadline) break;
    wake();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // 4. Retire the loop, then close whatever connections remain.
  loop_exit_.store(true, std::memory_order_release);
  wake();
  loop_thread_.join();
  {
    MutexLock lock(conns_mu_);
    for (auto& [fd, conn] : conns_) {
      MutexLock cl(conn->mu);
      if (!conn->dead) {
        ::close(conn->fd);
        conn->dead = true;
        stats_.closed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    conns_.clear();
  }

  epoll_.close();
  wake_read_.close();
  wake_write_.close();
  listen_.close();
  {
    MutexLock lock(replies_mu_);
    replies_.clear();
  }
  running_.store(false, std::memory_order_release);
}

std::size_t RiServer::active_connections() const {
  MutexLock lock(conns_mu_);
  return conns_.size();
}

void RiServer::wake() {
  if (!wake_write_.valid()) return;
  char b = 1;
  // EAGAIN means a poke is already pending — exactly what we want.
  (void)::write(wake_write_.fd(), &b, 1);
}

void RiServer::epoll_set(int op, int fd, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  ::epoll_ctl(epoll_.fd(), op, fd, &ev);  // tolerant on MOD-after-close races
}

// ------------------------------- event loop --------------------------------

void RiServer::event_loop() {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  bool accepting = true;
  std::uint64_t last_sweep = steady_ms();

  while (!loop_exit_.load(std::memory_order_acquire)) {
    if (accepting && stopping_.load(std::memory_order_acquire)) {
      ::epoll_ctl(epoll_.fd(), EPOLL_CTL_DEL, listen_.fd(), nullptr);
      listen_.close();
      accepting = false;
    }

    const int n = ::epoll_wait(epoll_.fd(), events, kMaxEvents, 100);
    if (n < 0 && errno != EINTR) {
      throw Error(ErrorKind::kState,
                  std::string("net: epoll_wait: ") + std::strerror(errno));
    }

    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t mask = events[i].events;
      if (accepting && fd == listen_.fd()) {
        accept_ready();
        continue;
      }
      if (fd == wake_read_.fd()) {
        char drain[256];
        while (::read(wake_read_.fd(), drain, sizeof drain) > 0) {
        }
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        MutexLock lock(conns_mu_);
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;  // closed earlier in this batch
        conn = it->second;
      }
      if ((mask & EPOLLERR) != 0) {
        close_conn(conn, false);
        continue;
      }
      if ((mask & (EPOLLIN | EPOLLHUP)) != 0) read_ready(conn);
      // No bare `dead` peek here: it is guarded state (the TSA pass
      // caught the old unlocked read racing close_conn); flush() checks
      // it under the lock and answers "keep open" for a dead conn.
      if ((mask & EPOLLOUT) != 0) {
        if (!flush(conn)) close_conn(conn, false);
      }
    }

    // Worker replies since the last pass: flush each touched connection.
    std::deque<std::shared_ptr<Conn>> fresh;
    {
      MutexLock lock(replies_mu_);
      fresh.swap(replies_);
    }
    for (const std::shared_ptr<Conn>& conn : fresh) {
      bool dead;
      bool kill;
      {
        // One locked snapshot of both flags — the old bare `dead` read
        // raced close_conn() on a worker thread (caught by the TSA
        // pass; GUARDED_BY now makes the misuse uncompilable).
        MutexLock cl(conn->mu);
        dead = conn->dead;
        kill = conn->kill;
      }
      if (dead) continue;
      if (kill) {
        // A worker flagged this conn over its outbox cap (slow reader);
        // fd ownership is the loop's, so the close happens here.
        close_conn(conn, false);
        continue;
      }
      if (!flush(conn)) close_conn(conn, false);
    }

    // Idle sweep on the monotonic clock, ~2x per timeout granularity.
    const std::uint64_t now = steady_ms();
    if (now - last_sweep >= 500) {
      last_sweep = now;
      std::vector<std::shared_ptr<Conn>> idle;
      std::vector<std::shared_ptr<Conn>> stalled;
      {
        MutexLock lock(conns_mu_);
        for (const auto& [fd, conn] : conns_) {
          // Slow-loris: a partial frame counts as activity for the idle
          // clock (bytes did arrive), so it gets its own, stricter
          // deadline — complete the frame or lose the connection.
          if (config_.read_progress_timeout_ms != 0 &&
              conn->partial_since_ms != 0 &&
              now - conn->partial_since_ms >=
                  config_.read_progress_timeout_ms) {
            stalled.push_back(conn);
            continue;
          }
          if (now - conn->last_active_ms < config_.idle_timeout_ms) continue;
          MutexLock cl(conn->mu);
          if (conn->inflight == 0 && conn->outpos >= conn->outbox.size()) {
            idle.push_back(conn);
          }
        }
      }
      for (const std::shared_ptr<Conn>& conn : stalled) {
        stats_.stalled_closed.fetch_add(1, std::memory_order_relaxed);
        close_conn(conn, false);
      }
      for (const std::shared_ptr<Conn>& conn : idle) close_conn(conn, true);
    }
  }
}

void RiServer::accept_ready() {
  for (;;) {
    int fd = ::accept(listen_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the loop will retry
    }
    std::size_t active;
    {
      MutexLock lock(conns_mu_);
      active = conns_.size();
    }
    if (active >= config_.max_connections) {
      // Count before closing, so a peer that has seen the EOF also sees
      // the rejection in stats().
      stats_.rejected.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    set_tcp_nodelay(fd);
    auto conn = std::make_shared<Conn>(fd, config_.max_frame_payload);
    conn->last_active_ms = steady_ms();
    {
      MutexLock lock(conns_mu_);
      conns_.emplace(fd, conn);
    }
    epoll_set(EPOLL_CTL_ADD, fd, false);
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void RiServer::read_ready(const std::shared_ptr<Conn>& conn) {
  // A draining connection had a frame-layer protocol error: its input is
  // shut down and we only live to flush the error frame.
  {
    MutexLock cl(conn->mu);
    if (conn->draining) return;
  }
  if (stopping_.load(std::memory_order_acquire)) return;

  char buf[64 * 1024];
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn->last_active_ms = steady_ms();
      conn->decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      try {
        while (std::optional<Frame> frame = conn->decoder.next()) {
          stats_.frames_in.fetch_add(1, std::memory_order_relaxed);
          if (!admit(conn)) {
            // Load shed: answer busy straight from the event loop — the
            // payload is dropped unparsed and no worker is involved, so
            // a flood beyond capacity costs one small frame per request,
            // not queue memory.
            stats_.shed.fetch_add(1, std::memory_order_relaxed);
            std::string busy;
            encode_frame(kBusyFrameType,
                         "server busy: request shed by admission control",
                         busy);
            bool over_cap = false;
            {
              MutexLock cl(conn->mu);
              conn->outbox.append(busy);
              over_cap = config_.max_outbox_bytes != 0 &&
                         conn->outbox.size() - conn->outpos >
                             config_.max_outbox_bytes;
            }
            if (over_cap) {
              // Flooding with requests while never reading replies: even
              // the busy frames are piling up. Slow-reader disconnect.
              stats_.slow_reader_closed.fetch_add(1,
                                                  std::memory_order_relaxed);
              close_conn(conn, false);
              return;
            }
            if (!flush(conn)) {
              close_conn(conn, false);
              return;
            }
            continue;
          }
          {
            MutexLock lock(jobs_mu_);
            jobs_.push_back(Job{conn, std::move(frame->payload)});
          }
          jobs_cv_.notify_one();
        }
        // Slow-loris bookkeeping: remember when a partial frame started
        // waiting; the idle sweep closes conns whose partial frame never
        // completes within read_progress_timeout_ms.
        if (conn->decoder.buffered() == 0) {
          conn->partial_since_ms = 0;
        } else if (conn->partial_since_ms == 0) {
          conn->partial_since_ms = steady_ms();
        }
      } catch (const Error& e) {
        // Frame-layer desync: the stream is unrecoverable. Tell the peer
        // why, stop reading, close once the error frame is out.
        stats_.frame_desyncs.fetch_add(1, std::memory_order_relaxed);
        std::string err;
        encode_frame(kErrorFrameType, e.what(), err);
        {
          MutexLock cl(conn->mu);
          conn->outbox.append(err);
          conn->draining = true;
        }
        ::shutdown(conn->fd, SHUT_RD);
        if (!flush(conn)) close_conn(conn, false);
        return;
      }
      continue;
    }
    if (n == 0) {
      close_conn(conn, false);  // peer EOF; late replies will be dropped
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_conn(conn, false);
    return;
  }
}

/// Single producer: only the event-loop thread admits and enqueues, so
/// between a true return and the push the queue can only shrink — the
/// depth check cannot be raced past capacity.
bool RiServer::admit(const std::shared_ptr<Conn>& conn) {
  if (config_.max_queue_depth != 0) {
    MutexLock lock(jobs_mu_);
    if (jobs_.size() >= config_.max_queue_depth) return false;
  }
  MutexLock cl(conn->mu);
  if (config_.max_inflight_per_conn != 0 &&
      conn->inflight >= config_.max_inflight_per_conn) {
    return false;
  }
  ++conn->inflight;
  return true;
}

bool RiServer::flush(const std::shared_ptr<Conn>& conn) {
  MutexLock cl(conn->mu);
  if (conn->dead) return true;
  while (conn->outpos < conn->outbox.size()) {
    if (int err = failpoint::check("net.server.send"); err != 0) {
      errno = err;
      return false;  // injected send failure: same path as a peer reset
    }
    ssize_t n = ::send(conn->fd, conn->outbox.data() + conn->outpos,
                       conn->outbox.size() - conn->outpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outpos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer reset mid-write
  }
  if (conn->outpos >= conn->outbox.size()) {
    conn->outbox.clear();
    conn->outpos = 0;
    if (conn->draining) return false;  // error frame delivered; close now
    epoll_set(EPOLL_CTL_MOD, conn->fd, false);
  } else {
    // Arm write-readiness for the rest.
    epoll_set(EPOLL_CTL_MOD, conn->fd, true);
  }
  return true;
}

void RiServer::close_conn(const std::shared_ptr<Conn>& conn, bool idle) {
  {
    MutexLock cl(conn->mu);
    if (conn->dead) return;
    conn->dead = true;
    conn->outbox.clear();
    conn->outpos = 0;
  }
  // Counters first: the peer observes EOF the instant close() runs, and
  // a stats reader woken by that EOF must already see this close counted.
  stats_.closed.fetch_add(1, std::memory_order_relaxed);
  if (idle) stats_.idle_closed.fetch_add(1, std::memory_order_relaxed);
  // Tolerant: the fd may already be gone from the set.
  ::epoll_ctl(epoll_.fd(), EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  {
    MutexLock lock(conns_mu_);
    conns_.erase(conn->fd);
  }
}

// -------------------------------- workers ----------------------------------

void RiServer::worker_loop() {
  for (;;) {
    Job job;
    {
      UniqueLock lock(jobs_mu_);
      jobs_cv_.wait(lock, [this] {
        jobs_mu_.assert_held();  // wait() re-holds it around the predicate
        return !jobs_.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (jobs_.empty()) {
        if (stopping_.load(std::memory_order_acquire)) return;
        continue;  // spurious
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
      ++jobs_executing_;
    }

    std::string reply;
    try {
      roap::Envelope env = roap::Envelope::from_wire(job.payload);
      roap::Envelope out = issuer_.handle(env, config_.now);
      encode_frame(static_cast<std::uint8_t>(out.type()), out.wire(), reply);
      stats_.served.fetch_add(1, std::memory_order_relaxed);
    } catch (const Error& e) {
      encode_frame(kErrorFrameType, e.what(), reply);
      stats_.refusals.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& e) {
      encode_frame(kErrorFrameType,
                   std::string("internal error: ") + e.what(), reply);
      stats_.refusals.fetch_add(1, std::memory_order_relaxed);
    }

    deliver(job.conn, reply);

    {
      MutexLock lock(jobs_mu_);
      --jobs_executing_;
    }
    jobs_done_cv_.notify_all();
  }
}

void RiServer::deliver(const std::shared_ptr<Conn>& conn,
                       const std::string& bytes) {
  bool enqueue = false;
  bool first_kill = false;
  {
    MutexLock cl(conn->mu);
    if (conn->inflight > 0) --conn->inflight;
    if (!conn->dead) {
      conn->outbox.append(bytes);
      enqueue = true;
      // Slow-reader cap: replies are accumulating faster than the peer
      // drains them. Flag the conn; the event loop (which owns the fd)
      // closes it on the next pass instead of buffering without bound.
      if (config_.max_outbox_bytes != 0 && !conn->kill &&
          conn->outbox.size() - conn->outpos > config_.max_outbox_bytes) {
        conn->kill = true;
        first_kill = true;
      }
    }
  }
  if (first_kill) {
    stats_.slow_reader_closed.fetch_add(1, std::memory_order_relaxed);
  }
  if (enqueue) {
    {
      MutexLock lock(replies_mu_);
      replies_.push_back(conn);
    }
    wake();
  }
}

}  // namespace omadrm::net
