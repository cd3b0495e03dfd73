#include "net/event_loop.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "serve/dispatch.hpp"

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#define GCR_NET_HAVE_EPOLL 1
#else
#define GCR_NET_HAVE_EPOLL 0
#endif

namespace gcr::net {

namespace {

#if GCR_NET_HAVE_EPOLL

constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kMailboxTag = 1;
constexpr std::uint64_t kUnixListenerTag = 2;
/// How long accepting stays paused after descriptor exhaustion when no
/// connection closes to re-arm it sooner.
constexpr int kAcceptRetryMs = 100;

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

/// Renders the 17-key `loop_*` STATS block.  Reads only atomics, so any
/// thread may call it while the loop runs.
std::string render_loop_stats(const EventLoopStats& stats) {
  LoopCounters<std::uint64_t> values;
  serve::load_counters(values, stats);
  const serve::Histogram::Snapshot lag = stats.loop_lag.snapshot();
  std::ostringstream os;
  serve::render_counters(os, "loop_", values);
  os << "loop_lag_p50_us " << lag.percentile(50) << '\n'
     << "loop_lag_p95_us " << lag.percentile(95) << '\n'
     << "loop_lag_p99_us " << lag.percentile(99) << '\n';
  return os.str();
}

#endif  // GCR_NET_HAVE_EPOLL

}  // namespace

/// The bridge between worker threads and the loop thread.  post() is called
/// from workers (and, for fail-fast submissions, from the loop itself);
/// drain() only from the loop.  wake() is a bare eventfd write — no lock,
/// no allocation — which is what makes stop() safe inside a signal handler.
/// Held by shared_ptr from every in-flight job's callback, so a completion
/// landing after the loop died posts into a soon-to-be-freed vector instead
/// of a dangling one.
struct EventLoop::Mailbox {
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string frame;
    /// A progress chunk (an OPTIMIZE `PASS` line), not the final response:
    /// the ticket stays open — no in-flight decrement, no barrier drop —
    /// and the bytes stream through Connection::progress.  Workers post
    /// every partial before the final frame on the same thread, and the
    /// mailbox is FIFO, so order within a ticket is preserved.
    bool partial = false;
  };

#if GCR_NET_HAVE_EPOLL
  Mailbox() : event_fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
    if (!event_fd) throw_errno("eventfd");
  }
#else
  Mailbox() { throw std::runtime_error("gcr::net requires Linux epoll"); }
#endif

  void post(Completion c) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      items.push_back(std::move(c));
    }
    wake();
  }

  void wake() noexcept {
#if GCR_NET_HAVE_EPOLL
    const std::uint64_t one = 1;
    // A full eventfd counter (EAGAIN) already guarantees a pending wakeup.
    [[maybe_unused]] const auto r =
        ::write(event_fd.get(), &one, sizeof one);
#endif
  }

  std::vector<Completion> drain() {
#if GCR_NET_HAVE_EPOLL
    std::uint64_t counter = 0;
    [[maybe_unused]] const auto r =
        ::read(event_fd.get(), &counter, sizeof counter);
#endif
    std::vector<Completion> out;
    const std::lock_guard<std::mutex> lock(mu);
    out.swap(items);
    return out;
  }

  ScopedFd event_fd;
  std::mutex mu;
  std::vector<Completion> items;
};

#if GCR_NET_HAVE_EPOLL

EventLoop::EventLoop(serve::RoutingService& service,
                     const EventLoopOptions& opts)
    : service_(service), opts_(opts),
      epoll_(::epoll_create1(EPOLL_CLOEXEC)),
      listener_(opts.port),
      mailbox_(std::make_shared<Mailbox>()) {
  if (!epoll_) throw_errno("epoll_create1");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kMailboxTag;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, mailbox_->event_fd.get(),
                  &ev) < 0) {
    throw_errno("epoll_ctl(mailbox)");
  }
  if (!opts_.unix_path.empty()) {
    // A second accept source on the same loop: unix-domain peers get the
    // same Connection/FrameParser/backpressure path as TCP peers — only
    // the accept syscall's address family differs.
    unix_listener_.emplace(Listener::unix_listener(opts_.unix_path));
  }
  set_accepting(true);
  if (!accepting_) throw_errno("epoll_ctl(listener)");
  // Splice the loop's own health into the service's STATS body: TCP
  // clients see one coherent metrics page.
  service_.set_extra_stats([this] { return render_loop_stats(stats_); });
}

EventLoop::~EventLoop() {
  // Unhook before members die; a stats_text() racing the destructor is the
  // caller's lifetime bug (the loop must outlive its servers), this just
  // keeps an orderly shutdown from rendering freed counters.
  service_.set_extra_stats({});
}

std::uint16_t EventLoop::port() const noexcept { return listener_.port(); }

void EventLoop::stop() noexcept {
  stop_requests_.fetch_add(1, std::memory_order_relaxed);
  mailbox_->wake();
}

void EventLoop::run() {
  epoll_event events[64];
  for (;;) {
    const int stops = stop_requests_.load(std::memory_order_relaxed);
    if (stops > 0 && !stopping_) begin_shutdown();
    if (stops >= 2) force_close_all();
    if (stopping_ && conns_.empty()) return;

    const int n = ::epoll_wait(epoll_.get(), events,
                               static_cast<int>(std::size(events)),
                               accepting_ || stopping_ ? -1 : kAcceptRetryMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
    if (n == 0) {  // the accept pause timed out: try the listeners again
      set_accepting(true);
      continue;
    }
    // Loop lag = how long this batch keeps the thread away from
    // epoll_wait; every connection's tail latency rides on it.
    const auto batch_begin = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const std::uint32_t flags = events[i].events;
      if (tag == kListenerTag) {
        accept_ready(listener_);
        continue;
      }
      if (tag == kUnixListenerTag) {
        accept_ready(*unix_listener_);
        continue;
      }
      if (tag == kMailboxTag) {
        drain_mailbox();
        continue;
      }
      // A connection may have been closed by an earlier event in this same
      // batch (or by a completion); stale tags simply miss.
      if (conns_.find(tag) == conns_.end()) continue;
      if ((flags & (EPOLLHUP | EPOLLERR)) != 0 &&
          (flags & EPOLLIN) == 0) {
        // Pure error/hangup with nothing readable: the peer is gone.
        stats_.dropped_error.fetch_add(1, std::memory_order_relaxed);
        close_connection(tag, /*drop=*/true);
        continue;
      }
      if ((flags & EPOLLIN) != 0) handle_readable(tag);
      if (conns_.find(tag) != conns_.end() && (flags & EPOLLOUT) != 0) {
        settle(tag);
      }
    }
    stats_.wakeups.fetch_add(1, std::memory_order_relaxed);
    stats_.loop_lag.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - batch_begin)
            .count()));
  }
}

void EventLoop::accept_ready(Listener& from) {
  for (;;) {
    bool exhausted = false;
    ScopedFd fd = from.accept_one(exhausted);
    if (exhausted) set_accepting(false);
    if (!fd) return;
    if (stopping_ || conns_.size() >= opts_.max_connections) {
      // Refuse by closing: the client sees a clean EOF, retries elsewhere.
      stats_.rejected_at_capacity.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (opts_.so_sndbuf > 0) {
      ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &opts_.so_sndbuf,
                   sizeof opts_.so_sndbuf);
    }
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(std::move(fd), id);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conn->fd(), &ev) < 0) {
      // Kernel refused (out of memory or the epoll watch limit); drop it.
      stats_.dropped_error.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    conn->registered_events = EPOLLIN;
    conns_.emplace(id, std::move(conn));
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.connections.fetch_add(1, std::memory_order_relaxed);
  }
}

void EventLoop::drain_mailbox() {
  for (auto& c : mailbox_->drain()) {
    const auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) {
      // The connection died while its job was routing; nobody to tell.
      stats_.completions_discarded.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Connection& conn = *it->second;
    if (c.partial) {
      // Mid-response progress: the job is still running, so the ticket
      // stays in flight; just stream (or park) the bytes and flush.
      conn.progress(c.seq, std::move(c.frame));
      settle(c.conn_id);
      continue;
    }
    conn.job_completed();
    if (conn.barrier == c.seq) conn.barrier.reset();  // parked commands replay
    conn.complete(c.seq, std::move(c.frame));
    settle(c.conn_id);
  }
}

void EventLoop::handle_readable(std::uint64_t id) {
  Connection& conn = *conns_.at(id);
  char buf[64 * 1024];
  std::vector<FrameParser::Event> events;
  // Fairness bound: a sender faster than our parsing must not monopolize
  // the loop — after a few buffers, fall back to epoll (level-triggered,
  // so the remaining data re-reports immediately) and let other
  // connections, accepts, and the completion mailbox run.
  int rounds = 4;
  while (!conn.reads_suspended && !conn.eof && rounds-- > 0) {
    const ssize_t r = ::recv(conn.fd(), buf, sizeof buf, 0);
    if (r > 0) {
      stats_.bytes_in.fetch_add(static_cast<std::uint64_t>(r),
                                std::memory_order_relaxed);
      events.clear();
      conn.parser().feed(buf, static_cast<std::size_t>(r), events);
      process_events(conn, events);
      if (conn.close_after_flush || conn.parser().dead()) {
        conn.reads_suspended = true;  // no further commands will be served
        break;
      }
      if (conn.reads_suspended) break;  // backpressured mid-batch
      continue;
    }
    if (r == 0) {
      // Peer finished sending.  Possibly a half-close: keep flushing what
      // it is still owed; settle() closes once drained.  The parser may
      // hold a trailing LF-less command line or a truncated LOAD, answered
      // exactly as serve_connection answers them.
      conn.eof = true;
      conn.reads_suspended = true;
      events.clear();
      conn.parser().finish_eof(events);
      process_events(conn, events);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    stats_.dropped_error.fetch_add(1, std::memory_order_relaxed);
    close_connection(id, /*drop=*/true);
    return;
  }
  settle(id);
}

void EventLoop::process_events(Connection& conn,
                               std::vector<FrameParser::Event>& events,
                               std::size_t from) {
  for (std::size_t i = from; i < events.size(); ++i) {
    // Commands after QUIT or a fatal framing error are never served.
    if (conn.close_after_flush) break;
    const bool backpressured = conn.backlog() > opts_.write_high_water ||
                               conn.inflight() >= opts_.max_inflight;
    if (backpressured || conn.barrier) {
      // One recv batch of cheap commands can outrun the write marks all
      // by itself, and fail-fast ROUTE responses park in the mailbox
      // where the byte marks cannot see them; park the surplus so both
      // bounds hold even against a single pipelined burst.  A queued
      // LOAD/GEN/PIN parks everything behind it too (the ordering barrier) —
      // that is sequencing, not a slow reader, so it skips the
      // backpressure stat.
      stats_.parked.fetch_add(events.size() - i, std::memory_order_relaxed);
      for (std::size_t j = i; j < events.size(); ++j) {
        conn.deferred.push_back(std::move(events[j]));
      }
      if (!conn.reads_suspended) {
        conn.reads_suspended = true;
        if (backpressured) {
          stats_.reads_suspended.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return;
    }
    dispatch(conn, events[i]);
  }
}

void EventLoop::dispatch(Connection& conn, FrameParser::Event& ev) {
  stats_.commands.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t seq = conn.assign_seq();
  // Queued replies are formatted on the worker and post the finished bytes
  // under this command's ticket; progress lines post as partial
  // completions, so they stream yet still respect pipelined request order.
  serve::DispatchResult r = serve::dispatch(
      service_, ev, conn.cancel_token(), std::chrono::steady_clock::now(),
      [mailbox = mailbox_, id = conn.id(), seq](std::string frame,
                                                bool final) {
        mailbox->post({id, seq, std::move(frame), /*partial=*/!final});
      });
  switch (r.kind) {
    case serve::DispatchResult::Kind::kQueued:
      conn.job_dispatched();
      if (r.barrier) conn.barrier = seq;
      return;
    case serve::DispatchResult::Kind::kQuit:
      conn.close_after_flush = true;
      conn.deferred.clear();
      break;
    case serve::DispatchResult::Kind::kInline:
      break;
  }
  conn.complete(seq, std::move(r.frame));
}

void EventLoop::settle(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;

  for (;;) {
    while (conn.has_output()) {
      const ssize_t w = ::send(conn.fd(), conn.out_data(), conn.out_size(),
                               MSG_NOSIGNAL);
      if (w > 0) {
        stats_.bytes_out.fetch_add(static_cast<std::uint64_t>(w),
                                   std::memory_order_relaxed);
        conn.out_consume(static_cast<std::size_t>(w));
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      // EPIPE/ECONNRESET: the peer is gone.  Cancel whatever it still has
      // queued and discard the connection.
      stats_.dropped_error.fetch_add(1, std::memory_order_relaxed);
      close_connection(id, /*drop=*/true);
      return;
    }

    if (conn.backlog() > opts_.write_hard_cap) {
      // The socket stopped accepting and responses keep accumulating: this
      // reader is too slow to serve while a response is pending.
      stats_.dropped_slow.fetch_add(1, std::memory_order_relaxed);
      close_connection(id, /*drop=*/true);
      return;
    }

    // Work parked by mid-batch backpressure resumes once the peer has
    // drained below the low-water mark; whatever it produces goes back
    // through the flush above.  Dispatch pops the deque front in place —
    // the undispatched tail stays put, so replay cost is O(1) amortized
    // per command no matter how often the limits interrupt it (a
    // wholesale move-out/re-park here would be quadratic against a large
    // parked burst drained one completion at a time).
    if (conn.deferred.empty() || conn.close_after_flush || conn.barrier ||
        conn.backlog() > opts_.write_high_water / 2 ||
        conn.inflight() >= opts_.max_inflight) {
      break;
    }
    while (!conn.deferred.empty() && !conn.close_after_flush &&
           !conn.barrier &&
           conn.backlog() <= opts_.write_high_water &&
           conn.inflight() < opts_.max_inflight) {
      FrameParser::Event ev = std::move(conn.deferred.front());
      conn.deferred.pop_front();
      stats_.replayed.fetch_add(1, std::memory_order_relaxed);
      // dispatch may clear the deque (QUIT); ev was moved out already.
      dispatch(conn, ev);
    }
  }

  if ((conn.close_after_flush || conn.eof) && conn.drained() &&
      conn.deferred.empty()) {
    close_connection(id, /*drop=*/false);
    return;
  }

  // Resume reads once a backpressured (but otherwise live) connection has
  // drained to half the high-water mark — hysteresis so a borderline peer
  // does not flap between suspend and resume per byte.  Conversely suspend
  // when *completions* (not reads) pushed the backlog over the mark: an
  // unread socket then fills the peer's TCP window and stalls the sender
  // itself, which is backpressure all the way down.
  if (conn.reads_suspended && !conn.eof && !conn.close_after_flush &&
      !conn.parser().dead() && !stopping_ && conn.deferred.empty() &&
      !conn.barrier &&
      conn.inflight() < opts_.max_inflight &&
      conn.backlog() <= opts_.write_high_water / 2) {
    conn.reads_suspended = false;
  } else if (!conn.reads_suspended &&
             conn.backlog() > opts_.write_high_water) {
    conn.reads_suspended = true;
    stats_.reads_suspended.fetch_add(1, std::memory_order_relaxed);
  }

  update_interest(conn);
}

void EventLoop::update_interest(Connection& conn) {
  const std::uint32_t want = (conn.reads_suspended ? 0u : EPOLLIN) |
                             (conn.has_output() ? EPOLLOUT : 0u);
  if (want == conn.registered_events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn.fd(), &ev) == 0) {
    conn.registered_events = want;
  }
}

void EventLoop::close_connection(std::uint64_t id, bool drop) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  if (drop) {
    // Jobs still queued for this peer die at dequeue instead of routing
    // into the void; late completions are discarded in drain_mailbox.
    it->second->cancel_token()->store(true, std::memory_order_relaxed);
  }
  // Either way the owner identity is gone: auto-release this connection's
  // pins so the handles become claimable (and UNPIN-able) by successors.
  // During a drain, ownership is dropped but the sessions stay registered:
  // the shutdown path still owes each one a final SAVE.
  service_.release_pins(it->second->cancel_token(), /*preserve=*/stopping_);
  // Closing the fd (ScopedFd dtor) deregisters it from epoll implicitly.
  conns_.erase(it);
  stats_.closed.fetch_add(1, std::memory_order_relaxed);
  stats_.connections.fetch_sub(1, std::memory_order_relaxed);
  set_accepting(true);  // a descriptor came free
}

void EventLoop::set_accepting(bool on) {
  if (on == accepting_ || (on && stopping_)) return;
  const std::pair<const Listener*, std::uint64_t> listeners[] = {
      {&listener_, kListenerTag},
      {unix_listener_ ? &*unix_listener_ : nullptr, kUnixListenerTag}};
  for (const auto& [l, tag] : listeners) {
    if (l == nullptr) continue;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = tag;
    const int rc = ::epoll_ctl(
        epoll_.get(), on ? EPOLL_CTL_ADD : EPOLL_CTL_DEL, l->fd(), &ev);
    // A failed ADD (no kernel memory) leaves accepting off for the retry
    // timeout; EEXIST on that retry means this listener made it last time.
    if (on && rc < 0 && errno != EEXIST) return;
  }
  accepting_ = on;
}

void EventLoop::begin_shutdown() {
  stopping_ = true;
  set_accepting(false);
  // Stop taking commands everywhere; settle() each connection so the ones
  // already drained close immediately and the rest close as their
  // in-flight jobs finish and flush.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) {
    conn->reads_suspended = true;
    conn->close_after_flush = true;
    conn->deferred.clear();  // commands after shutdown are not served
    ids.push_back(id);
  }
  for (const std::uint64_t id : ids) settle(id);
}

void EventLoop::force_close_all() {
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) close_connection(id, /*drop=*/true);
}

#else  // !GCR_NET_HAVE_EPOLL

EventLoop::EventLoop(serve::RoutingService& service,
                     const EventLoopOptions& opts)
    : service_(service), opts_(opts), listener_(opts.port) {
  throw std::runtime_error("gcr::net::EventLoop requires Linux epoll");
}

EventLoop::~EventLoop() = default;
std::uint16_t EventLoop::port() const noexcept { return 0; }
void EventLoop::run() {}
void EventLoop::stop() noexcept {}
void EventLoop::accept_ready(Listener&) {}
void EventLoop::set_accepting(bool) {}
void EventLoop::drain_mailbox() {}
void EventLoop::handle_readable(std::uint64_t) {}
void EventLoop::process_events(Connection&, std::vector<FrameParser::Event>&,
                               std::size_t) {}
void EventLoop::dispatch(Connection&, FrameParser::Event&) {}
void EventLoop::settle(std::uint64_t) {}
void EventLoop::close_connection(std::uint64_t, bool) {}
void EventLoop::begin_shutdown() {}
void EventLoop::force_close_all() {}
void EventLoop::update_interest(Connection&) {}

#endif  // GCR_NET_HAVE_EPOLL

}  // namespace gcr::net
