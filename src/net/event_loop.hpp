#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/connection.hpp"
#include "net/frame_parser.hpp"
#include "net/socket.hpp"
#include "serve/routing_service.hpp"
#include "serve/trace.hpp"

/// \file event_loop.hpp
/// The asynchronous multi-client front-end: one thread, one epoll set, many
/// TCP (and optionally unix-domain) connections, all multiplexed onto the
/// routing service's existing worker pool.
///
/// Division of labour — the loop thread only ever does cheap things:
///   - accept connections and read whatever bytes are available;
///   - feed the per-connection FrameParser and hand each completed command
///     to serve::dispatch, which answers cheap verbs inline and queues
///     everything else on the worker pool;
///   - sequence the replies, flush write buffers and maintain epoll
///     interest sets.
/// A queued job's worker thread formats the response (the expensive
/// route-dump rendering) and posts it to the loop's mailbox — a
/// mutex-guarded vector plus an eventfd the loop sleeps on — so routing
/// never blocks the loop and the loop never blocks routing.  Cold LOADs and
/// GENs are queued too, so a cold-session storm cannot stall every
/// connection behind one build; while one is building (or a PIN is
/// deriving), the connection's later commands park (Connection::barrier)
/// and replay once the completion lands, preserving pipelined LOAD→ROUTE
/// and PIN→COMMIT semantics and response order.
///
/// Backpressure: each connection's backlog (unwritten + parked response
/// bytes, see Connection) is compared against two marks.  Past
/// write_high_water the connection's reads are suspended — a slow reader
/// stops injecting new work but keeps its in-flight responses.  Past
/// write_hard_cap the connection is dropped: its fd closes, its cancel
/// token flips so still-queued jobs die at dequeue, and late completions
/// are discarded by id.
///
/// Descriptor exhaustion: when accept() fails for lack of descriptors or
/// kernel memory (EMFILE/ENFILE/ENOBUFS/ENOMEM), the loop takes its
/// listeners out of the epoll set instead of spinning on them (they are
/// level-triggered) and re-arms them when a connection closes or after a
/// short retry timeout.  Pending peers wait in the kernel backlog.
///
/// Shutdown: stop() is async-signal-safe (atomic increment + eventfd
/// write).  The first stop closes the listener and lets every connection
/// drain — in-flight jobs complete and flush — before the loop returns; a
/// second stop() force-closes whatever is left (the escape hatch when a
/// dead peer will never drain its responses).

namespace gcr::net {

struct EventLoopOptions {
  /// Port to bind on loopback; 0 = kernel-assigned (read EventLoop::port()).
  std::uint16_t port = 0;
  std::size_t max_connections = 256;
  /// Backlog bytes past which a connection's reads are suspended.
  std::size_t write_high_water = 1u << 20;
  /// Backlog bytes past which a connection is dropped outright.
  std::size_t write_hard_cap = 4u << 20;
  /// Per-connection cap on commands dispatched but not yet completed
  /// (ROUTE jobs on the pool *and* fail-fast responses still parked in
  /// the wakeup mailbox — the byte marks cannot see either).  Past it the
  /// connection's surplus commands park exactly like write backpressure,
  /// so a burst of instant-failing ROUTEs cannot grow the mailbox without
  /// bound.
  std::size_t max_inflight = 256;
  /// SO_SNDBUF for accepted sockets; 0 = kernel default.  The backpressure
  /// marks measure *user-space* backlog, so a generous kernel send buffer
  /// hides a slow reader until it overflows — shrink this to make the
  /// marks bite early (tests do; a memory-tight deployment might).
  int so_sndbuf = 0;
  /// Non-empty: additionally listen on a unix-domain socket at this path.
  /// Accepted peers share the Connection/FrameParser path verbatim with
  /// TCP peers; the socket file is unlinked when the loop is destroyed.
  std::string unix_path;
};

/// The loop's counters, in STATS order.  Exported into the STATS body (as
/// `loop_*` keys) through RoutingService::set_extra_stats, so TCP clients
/// see loop health next to the service counters.
#define GCR_LOOP_COUNTERS(X)                                               \
  /* Live connection gauge — a dedicated atomic rather than conns_.size()  \
     because the STATS render runs on whatever thread asked, not the       \
     loop. */                                                              \
  X(connections)                                                           \
  X(accepted)                                                              \
  X(rejected_at_capacity)                                                  \
  X(closed)                                                                \
  X(commands)                                                              \
  X(reads_suspended)       /* suspension *events* */                       \
  X(dropped_slow)          /* hard-cap drops */                            \
  X(dropped_error)         /* read/write/epoll errors */                   \
  X(completions_discarded) /* conn died first */                           \
  /* Commands parked on a connection (backpressure or an ordering barrier) \
     and parked commands later replayed by settle(); parked >= replayed,   \
     the difference is what is parked right now plus what died parked. */  \
  X(parked)                                                                \
  X(replayed)                                                              \
  X(bytes_in)  /* recv()'d payload bytes */                                \
  X(bytes_out) /* send()'d payload bytes */                                \
  X(wakeups)   /* epoll batches processed */

GCR_COUNTER_TABLE(LoopCounters, GCR_LOOP_COUNTERS)

/// The loop's live counters; atomics so tests and monitoring threads can
/// read them while the loop runs.
struct EventLoopStats : LoopCounters<serve::Counter> {
  /// Wall-clock per epoll batch (event processing, not the sleep),
  /// microseconds: the loop's own responsiveness.  A fat tail here means
  /// something is doing expensive work on the loop thread.
  serve::Histogram loop_lag;
};

class EventLoop {
 public:
  /// Binds the listener and creates the epoll set and wakeup mailbox; the
  /// loop does not serve until run().  Throws std::runtime_error when the
  /// port cannot be bound (and on non-Linux platforms, which lack epoll).
  EventLoop(serve::RoutingService& service, const EventLoopOptions& opts = {});
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// The bound port — what to advertise when options said 0.
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Serves until stop().  Call from exactly one thread.
  void run();

  /// Requests shutdown; async-signal-safe, callable from any thread or a
  /// signal handler.  First call drains, second call force-closes.
  void stop() noexcept;

  [[nodiscard]] const EventLoopStats& stats() const noexcept { return stats_; }

 private:
  struct Mailbox;  ///< completion queue + wakeup eventfd (in the .cpp)

  void accept_ready(Listener& from);
  /// Adds (true) or removes (false) every listener in the epoll set.
  /// Never re-arms once shutdown has begun.
  void set_accepting(bool on);
  void drain_mailbox();
  void handle_readable(std::uint64_t id);
  /// Dispatches events[from..] in order, parking the tail on the
  /// connection (and suspending reads) the moment the backlog crosses the
  /// high-water mark — settle() resumes the parked tail as the peer
  /// drains.
  void process_events(Connection& conn,
                      std::vector<FrameParser::Event>& events,
                      std::size_t from = 0);
  void dispatch(Connection& conn, FrameParser::Event& ev);
  /// Writes what the socket accepts, applies backpressure marks, updates
  /// epoll interest, and closes the connection when it is done.  The one
  /// place a connection's fate is decided; \p id may be gone afterwards.
  void settle(std::uint64_t id);
  void close_connection(std::uint64_t id, bool drop);
  void begin_shutdown();
  void force_close_all();
  void update_interest(Connection& conn);

  serve::RoutingService& service_;
  EventLoopOptions opts_;
  EventLoopStats stats_;
  ScopedFd epoll_;
  Listener listener_;
  std::optional<Listener> unix_listener_;  ///< --listen-unix
  std::shared_ptr<Mailbox> mailbox_;
  std::atomic<int> stop_requests_{0};
  bool stopping_ = false;
  bool accepting_ = false;  ///< listeners are in the epoll set
  /// 0 = TCP listener tag, 1 = mailbox tag, 2 = unix listener tag.
  std::uint64_t next_conn_id_ = 3;
  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
};

}  // namespace gcr::net
