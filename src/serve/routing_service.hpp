#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/netlist_router.hpp"
#include "core/optimize.hpp"
#include "pipeline/stage.hpp"
#include "pipeline/stage_cache.hpp"
#include "serve/fair_queue.hpp"
#include "serve/layout_session.hpp"
#include "serve/metrics.hpp"
#include "serve/pinned_session.hpp"
#include "serve/trace.hpp"

/// \file routing_service.hpp
/// The serving facade: a persistent worker pool draining a bounded,
/// fair (round-robin) job queue against cached layout sessions.
///
/// Every command that leaves the front-end thread is one Job with one
/// lifecycle, whatever the verb:
///   submit  -> the request family's admission: resolve the session, pin
///              or net names (a miss answers inline, nothing queued) and
///              bind the job's run and reject functions
///           -> admission through the bounded fair queue (full = the job's
///              reject path, answered inline); jobs shard by session key
///              (pins by handle, LOADs by content key, GENs together) and
///              dequeue round-robin, so one saturating session cannot
///              starve its neighbors
///   worker  -> cancellation and deadline checked at dequeue (a stopped job
///              takes its reject path too)
///           -> the job's run function fills one Response: status, error,
///              verb meta and body — rendered here, on the worker, because
///              route dumps and stage bodies (possibly a multi-MB SVG) are
///              the expensive part of a reply
///   done    -> record_completion closes the spans and latency shards, and
///              the callback fires exactly once; format_response
///              (serve/protocol.hpp) turns the Response into the wire frame
///
/// serve::dispatch (serve/dispatch.hpp) is the protocol's only caller.
///
/// Deadlines and cancellation are enforced at the queue boundary — a job
/// whose deadline passed while queued, or whose client hung up, is dropped
/// without routing — and cooperatively in flight: ROUTE/REROUTE check
/// between nets, OPTIMIZE at pass boundaries, and the pipeline stages
/// inside their own loops.  A stopped run is reported kExpired/kCancelled
/// and its partial result is discarded — never committed to the session or
/// cached.

namespace gcr::serve {

enum class RouteStatus {
  kOk,
  kSessionNotFound,  ///< ROUTE before LOAD (or evicted session)
  kRejected,         ///< queue full at admission
  kExpired,          ///< deadline passed while queued or mid-run
  kCancelled,        ///< cancel token set while queued or mid-run
  kError,            ///< routing threw (bad options, internal failure)
};

[[nodiscard]] const char* to_string(RouteStatus s) noexcept;

/// A route-family command (ROUTE/REROUTE/OPTIMIZE/stage verbs), as the
/// protocol parses it and the service admits it.
struct RouteRequest {
  std::string session_key;
  route::NetlistOptions opts;
  /// Net-name list (the protocol's `nets=a,b,c`): resolved against the
  /// session's netlist at admission — into `opts.subset` (ROUTE: route only
  /// these nets) or, when `reroute` is set, into `opts.reroute` (REROUTE:
  /// rip these up and re-route them last).  An unknown name fails the
  /// request with kError before anything is queued.  Duplicate names
  /// collapse to one entry.  Empty = whole netlist (ROUTE only).
  std::vector<std::string> nets;
  /// REROUTE semantics: `nets` is the rip-up set, routed against the
  /// committed remainder of a full sequential pass (see
  /// route::NetlistOptions::reroute).  The response dump is restricted to
  /// these nets, exactly like a subset request.
  bool reroute = false;
  /// OPTIMIZE semantics: run the iterated rip-up-and-reroute engine over
  /// the whole netlist instead of a single routing pass.  `nets` must be
  /// empty; `opts.steiner`/`opts.wire_halo` still apply; the engine's own
  /// knobs ride in `passes`/`budget`; `deadline` and
  /// `cancel` are honored *at pass boundaries* too (not just at dequeue) —
  /// expiry mid-run returns the best routing so far rather than an error.
  bool optimize = false;
  /// Pipeline-stage semantics (DETAIL/CONGEST/VERIFY/SVG): run the selected
  /// stage against the session's committed routes instead of routing.
  /// `nets` must be empty; `optimize`/`reroute` must be false.  A
  /// session with no committed routes first runs a default full sequential
  /// pass (deterministic) and commits it, so a stage verb works on a fresh
  /// session too.  Results are cached content-addressed — see StageCache.
  std::optional<pipeline::StageOptions> stage;
  /// Pass cap for OPTIMIZE; 0 = the engine default.
  std::size_t passes = 0;
  /// Wall-clock budget for OPTIMIZE; zero = unbounded.
  std::chrono::milliseconds budget{0};
  /// Per-pass progress hook for OPTIMIZE (may be empty).  Invoked on the
  /// worker thread after every completed pass; the front-ends stream each
  /// call as a `PASS` reply line.  Must not block or throw.
  route::OptimizeProgress progress;
  /// Counted from admission; unset (default) = no deadline.
  std::optional<std::chrono::milliseconds> deadline;
  /// Optional cooperative cancel token; set it to true to drop the request
  /// — before a worker picks it up, or mid-run at the engine's next check
  /// (between nets / at pass boundaries / inside stage loops).
  std::shared_ptr<std::atomic<bool>> cancel;
  /// `trace=1`: echo the request's span breakdown in the response meta.
  /// Spans are stamped unconditionally (a handful of clock reads against
  /// engine runs of >= 100 us) so the slow-request ring always has them;
  /// this flag only gates the rendering.
  bool trace = false;
  /// When the front-end read the command off the wire, stamped just before
  /// parsing — the origin of the trace's parse span.  Zero (default) = the
  /// parse span is not measured.
  std::chrono::steady_clock::time_point received{};
};

/// A LOAD or GEN admission: LOAD sets `text` and `key`, GEN sets `synth`.
struct LoadRequest {
  /// LOAD: the layout text and its precomputed SessionCache::content_key —
  /// the caller's admission probe already hashed the body; the worker must
  /// not pay that again.
  std::string text;
  std::string key;
  /// GEN: produces the layout text on the worker (at the parse caps
  /// synthesis alone can run for seconds).  May throw; the failure comes
  /// back as the ERR reason.
  std::function<std::string()> synth;
  /// GEN: the generator name, echoed as the reply's trailing `gen=<kind>`.
  std::string gen;
  /// Set at dequeue: skip the build — the peer is gone and nobody wants
  /// the session (the callback still fires, cancelled).
  std::shared_ptr<std::atomic<bool>> cancel;
};

/// A session-lifecycle request (PIN / UNPIN / COMMIT / UNCOMMIT / pinned
/// REROUTE / SAVE).  `owner` is the submitting connection's identity — its
/// cancel token, the same object the disconnect path flips — and gates
/// every mutation: only the owner may touch a pin.
struct PinRequest {
  enum class Op { kPin, kUnpin, kCommit, kUncommit, kReroute, kSave };
  Op op = Op::kPin;
  /// PIN: a cached session key (derive) or an existing handle (claim);
  /// everything else: the pin handle.
  std::string key;
  /// COMMIT/UNCOMMIT/REROUTE: the net-name list, resolved against the
  /// pin's layout on the worker.
  std::vector<std::string> nets;
  /// SAVE: the snapshot file name (validated — no path separators).
  std::string save_name;
  /// Wire spacing halo for committed segments (COMMIT/REROUTE).
  geom::Coord wire_halo = 1;
  std::shared_ptr<std::atomic<bool>> owner;
};

/// A queued command: one request of each verb family.
using Request = std::variant<RouteRequest, LoadRequest, PinRequest>;

/// What every job answers, whatever its verb: the run function fills the
/// status and either the error or the verb's meta and body, and
/// format_response (serve/protocol.hpp) renders it as the wire frame.
struct Response {
  RouteStatus status = RouteStatus::kError;
  /// The ERR frame's reason, complete (fail() prefixes the status text).
  std::string error;
  /// The verb's own `key=value` meta, without the timing tail.
  std::string meta;
  std::string body;
  /// Whether the reply meta ends with `queue_us=<q> total_us=<t>` (every
  /// worker-run verb except LOAD, GEN, PIN and UNPIN).
  bool timed = false;
  /// `trace=1`: format_response appends trace.render_meta().
  bool traced = false;
  /// The span breakdown, populated for worker-served jobs: queue_us is
  /// trace.dequeue_us, total_us is trace.total_us.
  RequestTrace trace;

  [[nodiscard]] bool ok() const noexcept { return status == RouteStatus::kOk; }
  /// Marks the response failed: ERR `<status>` or `<status>: <reason>`.
  void fail(RouteStatus s, const std::string& reason = {});
};

/// Completion callback for submit.  Invoked exactly once: inline on the
/// submitting thread for fail-fast outcomes (unknown session, unknown net,
/// non-owner pin, full queue), or on a worker thread.  It must not block —
/// the worker pool's throughput rides on it.
using Callback = std::function<void(Response)>;

/// The closed-loop names the benchmark harness drives.
using RouteResponse = Response;
/// pin_op's result: a Response plus the `pin=` handle it names and its
/// queue and total spans.
struct PinResponse : Response {
  std::string handle;
  std::chrono::microseconds queue_wait{0};
  std::chrono::microseconds latency{0};
};

class RoutingService {
 public:
  struct Options {
    /// 0 = one worker per hardware thread.
    std::size_t workers = 0;
    std::size_t queue_capacity = 64;
    std::size_t cache_capacity = 8;
    /// Stage results are small relative to sessions (text renderings, not
    /// obstacle indexes), so the default holds several per session.
    std::size_t stage_cache_capacity = 32;
    /// SAVE target directory; empty = snapshots disabled (SAVE answers ERR).
    std::string snapshot_dir;
    /// Directory scanned at construction: every decodable snapshot becomes
    /// a registered (unowned) pin — the rolling-restart rehydration path.
    /// Corrupt or truncated files are skipped with a stderr warning; they
    /// never produce a half-restored session.
    std::string restore_dir;
    /// Slow-request ring admission threshold (the daemon's --slow-ms).
    /// 0 = no threshold: the ring keeps the top-N slowest requests seen.
    std::uint64_t slow_threshold_ms = 0;
    /// How many slow-request traces the TRACE verb can dump.
    std::size_t slow_ring_capacity = 32;
    /// Background save period for registered pins (the daemon's
    /// --snapshot-interval-s): every interval a sweeper thread runs
    /// save_pins, so a crash loses at most one interval's mutations instead
    /// of everything since the last explicit SAVE.  The sweep never enters
    /// the job queue.  0 = disabled; requires snapshot_dir.
    std::size_t snapshot_interval_s = 0;
  };

  RoutingService() : RoutingService(Options{}) {}
  explicit RoutingService(const Options& opts);
  ~RoutingService();  ///< closes the queue and joins the pool

  RoutingService(const RoutingService&) = delete;
  RoutingService& operator=(const RoutingService&) = delete;

  /// Parses + caches a layout (see SessionCache::load).  Throws
  /// std::runtime_error on malformed or invalid layouts.
  std::shared_ptr<const LayoutSession> load(const std::string& text,
                                            bool* cache_hit = nullptr);

  /// Admits one job.  Route-family requests (ROUTE/REROUTE/OPTIMIZE/stage
  /// verbs) resolve their session and net names here; LOAD/GEN run their
  /// parse, validation and environment build (plus, for GEN, the
  /// synthesis) on the worker pool, so a cold-session storm cannot stall a
  /// front-end thread; pin ops check ownership here and again on the
  /// worker, so a pin released mid-queue fails cleanly, and mutations of
  /// one pin apply in submission order — a per-pin FIFO ticket chain
  /// layered over the queue (see pinned_session.hpp).  \p done fires
  /// exactly once (see Callback).
  void submit(Request req, Callback done);

  /// Closed-loop convenience: submit and wait.
  [[nodiscard]] Response call(Request req);

  /// call() for a pin op, with the reply's `pin=` handle parsed out.
  [[nodiscard]] PinResponse pin_op(PinRequest req);

  /// Releases every pin owned by \p owner — the disconnect auto-release
  /// hook, called by every transport when a connection ends (the epoll
  /// loop from close_connection, serve_connection at exit).  With
  /// \p preserve (the event loop's drain path during shutdown) the pins
  /// stay registered unowned instead of being destroyed, so the final
  /// save_pins can still snapshot them.
  void release_pins(const std::shared_ptr<std::atomic<bool>>& owner,
                    bool preserve = false);

  /// The save sweep, on the calling thread (the autosaver every
  /// snapshot_interval_s, gcr_serve after its drain): writes each pin to
  /// snapshot_dir/<handle> on its own ticket-chain turn, so an op in flight
  /// or queued ahead finishes first, and skips a pin released before its
  /// turn.  Counts pin_saves and pin_autosaves; logs failures to stderr.
  /// No-op without a snapshot_dir.  Returns how many it wrote.
  std::size_t save_pins();

  [[nodiscard]] PinRegistry& pins() noexcept { return pins_; }

  [[nodiscard]] SessionCache& sessions() noexcept { return cache_; }

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// The STATS response body: the metrics snapshot plus whatever the
  /// registered extra-stats hook (the TCP front-end's loop-health section)
  /// appends.
  [[nodiscard]] std::string stats_text() const;

  /// Registers a hook whose output is appended verbatim to stats_text() —
  /// how the event loop exports its health without the service knowing
  /// about epoll.  Pass an empty function to clear (the loop's destructor
  /// must, before its counters die).  The hook may be called from any
  /// thread and must only read lock-free state.
  void set_extra_stats(std::function<std::string()> extra);

  /// Records one sample into a verb's latency shard — for request kinds
  /// served outside the worker pool (the front-ends' inline STATS render).
  void record_verb_latency(VerbKind kind, std::uint64_t micros) noexcept {
    metrics_.verb_latency[static_cast<std::size_t>(kind)].record(micros);
  }

  /// Up to \p n completed slow-request traces, slowest first (TRACE verb).
  [[nodiscard]] std::vector<SlowRecord> slow_requests(std::size_t n) const {
    return slow_ring_.top(n);
  }
  [[nodiscard]] std::uint64_t slow_threshold_ms() const noexcept {
    return opts_.slow_threshold_ms;
  }

  /// Whole seconds since this service instance was constructed.
  [[nodiscard]] std::uint64_t uptime_s() const;

 private:
  /// One admitted command: the header every job shares, plus the two
  /// functions its request family bound at admission.
  struct Job {
    /// Admission sequence number (TRACE output id).
    std::uint64_t id = 0;
    /// Which latency shard and TRACE label this job belongs to.
    VerbKind verb = VerbKind::kRoute;
    /// The queue key — session key, pin handle, LOAD content key, or "gen"
    /// — and the TRACE session label (a GEN relabels itself with the
    /// session it produced).
    std::string shard;
    /// Span stamps, written by admit/worker and closed by
    /// record_completion.
    RequestTrace trace;
    std::chrono::steady_clock::time_point submitted;
    /// Microseconds since submission: the clock read every stamp takes.
    [[nodiscard]] std::uint64_t elapsed_us() const;
    /// Checked at dequeue: a passed deadline (zero = none) or a set token
    /// takes the reject path instead of run.
    std::chrono::steady_clock::time_point deadline{};
    std::shared_ptr<std::atomic<bool>> cancel;
    /// Does the work on a worker and fills the response.
    std::function<void(Job&, Response&)> run;
    /// Counts a job answered without running — queue full, expired or
    /// cancelled — and returns what admission took (a pin's ticket).
    std::function<void(RouteStatus)> reject;
    Callback done;
  };

  /// The three request families' admission: resolve what the request
  /// names, fill \p job's header and bind its run and reject functions.
  /// A fail-fast outcome answers inline and returns false.
  bool prepare(Job& job, RouteRequest&& req);
  bool prepare(Job& job, LoadRequest&& req);
  bool prepare(Job& job, PinRequest&& req);
  /// Stamps \p job's trace id and admission span and queues it on its
  /// shard; a full queue answers it inline through its reject path.
  void admit(Job& job);
  void worker_loop();
  void autosave_loop();
  /// Answers \p job stopped — cancelled if its token is set, otherwise
  /// expired — through its reject path.
  void stop(Job& job, Response& resp);
  void run_route(Job& job, RouteRequest& req, const LayoutSession& session,
                 Response& resp);
  void run_stage(Job& job, const RouteRequest& req,
                 const LayoutSession& session, Response& resp);
  void run_load(Job& job, LoadRequest& req, Response& resp);
  /// PIN-derive: copy-on-pin of \p base's environment.
  void derive_pin(const PinRequest& req,
                  const std::shared_ptr<const LayoutSession>& base,
                  Response& resp);
  /// A pin-handle op on its ticket turn: claim, UNPIN or a mutation.
  void run_pin_op(const PinRequest& req,
                  const std::shared_ptr<PinnedSession>& pin, Response& resp);
  /// Snapshots \p pin to \p name under snapshot_dir (SAVE and the sweep)
  /// and returns the blob size; throws std::runtime_error with the reason.
  std::uint64_t save_pin(const PinnedSession& pin, const std::string& name);
  /// Closes \p job's trace and records it into the latency histograms and
  /// the slow-request ring — the bookkeeping every finished job shares.
  void record_completion(Job& job, RouteStatus status);

  Options opts_;
  SessionCache cache_;
  pipeline::StageCache stage_cache_;
  FairQueue<Job> queue_;
  ServiceMetrics metrics_;
  PinRegistry pins_;
  std::chrono::steady_clock::time_point start_;
  SlowRequestRing slow_ring_;
  std::atomic<std::uint64_t> trace_ids_{0};
  mutable std::mutex extra_stats_mu_;
  std::function<std::string()> extra_stats_;
  std::mutex autosave_mu_;
  std::condition_variable autosave_cv_;
  bool autosave_stop_ = false;
  std::vector<std::thread> workers_;
  std::thread autosaver_;  ///< running iff snapshot_interval_s > 0
};

}  // namespace gcr::serve
