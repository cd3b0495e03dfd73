#include "serve/routing_service.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <iterator>
#include <map>
#include <utility>
#include <variant>

#include "core/steiner.hpp"
#include "io/route_dump.hpp"
#include "io/text_format.hpp"
#include "pipeline/stage_runner.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"

namespace gcr::serve {

namespace {

std::uint64_t micros_between(std::chrono::steady_clock::time_point a,
                             std::chrono::steady_clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}

/// The latency shard a route-family request records into.
VerbKind classify_verb(const RouteRequest& req) {
  if (req.stage.has_value()) {
    switch (req.stage->kind) {
      case pipeline::StageKind::kDetail: return VerbKind::kDetail;
      case pipeline::StageKind::kCongest: return VerbKind::kCongest;
      case pipeline::StageKind::kVerify: return VerbKind::kVerify;
      case pipeline::StageKind::kSvg: return VerbKind::kSvg;
    }
  }
  if (req.optimize) return VerbKind::kOptimize;
  if (req.reroute) return VerbKind::kReroute;
  return VerbKind::kRoute;
}

/// fsync()s \p path opened with \p flags; empty on success, else the
/// reason.
std::string sync_path(const std::filesystem::path& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0 || ::fsync(fd) != 0) {
    const std::string reason = std::strerror(errno);
    if (fd >= 0) ::close(fd);
    return "cannot sync '" + path.string() + "': " + reason;
  }
  ::close(fd);
  return {};
}

/// Writes \p blob to \p path and fsync()s it; empty on success, else the
/// reason.
std::string write_synced(const std::filesystem::path& path,
                         const std::string& blob) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return "cannot write snapshot file '" + path.string() + "'";
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out) return "short write to snapshot file '" + path.string() + "'";
  }
  return sync_path(path, O_RDONLY);
}

/// Resolves \p names against a session's net-name index into net
/// indices, in first-occurrence order with duplicates collapsed.  Returns
/// the failure reason for an unknown name, empty on success.
std::string resolve_nets(const std::map<std::string, std::size_t>& index,
                         std::size_t net_count,
                         const std::vector<std::string>& names,
                         std::vector<std::size_t>& ids) {
  ids.clear();
  ids.reserve(names.size());
  std::vector<bool> taken(net_count, false);
  for (const std::string& name : names) {
    const auto it = index.find(name);
    if (it == index.end()) return "unknown net '" + name + "'";
    if (taken[it->second]) continue;  // duplicate name: once
    taken[it->second] = true;
    ids.push_back(it->second);
  }
  return {};
}

/// The PIN reply meta, shared by derive and claim.
std::string pin_meta(const PinnedSession& pin) {
  return MetaBuilder()
      .add("pin", pin.handle)
      .add("session", pin.base_key)
      .add("nets", pin.layout->nets().size())
      .add("committed", pin.routes.size())
      .str();
}

/// Answers \p done inline with a failure; returns false (nothing queued).
bool answer_now(const Callback& done, RouteStatus status,
                const std::string& reason = {}) {
  Response resp;
  resp.fail(status, reason);
  done(std::move(resp));
  return false;
}

}  // namespace

const char* to_string(RouteStatus s) noexcept {
  switch (s) {
    case RouteStatus::kOk: return "ok";
    case RouteStatus::kSessionNotFound: return "session_not_found";
    case RouteStatus::kRejected: return "rejected";
    case RouteStatus::kExpired: return "deadline_expired";
    case RouteStatus::kCancelled: return "cancelled";
    case RouteStatus::kError: return "error";
  }
  return "unknown";
}

void Response::fail(RouteStatus s, const std::string& reason) {
  status = s;
  error = to_string(s);
  if (!reason.empty()) error += ": " + reason;
}

RoutingService::RoutingService(const Options& opts)
    : opts_(opts),
      cache_(opts.cache_capacity),
      stage_cache_(opts.stage_cache_capacity),
      queue_(opts.queue_capacity),
      start_(std::chrono::steady_clock::now()),
      slow_ring_(opts.slow_ring_capacity, opts.slow_threshold_ms * 1000) {
  // Rehydrate snapshotted pins before the workers start, so restored
  // sessions are addressable from the very first request.
  if (!opts_.restore_dir.empty()) restore_pins(opts_.restore_dir);
  const std::size_t n = route::resolve_worker_count(opts.workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (!opts_.snapshot_dir.empty() && opts_.snapshot_interval_s > 0) {
    autosaver_ = std::thread([this] { autosave_loop(); });
  }
}

RoutingService::~RoutingService() {
  // The autosaver submits into the queue; stop it before admission closes.
  if (autosaver_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(autosave_mu_);
      autosave_stop_ = true;
    }
    autosave_cv_.notify_all();
    autosaver_.join();
  }
  queue_.close();
  for (std::thread& t : workers_) t.join();
  // Workers have drained the queue: every accepted job's callback has fired.
}

std::shared_ptr<const LayoutSession> RoutingService::load(
    const std::string& text, bool* cache_hit) {
  return cache_.load(text, cache_hit);
}

std::uint64_t RoutingService::Job::elapsed_us() const {
  return micros_between(submitted, std::chrono::steady_clock::now());
}

void RoutingService::submit(Request req, Callback done) {
  Job job;
  job.submitted = std::chrono::steady_clock::now();
  job.done = std::move(done);
  if (std::visit([&](auto& r) { return prepare(job, std::move(r)); }, req)) {
    admit(job);
  }
}

Response RoutingService::call(Request req) {
  // The promise is shared with the callback, which may outlive this frame
  // on the worker that ran it.
  auto p = std::make_shared<std::promise<Response>>();
  std::future<Response> fut = p->get_future();
  submit(std::move(req),
         [p](Response resp) { p->set_value(std::move(resp)); });
  return fut.get();
}

PinResponse RoutingService::pin_op(PinRequest req) {
  PinResponse resp;
  static_cast<Response&>(resp) = call(std::move(req));
  resp.handle = meta_value(resp.meta, "pin");
  resp.queue_wait = std::chrono::microseconds(resp.trace.dequeue_us);
  resp.latency = std::chrono::microseconds(resp.trace.total_us);
  return resp;
}

bool RoutingService::prepare(Job& job, RouteRequest&& req) {
  metrics_.requests_submitted.fetch_add(1, std::memory_order_relaxed);
  // Resolve the session at admission: an unknown handle must fail fast, not
  // burn a queue slot and a worker wake-up.
  std::shared_ptr<const LayoutSession> session = cache_.find(req.session_key);
  if (session == nullptr) {
    metrics_.requests_not_found.fetch_add(1, std::memory_order_relaxed);
    return answer_now(job.done, RouteStatus::kSessionNotFound);
  }

  // Resolve a net-name list against the session while we still can answer
  // with a precise diagnostic; by worker time the client context is gone.
  // ROUTE lists become a subset restriction, REROUTE lists the rip-up set.
  if (!req.nets.empty()) {
    const std::string error = resolve_nets(
        session->net_index, session->layout.nets().size(), req.nets,
        req.reroute ? req.opts.reroute : req.opts.subset);
    if (!error.empty()) {
      metrics_.requests_errored.fetch_add(1, std::memory_order_relaxed);
      return answer_now(job.done, RouteStatus::kError, error);
    }
    if (req.reroute) req.opts.subset.clear();
  }

  job.verb = classify_verb(req);
  // Shard by session: fair dispatch is per layout, so one session's burst
  // queues behind itself instead of in front of everyone else.
  job.shard = req.session_key;
  if (req.deadline) job.deadline = job.submitted + *req.deadline;
  job.cancel = req.cancel;
  if (req.received != std::chrono::steady_clock::time_point{} &&
      req.received <= job.submitted) {
    job.trace.parse_us = micros_between(req.received, job.submitted);
  }
  job.reject = [this](RouteStatus status) {
    (status == RouteStatus::kRejected    ? metrics_.requests_rejected
     : status == RouteStatus::kCancelled ? metrics_.requests_cancelled
                                         : metrics_.requests_expired)
        .fetch_add(1, std::memory_order_relaxed);
  };
  job.run = [this, req = std::move(req), session = std::move(session)](
                Job& j, Response& resp) mutable {
    resp.timed = true;
    resp.traced = req.trace;
    if (req.stage.has_value()) {
      run_stage(j, req, *session, resp);
    } else {
      run_route(j, req, *session, resp);
    }
  };
  return true;
}

bool RoutingService::prepare(Job& job, LoadRequest&& req) {
  metrics_.loads_offloaded.fetch_add(1, std::memory_order_relaxed);
  const bool gen = static_cast<bool>(req.synth);
  job.verb = gen ? VerbKind::kGen : VerbKind::kLoad;
  // The load key IS the session content key, so a cold LOAD queues in the
  // same shard as that session's routes — fair against other sessions,
  // ordered within its own.  All GENs share one shard: synthesis has no
  // session identity yet, and pooling them keeps a generation storm to one
  // ring turn per round.
  job.shard = gen ? "gen" : req.key;
  // A peer gone by dequeue skips the build: nobody wants the session.
  job.cancel = req.cancel;
  job.reject = [this, gen](RouteStatus) {
    metrics_.loads_failed.fetch_add(1, std::memory_order_relaxed);
    if (gen) metrics_.gens_failed.fetch_add(1, std::memory_order_relaxed);
  };
  job.run = [this, req = std::move(req)](Job& j, Response& resp) mutable {
    run_load(j, req, resp);
  };
  return true;
}

bool RoutingService::prepare(Job& job, PinRequest&& req) {
  const auto fail_now = [&](RouteStatus status, const std::string& reason) {
    metrics_.pin_ops_failed.fetch_add(1, std::memory_order_relaxed);
    return answer_now(job.done, status, reason);
  };
  if (req.owner == nullptr) {
    return fail_now(RouteStatus::kError,
                    "pin request without a connection identity");
  }

  job.verb = VerbKind::kPin;
  std::shared_ptr<PinnedSession> pin = pins_.find(req.key);
  std::shared_ptr<const LayoutSession> base;
  std::uint64_t ticket = 0;
  if (pin == nullptr && req.op == PinRequest::Op::kPin) {
    // Derive from a cached session.  The expensive copy-on-pin runs on a
    // worker; no ticket — the pin does not exist yet, so nothing to order
    // against.  It shards under the *base session* key: the handle does
    // not exist yet, and the copy-on-pin competes with that session's
    // routes.
    base = cache_.find(req.key);
    if (base == nullptr) return fail_now(RouteStatus::kSessionNotFound, {});
    job.shard = req.key;
  } else if (pin == nullptr) {
    return fail_now(RouteStatus::kSessionNotFound,
                    "no pin '" + req.key + "'");
  } else if (req.op != PinRequest::Op::kPin && !req.system &&
             !pins_.verify(pin, req.owner)) {
    // Advisory ownership pre-check (claims excepted — claiming an unowned
    // pin is the point; system sweeps too — the autosaver snapshots pins
    // it does not own); re-checked authoritatively on the worker once this
    // op's turn comes up.
    return fail_now(RouteStatus::kError, "pin '" + req.key +
                                             "' is owned by another "
                                             "connection");
  } else {
    // Mutations shard by handle: the pin's FIFO ticket chain and its queue
    // shard agree on order, and a busy pin cannot starve other sessions.
    ticket = pin->acquire_ticket();
    job.shard = pin->handle;
  }
  // No cancel token: a pin op from a connection that hung up still runs,
  // and fails there — derive finds the owner closed, a mutation fails the
  // ownership re-check — so its ticket is always taken in turn.  Holding
  // `pin` keeps its state alive if it is released while this job queues.
  job.reject = [this, pin, ticket](RouteStatus) {
    metrics_.pin_ops_failed.fetch_add(1, std::memory_order_relaxed);
    if (pin != nullptr) pin->abort_turn(ticket);
  };
  job.run = [this, req = std::move(req), pin, ticket, base = std::move(base)](
                Job& j, Response& resp) {
    if (pin == nullptr) {
      derive_pin(req, base, resp);
    } else {
      pin->wait_turn(ticket);
      run_pin_op(req, pin, resp);
      pin->finish_turn(ticket);
    }
    j.trace.exec_us = j.elapsed_us();
    (resp.ok() ? metrics_.pin_ops_ok : metrics_.pin_ops_failed)
        .fetch_add(1, std::memory_order_relaxed);
  };
  return true;
}

void RoutingService::release_pins(
    const std::shared_ptr<std::atomic<bool>>& owner, bool preserve) {
  const std::size_t released = pins_.release_owner(owner, preserve);
  if (released > 0) {
    metrics_.pins_released.fetch_add(released, std::memory_order_relaxed);
  }
}

std::size_t RoutingService::final_save_pins() {
  if (opts_.snapshot_dir.empty()) return 0;
  std::size_t written = 0;
  for (const auto& pin : pins_.all()) {
    // Ride the ticket chain: a mutation still running on a worker (or
    // queued ahead by a force-closed connection) holds an earlier ticket,
    // so wait_turn is the per-pin quiesce barrier — the snapshot always
    // serializes a committed state, never a half-applied op.
    const std::uint64_t ticket = pin->acquire_ticket();
    pin->wait_turn(ticket);
    std::uint64_t bytes = 0;
    const std::string error = save_pin(*pin, pin->handle, bytes);
    pin->finish_turn(ticket);
    if (error.empty()) {
      ++written;
      metrics_.pin_autosaves.fetch_add(1, std::memory_order_relaxed);
    } else {
      std::cerr << "gcr_serve: final save of '" << pin->handle
                << "' failed: " << error << "\n";
    }
  }
  return written;
}

void RoutingService::autosave_loop() {
  const auto interval = std::chrono::seconds(opts_.snapshot_interval_s);
  std::unique_lock<std::mutex> lock(autosave_mu_);
  for (;;) {
    if (autosave_cv_.wait_for(lock, interval,
                              [&] { return autosave_stop_; })) {
      return;
    }
    lock.unlock();
    // Hot pins persist continuously: each registered pin gets a system
    // SAVE job that rides its ticket chain like any client mutation, so
    // the snapshot lands between ops, in submission order, without ever
    // claiming the pin away from its owner.
    for (const auto& pin : pins_.all()) {
      PinRequest req;
      req.op = PinRequest::Op::kSave;
      req.key = pin->handle;
      req.save_name = pin->handle;
      req.owner = system_owner_;
      req.system = true;
      submit(std::move(req), [this](Response resp) {
        if (resp.ok()) {
          metrics_.pin_autosaves.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    lock.lock();
  }
}

void RoutingService::admit(Job& job) {
  job.id = trace_ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Admission work (session resolve, net-name resolution) is the span
  // between the origin and here; the queue span starts at this stamp.
  job.trace.enqueue_us = job.elapsed_us();
  // try_push moves only on success, so a rejected job still owns its
  // callback and can deliver the rejection.
  if (queue_.try_push(job.shard, std::move(job))) return;
  job.reject(RouteStatus::kRejected);
  Response resp;
  resp.fail(RouteStatus::kRejected);
  job.done(std::move(resp));
}

void RoutingService::worker_loop() {
  while (std::optional<Job> job = queue_.pop()) {
    const auto now = std::chrono::steady_clock::now();
    job->trace.dequeue_us = micros_between(job->submitted, now);
    metrics_.queue_wait.record(job->trace.dequeue_us);
    Response resp;
    if ((job->cancel && job->cancel->load(std::memory_order_relaxed)) ||
        (job->deadline != std::chrono::steady_clock::time_point{} &&
         now > job->deadline)) {
      stop(*job, resp);
    } else {
      job->run(*job, resp);
    }
    record_completion(*job, resp.status);
    resp.trace = std::move(job->trace);
    job->done(std::move(resp));
  }
}

void RoutingService::stop(Job& job, Response& resp) {
  const RouteStatus status =
      job.cancel && job.cancel->load(std::memory_order_relaxed)
          ? RouteStatus::kCancelled
          : RouteStatus::kExpired;
  job.reject(status);
  resp.fail(status);
}

void RoutingService::run_route(Job& job, RouteRequest& req,
                               const LayoutSession& session,
                               Response& resp) {
  try {
    // The session's environment is injected, so this call performs no
    // ObstacleIndex / EscapeLineSet construction — the cache already paid
    // for both.  That holds for *sequential* mode too: the router copies
    // the shared environment and absorbs routed nets with incremental
    // commit_route updates instead of per-net rebuilds.
    route::NetlistResult result;
    std::vector<route::OptimizePassStats> passes;
    if (req.optimize) {
      route::OptimizeOptions oopts;
      oopts.steiner = req.opts.steiner;
      oopts.wire_halo = req.opts.wire_halo;
      if (req.passes > 0) oopts.max_passes = req.passes;
      oopts.budget = req.budget;
      oopts.deadline = job.deadline;
      oopts.cancel = req.cancel;
      // Per-pass sub-spans: wrap the caller's progress hook so every
      // completed pass leaves a trace stamp (same origin as the spans).
      oopts.progress = [user = req.progress,
                        &job](const route::OptimizePassStats& p) {
        job.trace.subs.push_back(
            {"pass" + std::to_string(p.pass), job.elapsed_us()});
        if (user) user(p);
      };
      const route::Optimizer optimizer(session.layout, session.env);
      job.trace.env_us = job.elapsed_us();
      route::OptimizeReport report = optimizer.run(oopts);
      job.trace.exec_us = job.elapsed_us();
      // The client vanished mid-run (pass-boundary check): nothing wants
      // the result.  PASS lines already streamed are fine — the peer that
      // would have read them is gone.
      if (report.cancelled) return stop(job, resp);
      result = std::move(report.result);
      passes = std::move(report.passes);
      metrics_.optimizes_ok.fetch_add(1, std::memory_order_relaxed);
      metrics_.optimize_passes.fetch_add(
          passes.empty() ? 0 : passes.size() - 1, std::memory_order_relaxed);
    } else {
      const route::NetlistRouter router(session.layout, session.env);
      req.opts.deadline = job.deadline;
      req.opts.cancel = req.cancel;
      job.trace.env_us = job.elapsed_us();
      result = router.route_all(req.opts);
      job.trace.exec_us = job.elapsed_us();
      // Stopped between nets: the partial result must not be dumped,
      // committed, or counted.
      if (result.cancelled) return stop(job, resp);
    }
    MetaBuilder meta;
    if (req.optimize) meta.add("passes", passes.size());
    meta.add("routed", result.routed)
        .add("failed", result.failed)
        .add("wirelength", result.total_wirelength);
    if (req.optimize) {
      meta.add("overflow", passes.empty() ? 0 : passes.back().overflow);
    }
    resp.meta = meta.str();
    // The dump restriction: the subset that was routed, or — for a
    // rip-up — the nets that were re-routed (the rest of the netlist was
    // only the committed backdrop).
    const std::vector<std::size_t>& nets =
        req.reroute ? req.opts.reroute : req.opts.subset;
    resp.body = nets.empty()
                    ? io::write_routes_string(session.layout, result)
                    : io::write_routes_string(session.layout, result, nets);
    resp.status = RouteStatus::kOk;
    metrics_.requests_ok.fetch_add(1, std::memory_order_relaxed);
    metrics_.nets_routed.fetch_add(result.routed, std::memory_order_relaxed);
    metrics_.nets_failed.fetch_add(result.failed, std::memory_order_relaxed);
    // Publish full-netlist results (ROUTE of everything, REROUTE — whose
    // result carries the whole netlist around the rip-up set — and
    // OPTIMIZE) as the session's committed routes.  The fingerprint in
    // the snapshot re-keys the stage cache, so a mutated routing
    // invalidates cached stage results while a byte-identical re-commit
    // keeps them hot.  Subset ROUTEs never commit: their result holds
    // only the requested nets.
    if (req.optimize || req.reroute || req.opts.subset.empty()) {
      session.routes.set(result);
    }
  } catch (const std::exception& e) {
    resp.fail(RouteStatus::kError, e.what());
    metrics_.requests_errored.fetch_add(1, std::memory_order_relaxed);
  }
}

void RoutingService::run_load(Job& job, LoadRequest& req, Response& resp) {
  const bool gen = static_cast<bool>(req.synth);
  try {
    bool cached = false;
    // GEN synthesizes here, then loads by content — the worker hashes the
    // body it just produced (no admission-time probe existed).
    const std::shared_ptr<const LayoutSession> session =
        gen ? cache_.load(req.synth(), &cached)
            : cache_.load(req.text, std::move(req.key), &cached);
    resp.meta = load_meta(*session, cached);
    if (gen) resp.meta += " gen=" + req.gen;
    resp.status = RouteStatus::kOk;
    job.shard = session->key;
  } catch (const std::exception& e) {
    // A LOAD/GEN reason is echoed bare, without a status prefix.
    resp.status = RouteStatus::kError;
    resp.error = e.what();
  }
  job.trace.exec_us = job.elapsed_us();
  (resp.ok() ? metrics_.loads_ok : metrics_.loads_failed)
      .fetch_add(1, std::memory_order_relaxed);
  if (gen) {
    (resp.ok() ? metrics_.gens_ok : metrics_.gens_failed)
        .fetch_add(1, std::memory_order_relaxed);
  }
}

void RoutingService::derive_pin(
    const PinRequest& req, const std::shared_ptr<const LayoutSession>& base,
    Response& resp) {
  // Copy-on-pin of the cached environment.  The layout is shared with the
  // base session via an aliasing pointer — the read-only entry is
  // untouched and stays cached.
  try {
    std::shared_ptr<const layout::Layout> layout(base, &base->layout);
    const std::shared_ptr<PinnedSession> pin =
        pins_.create(base->key, std::move(layout), base->env, req.owner);
    if (pin == nullptr) {
      return resp.fail(RouteStatus::kCancelled, "connection closed");
    }
    resp.status = RouteStatus::kOk;
    resp.meta = pin_meta(*pin);
    metrics_.pins_created.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    resp.fail(RouteStatus::kError, e.what());
  }
}

void RoutingService::run_pin_op(const PinRequest& req,
                                const std::shared_ptr<PinnedSession>& handle,
                                Response& resp) {
  PinnedSession& pin = *handle;
  if (req.op == PinRequest::Op::kPin) {
    // Claim (an existing handle — restored-unowned or idempotent re-claim).
    // Resolved here rather than at admission so a pipelined claim observes
    // the pin's state in submission order.
    switch (pins_.claim(pin.handle, req.owner)) {
      case PinRegistry::ClaimResult::kOk:
        resp.status = RouteStatus::kOk;
        resp.meta = pin_meta(pin);
        break;
      case PinRegistry::ClaimResult::kNotFound:
        resp.fail(RouteStatus::kCancelled, "pin released");
        break;
      case PinRegistry::ClaimResult::kOwnedElsewhere:
        resp.fail(RouteStatus::kError,
                  "pin '" + pin.handle + "' is owned by another connection");
        break;
      case PinRegistry::ClaimResult::kOwnerClosed:
        resp.fail(RouteStatus::kCancelled, "connection closed");
        break;
    }
    return;
  }
  if (req.system ? pins_.find(pin.handle) != handle
                 : !pins_.verify(handle, req.owner)) {
    // The pin was released (disconnect or UNPIN racing ahead in another
    // claim cycle) between admission and this turn.  System sweeps skip the
    // ownership half of the check — the autosaver saves pins it does not
    // own — but still bail if the pin left the registry.
    return resp.fail(RouteStatus::kCancelled, "pin released");
  }
  MetaBuilder meta;
  meta.add("pin", pin.handle);
  if (req.op == PinRequest::Op::kUnpin) {
    if (!pins_.erase(pin.handle, req.owner)) {
      return resp.fail(RouteStatus::kCancelled, "pin released");
    }
    resp.status = RouteStatus::kOk;
    resp.meta = meta.add("released", 1).str();
    metrics_.pins_released.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  resp.timed = true;
  try {
    if (req.op == PinRequest::Op::kSave) {
      std::uint64_t bytes = 0;
      const std::string error = save_pin(pin, req.save_name, bytes);
      if (!error.empty()) return resp.fail(RouteStatus::kError, error);
      resp.status = RouteStatus::kOk;
      resp.meta = meta.add("bytes", bytes).str();
      return;
    }

    // Resolve names first: any unknown name fails the whole op before a
    // single mutation lands (atomic at the op level).
    std::vector<std::size_t> ids;
    const std::string error =
        resolve_nets(pin.net_index, pin.layout->nets().size(), req.nets, ids);
    if (!error.empty()) return resp.fail(RouteStatus::kError, error);

    // COMMIT needs every listed net uncommitted, UNCOMMIT committed;
    // REROUTE takes either.
    const bool uncommit = req.op == PinRequest::Op::kUncommit;
    for (const std::size_t id : ids) {
      if (req.op != PinRequest::Op::kReroute &&
          (pin.routes.count(id) != 0) != uncommit) {
        return resp.fail(RouteStatus::kError,
                         "net '" + pin.layout->nets()[id].name() +
                             (uncommit ? "' is not committed"
                                       : "' is already committed"));
      }
    }
    // Rip up the listed nets that are present (none for COMMIT); a
    // REROUTE's absent ones just route.
    for (const std::size_t id : ids) {
      if (pin.routes.count(id) != 0) {
        pin.env.remove_route(id);
        pin.routes.erase(id);
      }
    }
    if (uncommit) {
      resp.status = RouteStatus::kOk;
      resp.meta = meta.add("removed", ids.size())
                      .add("committed", pin.routes.size())
                      .str();
      return;
    }

    // Route and commit incrementally, in list order.  The router reads the
    // pin's own index/lines, so each commit is visible to the next net —
    // no environment construction anywhere on this path.
    const route::SteinerNetRouter router(pin.env.index(), pin.env.lines());
    const route::SteinerOptions sopts;
    route::NetlistResult nr;  // this op's nets only: the reply's dump
    nr.routes.resize(pin.layout->nets().size());
    for (const std::size_t id : ids) {
      route::NetRoute r =
          router.route_net(*pin.layout, pin.layout->nets()[id], sopts);
      if (r.ok) {
        pin.env.commit_route(id, r.segments, req.wire_halo);
        ++nr.routed;
        nr.total_wirelength += r.wirelength;
      } else {
        ++nr.failed;
      }
      nr.routes[id] = r;
      pin.routes[id] = std::move(r);
    }
    resp.body = io::write_routes_string(*pin.layout, nr, ids);
    if (req.op == PinRequest::Op::kCommit) {
      meta.add("committed", pin.routes.size());
    }
    resp.meta = meta.add("routed", nr.routed)
                    .add("failed", nr.failed)
                    .add("wirelength", nr.total_wirelength)
                    .str();
    resp.status = RouteStatus::kOk;
  } catch (const std::exception& e) {
    resp.fail(RouteStatus::kError, e.what());
  }
}

std::string RoutingService::save_pin(const PinnedSession& pin,
                                     const std::string& name,
                                     std::uint64_t& bytes) {
  if (opts_.snapshot_dir.empty()) {
    return "snapshots are disabled (start with --snapshot-dir)";
  }
  if (name.empty() || name.front() == '.' ||
      name.find('/') != std::string::npos ||
      name.find('\\') != std::string::npos) {
    return "SAVE name must be a plain file name";
  }

  // Encode the compacted live view: tombstones vanish, survivors are
  // renumbered densely, and the line set / commit records follow the remap.
  PinSnapshot snap;
  snap.handle = pin.handle;
  snap.base_key = pin.base_key;
  snap.layout_text = io::write_layout_string(*pin.layout);
  const spatial::ObstacleIndex& index = pin.env.index();
  const std::vector<spatial::EscapeLine>& lines = pin.env.lines().lines();
  if (lines.size() != 4 + 4 * index.size()) {
    return "snapshot: line table out of step with the index";
  }
  snap.boundary = index.boundary();
  snap.base_obstacles = index.live_size() - pin.env.committed();
  std::vector<std::size_t> remap(index.size(), spatial::ObstacleIndex::npos);
  snap.obstacles.reserve(index.live_size());
  snap.lines.reserve(4 + 4 * index.live_size());
  for (std::size_t k = 0; k < 4; ++k) {
    spatial::EscapeLine l = lines[k];
    l.dead = false;
    snap.lines.push_back(l);
  }
  for (std::size_t i = 0; i < index.size(); ++i) {
    if (!index.alive(i)) continue;
    remap[i] = snap.obstacles.size();
    snap.obstacles.push_back(index.obstacles()[i]);
    for (std::size_t k = 0; k < 4; ++k) {
      spatial::EscapeLine l = lines[4 + 4 * i + k];
      l.source = remap[i];
      l.dead = false;
      snap.lines.push_back(l);
    }
  }
  for (const auto& [net, record] : pin.env.committed_records()) {
    std::vector<std::size_t> renumbered;
    renumbered.reserve(record.size());
    for (const std::size_t slot : record) {
      if (slot >= remap.size() || remap[slot] == spatial::ObstacleIndex::npos) {
        return "snapshot: commit record references a dead obstacle";
      }
      renumbered.push_back(remap[slot]);
    }
    snap.committed.emplace(net, std::move(renumbered));
  }
  snap.routes = pin.routes;

  const std::string blob = encode_snapshot(snap);
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path dir(opts_.snapshot_dir);
  fs::create_directories(dir, ec);  // best effort; the open below reports
  const fs::path tmp = dir / (name + ".tmp");
  const fs::path final_path = dir / name;
  // Durable atomic publish: the blob reaches the disk before the rename
  // makes it visible, and the rename itself is synced through the
  // directory — a crash leaves the old snapshot or the new one, never a
  // renamed-but-empty file (a stray .tmp fails restore's decode).
  std::string error = write_synced(tmp, blob);
  if (error.empty()) {
    fs::rename(tmp, final_path, ec);
    if (ec) error = "cannot publish snapshot file: " + ec.message();
  }
  if (error.empty()) error = sync_path(dir, O_RDONLY | O_DIRECTORY);
  if (!error.empty()) return error;
  bytes = blob.size();
  metrics_.pin_saves.fetch_add(1, std::memory_order_relaxed);
  return {};
}

void RoutingService::restore_pins(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    std::cerr << "gcr_serve: cannot read restore dir '" << dir
              << "': " << ec.message() << "\n";
    return;
  }
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string path = entry.path().string();
    try {
      std::ifstream in(entry.path(), std::ios::binary);
      if (!in) throw std::runtime_error("cannot open");
      const std::string blob((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      PinSnapshot snap = decode_snapshot(blob);

      layout::Layout lay = io::read_layout_string(snap.layout_text);
      const std::size_t n_nets = lay.nets().size();
      for (const auto& [net, record] : snap.committed) {
        if (net >= n_nets) {
          throw std::runtime_error("snapshot: commit record for unknown net");
        }
      }
      for (const auto& [net, r] : snap.routes) {
        if (net >= n_nets) {
          throw std::runtime_error("snapshot: route record for unknown net");
        }
      }

      // Rebuild *lookup tables only* from the serialized live state: the
      // ObstacleIndex ctor sorts/buckets the given rects and the line set
      // re-sorts the given lines — no tracing, no environment build (the
      // build counter stays untouched; tests assert it).
      spatial::ObstacleIndex index(snap.boundary, snap.obstacles);
      spatial::EscapeLineSet lines =
          spatial::EscapeLineSet::restore(std::move(snap.lines));
      route::SearchEnvironment env = route::SearchEnvironment::restore(
          std::move(index), std::move(lines), snap.base_obstacles,
          std::move(snap.committed));

      auto pin = std::make_shared<PinnedSession>(
          std::move(snap.handle), std::move(snap.base_key),
          std::make_shared<const layout::Layout>(std::move(lay)),
          std::move(env));
      pin->routes = std::move(snap.routes);
      if (pins_.adopt(std::move(pin))) {
        metrics_.pins_restored.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::cerr << "gcr_serve: skipping snapshot '" << path
                  << "': duplicate handle\n";
      }
    } catch (const std::exception& e) {
      // Invalid-on-partial-read: the pin was never registered, so a corrupt
      // file leaves the session absent rather than half-restored.
      std::cerr << "gcr_serve: skipping snapshot '" << path
                << "': " << e.what() << "\n";
    }
  }
}

void RoutingService::run_stage(Job& job, const RouteRequest& req,
                               const LayoutSession& session,
                               Response& resp) {
  const pipeline::StageOptions& sopts = *req.stage;
  try {
    // The stage consumes the committed routes.  A fresh session has none:
    // run the default full sequential pass once and commit it, so `LOAD;
    // DETAIL` works without an explicit ROUTE — and later stages (and
    // ROUTEs) share that exact snapshot.
    std::shared_ptr<const pipeline::CommittedRoutes> state =
        session.routes.get();
    if (state == nullptr) {
      const route::NetlistRouter router(session.layout, session.env);
      // The implicit route honors the stage request's deadline and cancel
      // token (checked between nets) — on a large GEN'd session it can
      // dwarf the stage itself.  A stopped route is never committed: the
      // next request starts from a clean no-routes slot.
      route::NetlistOptions ropts;
      ropts.deadline = job.deadline;
      ropts.cancel = req.cancel;
      route::NetlistResult routed = router.route_all(ropts);
      if (routed.cancelled) {
        stop(job, resp);
        metrics_.stages_failed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      state = session.routes.set(std::move(routed));
    }
    // Committed routes (possibly just materialized above) are this verb's
    // "environment": everything after this stamp is the stage itself.
    job.trace.env_us = job.elapsed_us();

    const std::string key = pipeline::StageCache::key_for(
        session.key, state->fingerprint, sopts.fingerprint());
    std::shared_ptr<const pipeline::StageResult> result =
        stage_cache_.find(key);
    const bool cached = result != nullptr;
    if (!cached) {
      const pipeline::StageContext ctx{session.layout, session.env,
                                       state->result, req.cancel,
                                       job.deadline};
      pipeline::StageOutcome out = pipeline::run_stage(ctx, sopts);
      if (out.result == nullptr) {  // stopped inside the engine
        stop(job, resp);
        metrics_.stages_failed.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      stage_cache_.insert(key, out.result);
      result = std::move(out.result);
    }
    job.trace.subs.push_back(
        {cached ? "stage_cache_hit" : "stage_run", job.elapsed_us()});
    job.trace.exec_us = job.elapsed_us();
    resp.meta = MetaBuilder()
                    .add("stage", pipeline::to_string(result->kind))
                    .add("cached", cached ? 1 : 0)
                    .raw(result->meta)
                    .str();
    resp.body = result->body;
    resp.status = RouteStatus::kOk;
    metrics_.requests_ok.fetch_add(1, std::memory_order_relaxed);
    metrics_.stages_ok.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    resp.fail(RouteStatus::kError, e.what());
    metrics_.requests_errored.fetch_add(1, std::memory_order_relaxed);
    metrics_.stages_failed.fetch_add(1, std::memory_order_relaxed);
  }
}

void RoutingService::record_completion(Job& job, RouteStatus status) {
  // One clock read closes the chain: the rendered span deltas sum to
  // total_us exactly.
  const std::uint64_t total = job.elapsed_us();
  RequestTrace& trace = job.trace;
  // Early-out paths (cancel/expiry at dequeue, admission-stage errors) skip
  // some stamps; clamp forward so the chain stays monotone with zero-width
  // spans for the phases that never ran.
  if (trace.dequeue_us < trace.enqueue_us) trace.dequeue_us = trace.enqueue_us;
  if (trace.env_us < trace.dequeue_us) trace.env_us = trace.dequeue_us;
  if (trace.exec_us < trace.env_us) trace.exec_us = trace.env_us;
  trace.total_us = total;
  metrics_.verb_latency[static_cast<std::size_t>(job.verb)].record(total);
  SlowRecord rec;
  rec.id = job.id;
  rec.verb = job.verb;
  rec.session = job.shard;
  rec.status = to_string(status);
  rec.trace = trace;
  slow_ring_.offer(std::move(rec));
}

MetricsSnapshot RoutingService::snapshot() const {
  MetricsSnapshot s;
  load_counters<ServiceCounters<std::uint64_t>>(s, metrics_);
  s.pins_active = pins_.size();
  s.stage_cache_hits = stage_cache_.hits();
  s.stage_cache_misses = stage_cache_.misses();
  s.stage_cache_evictions = stage_cache_.evictions();
  s.stage_cache_size = stage_cache_.size();
  // One bucket snapshot per histogram serves every quantile query.
  s.queue_wait_p50_us = metrics_.queue_wait.snapshot().percentile(50);
  for (std::size_t i = 0; i < kVerbKinds; ++i) {
    const Histogram::Snapshot vs = metrics_.verb_latency[i].snapshot();
    s.verbs[i].count = vs.count;
    s.verbs[i].p50_us = vs.percentile(50);
    s.verbs[i].p95_us = vs.percentile(95);
    s.verbs[i].p99_us = vs.percentile(99);
  }
  s.uptime_s = uptime_s();
  s.protocol_version = kProtocolVersion;
  s.queue_depth = queue_.size();
  s.queue_capacity = queue_.capacity();
  s.queue_shards = queue_.shards();
  s.queue_fair_rounds = queue_.fair_rounds();
  s.queue_oldest_wait_us = queue_.oldest_wait_us();
  s.queue_shard_stats = queue_.shard_stats();
  s.workers = workers_.size();
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  s.cache_size = cache_.size();
  return s;
}

std::string RoutingService::stats_text() const {
  std::string text = snapshot().to_text();
  std::function<std::string()> extra;
  {
    const std::lock_guard<std::mutex> lock(extra_stats_mu_);
    extra = extra_stats_;
  }
  if (extra) text += extra();
  return text;
}

void RoutingService::set_extra_stats(std::function<std::string()> extra) {
  const std::lock_guard<std::mutex> lock(extra_stats_mu_);
  extra_stats_ = std::move(extra);
}

std::uint64_t RoutingService::uptime_s() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

}  // namespace gcr::serve
