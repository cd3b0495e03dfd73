#include "serve/dispatch.hpp"

#include <condition_variable>
#include <exception>
#include <istream>
#include <mutex>
#include <ostream>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"

namespace gcr::serve {

namespace {

using Owner = std::shared_ptr<std::atomic<bool>>;

DispatchResult answer(std::string frame) {
  return {DispatchResult::Kind::kInline, std::move(frame)};
}

DispatchResult queued(bool barrier = false) {
  DispatchResult r;
  r.kind = DispatchResult::Kind::kQueued;
  r.barrier = barrier;
  return r;
}

/// Queues a route-family request.  \p format runs on the worker: route
/// dumps and stage bodies (possibly a multi-MB SVG) are the expensive part
/// of a response and must stay off the front-end thread.
DispatchResult submit_route(RoutingService& service, RouteRequest req,
                            const Owner& owner,
                            std::chrono::steady_clock::time_point received,
                            Reply reply,
                            std::string (*format)(const RouteResponse&)) {
  req.received = received;
  req.cancel = owner;
  service.submit(std::move(req),
                 [reply = std::move(reply), format](RouteResponse resp) {
                   reply(format(resp), true);
                 });
  return queued();
}

/// Queues a pin-family request.  The connection's token is the pin owner:
/// pointer identity gates every later mutation, and the transport's
/// release_pins call frees the pins when the connection ends.
void submit_pin(RoutingService& service, PinRequest req, const Owner& owner,
                Reply reply) {
  const PinRequest::Op op = req.op;
  req.owner = owner;
  service.submit_pin(std::move(req),
                     [reply = std::move(reply), op](PinResponse resp) {
                       reply(format_pin_response(resp, op), true);
                     });
}

}  // namespace

DispatchResult dispatch(RoutingService& service, net::FrameParser::Event& ev,
                        const Owner& owner,
                        std::chrono::steady_clock::time_point received,
                        Reply reply) {
  using EventKind = net::FrameParser::EventKind;
  if (ev.kind != EventKind::kCommand) {
    return {ev.kind == EventKind::kFatal ? DispatchResult::Kind::kQuit
                                         : DispatchResult::Kind::kInline,
            format_err(ev.error)};
  }
  const ClassifiedCommand cmd = classify_command(ev.line);
  // Only the parsers throw: every admission outcome, failures included,
  // comes back through the submit callbacks.
  try {
    switch (cmd.kind) {
      case CommandKind::kQuit:
        return {DispatchResult::Kind::kQuit, format_ok("bye", "")};
      case CommandKind::kStats:
        return answer(exec_stats(service));
      case CommandKind::kHello:
        return answer(format_hello(service.uptime_s()));
      case CommandKind::kTrace:
        // A bounded copy of the slow ring (<= 256 small records).
        return answer(exec_trace(service, parse_trace_count(cmd.args)));
      case CommandKind::kLoad: {
        // Resident content answers inline: the probe costs one content hash,
        // orders of magnitude below the parse + environment build.  Cold
        // LOADs build on a worker with the already-computed key, so the body
        // is hashed exactly once and a cold-session storm cannot stall the
        // front-end thread.
        LoadRequest req;
        if (const auto cached =
                service.sessions().find_content(ev.body, &req.key)) {
          return answer(format_load_ok(*cached, true));
        }
        req.text = std::move(ev.body);
        req.cancel = owner;
        service.submit_load(std::move(req),
                            [reply = std::move(reply)](LoadResponse resp) {
                              reply(format_load_response(resp), true);
                            });
        return queued(/*barrier=*/true);
      }
      case CommandKind::kGen: {
        // Synthesis is deterministic but not cheap (the parse caps admit
        // cells=4096 with nets=65536), so it runs on a worker, which then
        // feeds the text through LOAD's content probe and session build.
        const GenCommand gen = parse_gen_command(cmd.args);
        LoadRequest req;
        req.synth = [gen] { return generate_workload_text(gen); };
        req.cancel = owner;
        service.submit_load(
            std::move(req),
            [kind = gen.kind, reply = std::move(reply)](LoadResponse resp) {
              reply(resp.ok ? format_gen_ok(*resp.session, resp.cache_hit,
                                            kind)
                            : format_err(resp.error),
                    true);
            });
        return queued(/*barrier=*/true);
      }
      case CommandKind::kRoute:
      case CommandKind::kReroute: {
        const RouteCommand rc = cmd.kind == CommandKind::kRoute
                                    ? parse_route_command(cmd.args)
                                    : parse_reroute_command(cmd.args);
        // REROUTE against a pin handle rips up the pin's own committed
        // remainder (owner-gated, serialized on the pin's ticket chain)
        // instead of the shared stateless path.
        if (cmd.kind == CommandKind::kReroute &&
            service.pins().find(rc.session_key) != nullptr) {
          PinRequest preq;
          preq.op = PinRequest::Op::kReroute;
          preq.key = rc.session_key;
          preq.nets = rc.nets;
          preq.wire_halo = rc.opts.wire_halo;
          submit_pin(service, std::move(preq), owner, std::move(reply));
          return queued();
        }
        return submit_route(service, to_request(rc), owner, received,
                            std::move(reply), format_route_response);
      }
      case CommandKind::kOptimize: {
        RouteRequest req = to_request(parse_optimize_command(cmd.args));
        // Each completed pass streams as a progress line under this
        // command's reply, ahead of the final frame.
        req.progress = [reply](const route::OptimizePassStats& stats) {
          reply(format_pass_progress(stats), false);
        };
        return submit_route(service, std::move(req), owner, received,
                            std::move(reply), format_optimize_response);
      }
      case CommandKind::kDetail:
      case CommandKind::kCongest:
      case CommandKind::kVerify:
      case CommandKind::kSvg: {
        const pipeline::StageKind stage =
            cmd.kind == CommandKind::kDetail    ? pipeline::StageKind::kDetail
            : cmd.kind == CommandKind::kCongest ? pipeline::StageKind::kCongest
            : cmd.kind == CommandKind::kVerify  ? pipeline::StageKind::kVerify
                                                : pipeline::StageKind::kSvg;
        return submit_route(service,
                            to_request(parse_stage_command(stage, cmd.args)),
                            owner, received, std::move(reply),
                            format_stage_response);
      }
      case CommandKind::kPin:
      case CommandKind::kUnpin:
      case CommandKind::kCommit:
      case CommandKind::kUncommit:
      case CommandKind::kSave:
        submit_pin(service, parse_pin_command(cmd.kind, cmd.args), owner,
                   std::move(reply));
        // PIN is an ordering barrier like LOAD and GEN: a pipelined
        // `COMMIT <handle>` needs the derived pin registered at admission.
        return queued(/*barrier=*/cmd.kind == CommandKind::kPin);
      case CommandKind::kBlank:  // FrameParser never emits blank lines
      case CommandKind::kUnknown:
        break;
    }
  } catch (const std::exception& e) {
    return answer(format_err(e.what()));
  }
  return answer(format_err("unknown command '" + cmd.keyword + "'"));
}

std::size_t serve_connection(RoutingService& service, std::istream& in,
                             std::ostream& out) {
  // This connection's identity: gates pin ownership and is what the
  // disconnect auto-release below keys on.  (Nothing cancels a blocking
  // connection mid-request, so the flag itself is never set here.)
  const auto owner = std::make_shared<std::atomic<bool>>(false);
  const auto emit = [&out](const std::string& frame) {
    out << frame;
    out.flush();
  };
  // One command is answered at a time: a queued command's frames arrive on
  // a worker (or inline, for fail-fast admission) while this thread waits
  // for the final one and writes nothing, so the writes never overlap.
  // The notify runs under the lock, so this frame cannot return and
  // destroy `cv` before the worker is done with it.
  std::mutex mu;
  std::condition_variable cv;
  std::size_t answered = 0;  ///< final frames delivered, guarded by mu
  std::size_t queued = 0;    ///< commands queued (this thread only)
  const Reply reply = [&](std::string frame, bool final) {
    emit(frame);
    if (!final) return;
    const std::lock_guard<std::mutex> lock(mu);
    ++answered;
    cv.notify_one();
  };

  net::FrameParser parser;
  std::vector<net::FrameParser::Event> events;
  char buf[64 * 1024];
  std::size_t frames = 0;
  for (bool open = true; open;) {
    // Frame whatever the stream holds: peek() blocks for the next byte,
    // readsome() then takes the rest of what is already buffered.
    events.clear();
    if (in.peek() == std::istream::traits_type::eof()) {
      parser.finish_eof(events);  // trailing LF-less line, truncated LOAD
      open = false;
    } else {
      std::streamsize n = in.readsome(buf, sizeof buf);
      if (n == 0) {  // a streambuf that cannot report its buffered bytes
        buf[0] = static_cast<char>(in.get());
        n = 1;
      }
      parser.feed(buf, static_cast<std::size_t>(n), events);
    }
    for (net::FrameParser::Event& ev : events) {
      ++frames;
      const DispatchResult r = dispatch(
          service, ev, owner, std::chrono::steady_clock::now(), reply);
      if (r.kind == DispatchResult::Kind::kQueued) {
        ++queued;
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return answered == queued; });
        continue;
      }
      emit(r.frame);
      if (r.kind == DispatchResult::Kind::kQuit) {
        open = false;
        break;
      }
    }
  }
  service.release_pins(owner);
  return frames;
}

}  // namespace gcr::serve
