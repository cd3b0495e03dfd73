#include "serve/dispatch.hpp"

#include <condition_variable>
#include <exception>
#include <istream>
#include <mutex>
#include <ostream>
#include <utility>
#include <variant>
#include <vector>

#include "serve/protocol.hpp"

namespace gcr::serve {

namespace {

using Owner = std::shared_ptr<std::atomic<bool>>;

DispatchResult answer(std::string frame) {
  return {DispatchResult::Kind::kInline, std::move(frame)};
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
  Request req;
  // LOAD, GEN and PIN are ordering barriers (see DispatchResult::barrier).
  bool barrier = false;
  // Only the parsers throw: every admission outcome, failures included,
  // comes back through the submit callback.
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
        LoadRequest load;
        if (const auto cached =
                service.sessions().find_content(ev.body, &load.key)) {
          return answer(format_ok(load_meta(*cached, true), ""));
        }
        load.text = std::move(ev.body);
        req = std::move(load);
        barrier = true;
        break;
      }
      case CommandKind::kGen: {
        // Synthesis is deterministic but not cheap (the parse caps admit
        // cells=4096 with nets=65536), so it runs on a worker, which then
        // feeds the text through LOAD's content probe and session build.
        const GenCommand gen = parse_gen_command(cmd.args);
        LoadRequest load;
        load.synth = [gen] { return generate_workload_text(gen); };
        load.gen = to_string(gen.kind);
        req = std::move(load);
        barrier = true;
        break;
      }
      case CommandKind::kRoute:
      case CommandKind::kReroute: {
        RouteRequest rc = cmd.kind == CommandKind::kRoute
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
          req = std::move(preq);
        } else {
          req = std::move(rc);
        }
        break;
      }
      case CommandKind::kOptimize: {
        RouteRequest opt = parse_optimize_command(cmd.args);
        // Each completed pass streams as a progress line under this
        // command's reply, ahead of the final frame.
        opt.progress = [reply](const route::OptimizePassStats& stats) {
          reply(format_pass_progress(stats), false);
        };
        req = std::move(opt);
        break;
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
        req = parse_stage_command(stage, cmd.args);
        break;
      }
      case CommandKind::kPin:
      case CommandKind::kUnpin:
      case CommandKind::kCommit:
      case CommandKind::kUncommit:
      case CommandKind::kSave:
        req = parse_pin_command(cmd.kind, cmd.args);
        barrier = cmd.kind == CommandKind::kPin;
        break;
      case CommandKind::kBlank:  // FrameParser never emits blank lines
      case CommandKind::kUnknown:
        return answer(format_err("unknown command '" + cmd.keyword + "'"));
    }
  } catch (const std::exception& e) {
    return answer(format_err(e.what()));
  }
  // The connection's token cancels its route and LOAD/GEN jobs and owns
  // its pins: pointer identity gates every later mutation, and the
  // transport's release_pins call frees the pins when the connection ends.
  if (auto* route = std::get_if<RouteRequest>(&req)) {
    route->received = received;
    route->cancel = owner;
  } else if (auto* load = std::get_if<LoadRequest>(&req)) {
    load->cancel = owner;
  } else {
    std::get<PinRequest>(req).owner = owner;
  }
  // The callback renders on the worker: route dumps and stage bodies
  // (possibly a multi-MB SVG) must stay off the front-end thread.
  service.submit(std::move(req), [reply = std::move(reply)](Response resp) {
    reply(format_response(resp), true);
  });
  return {DispatchResult::Kind::kQueued, {}, barrier};
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
