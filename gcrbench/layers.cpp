// Per-layer replay (--trace 1).
//
// Replays the workload's seeded engine work in-process and times the public
// entry point of each layer from outside: nothing inside src/ is traced.
// Deterministic work counters come out of two traced replays that must agree
// exactly; an untraced replay of the same calls prices the tracing itself.

#include <algorithm>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "core/gridless_router.hpp"
#include "core/netlist_router.hpp"
#include "core/search_environment.hpp"
#include "core/steiner.hpp"
#include "net/frame_parser.hpp"
#include "serve/protocol.hpp"
#include "serve/routing_service.hpp"

namespace gcrbench {

using namespace gcr;

namespace {

/// Deterministic work counters: identical on every replay of one seed.
struct Counters {
  std::uint64_t rays = 0;
  std::uint64_t crossings = 0;
  std::uint64_t escape_lines = 0;
  std::uint64_t connections = 0;
  std::uint64_t expanded = 0;
  std::uint64_t generated = 0;
  std::uint64_t reopened = 0;
  std::uint64_t max_open = 0;
  std::uint64_t search_allocs = 0;
  std::uint64_t steiner_nets = 0;
  std::uint64_t steiner_allocs = 0;
  std::uint64_t routed_ind = 0, failed_ind = 0;
  std::uint64_t routed_seq = 0, failed_seq = 0;
  std::int64_t wl_ind = 0, wl_seq = 0;
  std::uint64_t commits = 0, removes = 0;

  friend bool operator==(const Counters&, const Counters&) = default;
};

/// Wall-clock totals of one traced replay.
struct Timings {
  double trace_ns = 0, crossings_ns = 0;
  double build_us = 0, copy_us = 0, commit_us = 0, remove_us = 0;
  std::uint64_t builds = 0, copies = 0;
  double search_ns = 0;
  double steiner_us = 0;
  double route_all_ms = 0;
  std::uint64_t route_alls = 0;
  double straggler = 0;
  std::uint64_t straggler_layouts = 0;
};

/// A clock read that only happens in the traced replay.
class Span {
 public:
  explicit Span(bool on) : on_(on), t0_(on ? Clock::now() : Clock::time_point{}) {}
  [[nodiscard]] double us() const {
    return on_ ? micros_between(t0_, Clock::now()) : 0.0;
  }

 private:
  bool on_;
  Clock::time_point t0_;
};

constexpr int kEnvRepeats = 3;
constexpr int kRayRepeats = 5;

void replay_layout(const layout::Layout& lay, unsigned threads, bool traced,
                   Counters& c, Timings& t) {
  // env: build and copy.
  std::optional<route::SearchEnvironment> env;
  for (int k = 0; k < kEnvRepeats; ++k) {
    const Span s(traced);
    env.emplace(lay);
    t.build_us += s.us();
    ++t.builds;
  }
  for (int k = 0; k < kEnvRepeats; ++k) {
    const Span s(traced);
    const route::SearchEnvironment copy = *env;
    t.copy_us += s.us();
    ++t.copies;
  }
  const spatial::ObstacleIndex& index = env->index();
  const spatial::EscapeLineSet& lines = env->lines();
  c.escape_lines += lines.live_lines();

  // netlist: the served route_all, per mode.
  const route::NetlistRouter nl(lay, *env);
  route::NetlistOptions ind;
  ind.threads = threads;
  route::NetlistResult ires;
  {
    const Span s(traced);
    ires = nl.route_all(ind);
    t.route_all_ms += s.us() / 1000.0;
    ++t.route_alls;
  }
  c.routed_ind += ires.routed;
  c.failed_ind += ires.failed;
  c.wl_ind += ires.total_wirelength;
  route::NetlistOptions seq;
  seq.mode = route::NetlistMode::kSequential;
  const route::NetlistResult sres = nl.route_all(seq);
  c.routed_seq += sres.routed;
  c.failed_seq += sres.failed;
  c.wl_seq += sres.total_wirelength;

  // steiner: one route_net per net; the slowest net against the mean is
  // the batch router's straggler exposure.
  const route::SteinerNetRouter steiner(index, lines);
  std::vector<double> per_net;
  for (const layout::Net& net : lay.nets()) {
    const std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
    const Span s(traced);
    const route::NetRoute r = steiner.route_net(lay, net);
    const double us = s.us();
    c.steiner_allocs += g_heap_allocs.load(std::memory_order_relaxed) - a0;
    ++c.steiner_nets;
    per_net.push_back(us);
    t.steiner_us += us;
    (void)r;
  }
  if (traced && !per_net.empty() && mean(per_net) > 0) {
    t.straggler += *std::max_element(per_net.begin(), per_net.end()) /
                   mean(per_net);
    ++t.straggler_layouts;
  }

  // search: the two-terminal connection of every net (first pin of its
  // first two terminals).
  const route::GridlessRouter router(index, lines);
  for (const layout::Net& net : lay.nets()) {
    const auto pins = route::net_terminal_pins(lay, net);
    if (pins.size() < 2 || pins[0].empty() || pins[1].empty()) continue;
    const std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
    const Span s(traced);
    const route::Route r = router.route(pins[0][0], pins[1][0]);
    t.search_ns += s.us() * 1000.0;
    c.search_allocs += g_heap_allocs.load(std::memory_order_relaxed) - a0;
    ++c.connections;
    c.expanded += r.stats.nodes_expanded;
    c.generated += r.stats.nodes_generated;
    c.reopened += r.stats.nodes_reopened;
    c.max_open = std::max<std::uint64_t>(c.max_open, r.stats.max_open_size);
  }

  // spatial: rays from every pin and every route bend, in all four
  // directions.  The calls are tens of ns, so each batch is timed whole.
  std::vector<geom::Point> origins;
  for (const layout::Net& net : lay.nets()) {
    for (const auto& term : route::net_terminal_pins(lay, net)) {
      origins.insert(origins.end(), term.begin(), term.end());
    }
  }
  for (const route::NetRoute& nr : ires.routes) {
    for (const geom::Segment& sg : nr.segments) origins.push_back(sg.a);
  }
  std::vector<spatial::RayHit> hits(origins.size() * 4);
  for (int rep = 0; rep < kRayRepeats; ++rep) {
    {
      const Span s(traced);
      for (std::size_t i = 0; i < origins.size(); ++i) {
        for (int d = 0; d < 4; ++d) {
          hits[i * 4 + static_cast<std::size_t>(d)] =
              index.trace(origins[i], geom::kAllDirs[d]);
        }
      }
      t.trace_ns += s.us() * 1000.0;
    }
    std::uint64_t xs = 0;
    {
      const Span s(traced);
      for (std::size_t i = 0; i < origins.size(); ++i) {
        for (int d = 0; d < 4; ++d) {
          xs += lines
                    .crossings(origins[i], geom::kAllDirs[d],
                               hits[i * 4 + static_cast<std::size_t>(d)].stop)
                    .size();
        }
      }
      t.crossings_ns += s.us() * 1000.0;
    }
    if (rep == 0) {
      c.rays += hits.size();
      c.crossings += xs;
    }
  }

  // env: incremental commit of every routed net's halos, then rip-up.
  route::SearchEnvironment work = *env;
  for (std::size_t id = 0; id < ires.routes.size(); ++id) {
    if (!ires.routes[id].ok) continue;
    const Span s(traced);
    work.commit_route(id, ires.routes[id].segments, 1);
    t.commit_us += s.us();
    ++c.commits;
  }
  for (std::size_t id = 0; id < ires.routes.size(); ++id) {
    if (!ires.routes[id].ok) continue;
    const Span s(traced);
    work.remove_route(id);
    t.remove_us += s.us();
    ++c.removes;
  }
}

/// The replay covers the first layouts of the workload: enough engine work
/// for stable per-call figures, bounded so a traced run stays short.
constexpr std::size_t kReplayLayouts = 8;

void replay(const Workload& w, bool traced, Counters& c, Timings& t) {
  const std::size_t n = std::min(w.layouts.size(), kReplayLayouts);
  for (std::size_t i = 0; i < n; ++i) {
    replay_layout(w.layouts[i].lay, w.route_threads, traced, c, t);
  }
}

/// Every request line of the workload, framed as the client sends it.
std::string command_stream(const Workload& w) {
  std::string bytes;
  for (const auto& stream : w.streams) {
    for (const Request& q : stream) {
      bytes += command_line(q, {"pin-0000000000000001", "pin-0000000000000002"});
      bytes += '\n';
      bytes += q.body;
    }
  }
  return bytes;
}

/// The stage a stage verb selects; nullopt for every other verb.
std::optional<pipeline::StageKind> stage_of(serve::CommandKind k) {
  switch (k) {
    case serve::CommandKind::kDetail: return pipeline::StageKind::kDetail;
    case serve::CommandKind::kCongest: return pipeline::StageKind::kCongest;
    case serve::CommandKind::kVerify: return pipeline::StageKind::kVerify;
    default: return std::nullopt;
  }
}

/// Front-end parse of one command through the shared verb table — what
/// both front-ends do before admission.
void parse_command(const std::string& line) {
  const serve::ClassifiedCommand cmd = serve::classify_command(line);
  if (const auto stage = stage_of(cmd.kind)) {
    (void)serve::parse_stage_command(*stage, cmd.args);
    return;
  }
  switch (cmd.kind) {
    case serve::CommandKind::kRoute:
      (void)serve::parse_route_command(cmd.args);
      break;
    case serve::CommandKind::kReroute:
      (void)serve::parse_reroute_command(cmd.args);
      break;
    case serve::CommandKind::kCommit:
    case serve::CommandKind::kUncommit:
      (void)serve::parse_pin_command(cmd.kind, cmd.args);
      break;
    case serve::CommandKind::kLoad:
      (void)serve::parse_load_count(line);
      break;
    default:
      break;
  }
}

/// net layer: FrameParser::feed + command parse over the command stream.
double parse_ns_per_cmd(const std::string& bytes) {
  constexpr int kPasses = 20;
  std::size_t commands = 0;
  std::vector<net::FrameParser::Event> events;
  const auto t0 = Clock::now();
  for (int p = 0; p < kPasses; ++p) {
    net::FrameParser parser;
    constexpr std::size_t kChunk = 4096;  // a socket read's worth
    for (std::size_t off = 0; off < bytes.size(); off += kChunk) {
      events.clear();
      parser.feed(bytes.data() + off, std::min(kChunk, bytes.size() - off),
                  events);
      for (const auto& ev : events) {
        parse_command(ev.line);
        ++commands;
      }
    }
  }
  const double ns = micros_between(t0, Clock::now()) * 1000.0;
  return commands == 0 ? 0 : ns / static_cast<double>(commands);
}

/// serve layer: the workload's request stream submitted in-process, one
/// closed-loop submitter per connection, each timed submit -> callback.
struct ServeSpans {
  std::vector<double> queue_us, env_us, exec_us;
  std::size_t failed = 0;  ///< replies that were not OK
  std::string stats;
};

ServeSpans replay_service(const Workload& w) {
  constexpr double kBudgetS = 2.0;
  serve::RoutingService::Options opts;  // the daemon's fixed config
  opts.workers = kDaemonWorkers;
  opts.cache_capacity = kDaemonCache;
  opts.queue_capacity = kDaemonQueue;
  serve::RoutingService service(opts);
  for (const LayoutCase& l : w.layouts) (void)service.load(l.text);

  std::vector<ServeSpans> per(w.streams.size());
  std::vector<std::thread> threads;
  for (std::size_t ci = 0; ci < w.streams.size(); ++ci) {
    threads.emplace_back([&, ci] {
      ServeSpans& out = per[ci];
      const auto owner = std::make_shared<std::atomic<bool>>(false);
      std::vector<std::string> pins;
      for (const std::string& key : w.pins[ci]) {
        serve::PinRequest p;
        p.op = serve::PinRequest::Op::kPin;
        p.key = key;
        p.owner = owner;
        pins.push_back(service.pin_op(std::move(p)).handle);
      }
      const auto t0 = Clock::now();
      for (const Request& q : w.streams[ci]) {
        if (seconds_since(t0) > kBudgetS) break;
        const serve::ClassifiedCommand cmd =
            serve::classify_command(command_line(q, pins));
        const auto record_pin = [&](serve::PinRequest req) {
          req.owner = owner;
          const serve::PinResponse r = service.pin_op(std::move(req));
          if (!r.ok()) ++out.failed;
          out.queue_us.push_back(static_cast<double>(r.queue_wait.count()));
          out.exec_us.push_back(
              static_cast<double>((r.latency - r.queue_wait).count()));
        };
        switch (cmd.kind) {
          case serve::CommandKind::kLoad:
            (void)service.load(q.body);
            break;
          case serve::CommandKind::kCommit:
          case serve::CommandKind::kUncommit:
            record_pin(serve::parse_pin_command(cmd.kind, cmd.args));
            break;
          case serve::CommandKind::kReroute: {
            const serve::RouteCommand rc =
                serve::parse_reroute_command(cmd.args);
            serve::PinRequest req;
            req.op = serve::PinRequest::Op::kReroute;
            req.key = rc.session_key;
            req.nets = rc.nets;
            record_pin(std::move(req));
            break;
          }
          case serve::CommandKind::kRoute:
          case serve::CommandKind::kDetail:
          case serve::CommandKind::kCongest:
          case serve::CommandKind::kVerify: {
            const auto stage = stage_of(cmd.kind);
            const serve::RouteCommand rc =
                stage ? serve::parse_stage_command(*stage, cmd.args)
                      : serve::parse_route_command(cmd.args);
            std::promise<serve::RouteResponse> done;
            auto fut = done.get_future();
            service.submit(serve::to_request(rc),
                           [&done](serve::RouteResponse r) {
                             done.set_value(std::move(r));
                           });
            const serve::RouteResponse r = fut.get();
            if (!r.ok()) ++out.failed;
            const serve::RequestTrace& tr = r.trace;
            out.queue_us.push_back(
                static_cast<double>(tr.dequeue_us - tr.enqueue_us));
            out.env_us.push_back(static_cast<double>(tr.env_us - tr.dequeue_us));
            out.exec_us.push_back(static_cast<double>(tr.exec_us - tr.env_us));
            break;
          }
          default:
            break;  // HELLO / STATS answer inline on the front-end
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ServeSpans all;
  for (const ServeSpans& p : per) {
    all.queue_us.insert(all.queue_us.end(), p.queue_us.begin(),
                        p.queue_us.end());
    all.env_us.insert(all.env_us.end(), p.env_us.begin(), p.env_us.end());
    all.exec_us.insert(all.exec_us.end(), p.exec_us.begin(), p.exec_us.end());
    all.failed += p.failed;
  }
  all.stats = service.stats_text();
  return all;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

double stats_value(const std::string& stats, const std::string& key) {
  std::istringstream is(stats);
  std::string k;
  double v = 0;
  while (is >> k >> v) {
    if (k == key) return v;
  }
  return -1;
}

bool run_layers(const Workload& w, const RunResult& e2e,
                std::vector<Metric>& out, std::string& why) {
  // Traced, untraced, traced: the untraced replay sits between the two
  // traced ones so cache warmth and drift bias neither side.
  Counters c1, c2, cu;
  Timings t1, t2, tu;
  const auto r0 = Clock::now();
  replay(w, true, c1, t1);
  const double traced1_s = seconds_since(r0);
  const auto u0 = Clock::now();
  replay(w, false, cu, tu);
  const double untraced_s = seconds_since(u0);
  const auto r1 = Clock::now();
  replay(w, true, c2, t2);
  const double traced_s = (traced1_s + seconds_since(r1)) / 2.0;
  bool same = c1 == c2 && c1 == cu;
  if (!same) why = "deterministic layer counters differ between replays";

  const ServeSpans sv = replay_service(w);
  if (sv.failed > 0) {
    same = false;
    why = "in-process serve replay: " + std::to_string(sv.failed) +
          " replies were not OK";
  }
  const std::string bytes = command_stream(w);
  const double parse_ns = parse_ns_per_cmd(bytes);

  const auto add = [&out](const char* name, double v, const char* unit) {
    out.push_back({name, v, unit});
  };
  const double rays = static_cast<double>(c1.rays) * kRayRepeats;
  add("spatial.trace_ns", ratio(t1.trace_ns, rays), "ns");
  add("spatial.crossings_ns", ratio(t1.crossings_ns, rays), "ns");
  add("spatial.crossings_per_call",
      ratio(static_cast<double>(c1.crossings), static_cast<double>(c1.rays)),
      "count");
  add("spatial.escape_lines", static_cast<double>(c1.escape_lines), "count");
  add("env.build_us", ratio(t1.build_us, static_cast<double>(t1.builds)),
      "us");
  add("env.copy_us", ratio(t1.copy_us, static_cast<double>(t1.copies)), "us");
  add("env.commit_us", ratio(t1.commit_us, static_cast<double>(c1.commits)),
      "us");
  add("env.remove_us", ratio(t1.remove_us, static_cast<double>(c1.removes)),
      "us");
  const double conns = static_cast<double>(c1.connections);
  add("search.expanded", static_cast<double>(c1.expanded), "count");
  add("search.generated", static_cast<double>(c1.generated), "count");
  add("search.reopened", static_cast<double>(c1.reopened), "count");
  add("search.max_open", static_cast<double>(c1.max_open), "count");
  add("search.gen_per_exp",
      ratio(static_cast<double>(c1.generated),
            static_cast<double>(c1.expanded)),
      "ratio");
  add("search.ns_per_generated",
      ratio(t1.search_ns, static_cast<double>(c1.generated)), "ns");
  add("search.allocs_per_conn",
      ratio(static_cast<double>(c1.search_allocs), conns), "count");
  const double nets = static_cast<double>(c1.steiner_nets);
  add("steiner.us_per_net", ratio(t1.steiner_us, nets), "us");
  add("steiner.allocs_per_net",
      ratio(static_cast<double>(c1.steiner_allocs), nets), "count");
  add("netlist.route_all_ms",
      ratio(t1.route_all_ms, static_cast<double>(t1.route_alls)), "ms");
  add("netlist.routed.independent", static_cast<double>(c1.routed_ind),
      "count");
  add("netlist.failed.independent", static_cast<double>(c1.failed_ind),
      "count");
  add("netlist.routed.sequential", static_cast<double>(c1.routed_seq),
      "count");
  add("netlist.failed.sequential", static_cast<double>(c1.failed_seq),
      "count");
  add("netlist.wirelength.independent", static_cast<double>(c1.wl_ind),
      "dbu");
  add("netlist.straggler_ratio",
      ratio(t1.straggler, static_cast<double>(t1.straggler_layouts)), "ratio");
  add("serve.queue_wait_us", mean(sv.queue_us), "us");
  add("serve.env_us", mean(sv.env_us), "us");
  add("serve.exec_us", mean(sv.exec_us), "us");
  const auto hit_ratio = [&sv](const char* hits, const char* misses) {
    const double h = stats_value(sv.stats, hits);
    const double m = stats_value(sv.stats, misses);
    return ratio(h, h + m);
  };
  add("serve.session_cache_hit_ratio", hit_ratio("cache_hits", "cache_misses"),
      "ratio");
  add("serve.stage_cache_hit_ratio",
      hit_ratio("stage_cache_hits", "stage_cache_misses"), "ratio");
  add("net.parse_ns_per_cmd", parse_ns, "ns");
  add("net.loop_lag_p50_us", stats_value(e2e.stats, "loop_lag_p50_us"), "us");
  add("net.bytes_per_req",
      ratio(stats_value(e2e.stats, "loop_bytes_in") +
                stats_value(e2e.stats, "loop_bytes_out"),
            stats_value(e2e.stats, "loop_commands")),
      "bytes");
  add("wire.overhead_us", percentile(e2e.wire_us, 50), "us");
  add("bench.late_ms", percentile(e2e.late_us, 99) / 1000.0, "ms");
  add("bench.calib_ms", percentile(e2e.calib_ms, 25), "ms");
  add("bench.trace_overhead_pct", 100.0 * (traced_s - untraced_s) / untraced_s,
      "%");
  return same;
}

}  // namespace gcrbench
