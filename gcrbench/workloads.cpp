// The three seeded workloads and their in-process references.
//
// Every request stream is drawn from --seed through workload/rng.hpp, and
// every reply the daemon may give is computed here, in-process, before any
// timed window opens.  Reference route dumps are parsed back with
// io::read_routes and checked with verify::verify_routes once; the timed
// loops then demand byte equality, so every served dump is known to parse,
// verify, and equal the reference.

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "core/netlist_router.hpp"
#include "core/search_environment.hpp"
#include "core/steiner.hpp"
#include "io/route_dump.hpp"
#include "io/text_format.hpp"
#include "pipeline/stage_runner.hpp"
#include "serve/layout_session.hpp"
#include "serve/protocol.hpp"
#include "verify/route_verifier.hpp"
#include "workload/netgen.hpp"

namespace gcrbench {

using namespace gcr;

namespace {

LayoutCase make_case(std::size_t cells, geom::Coord extent, std::size_t nets,
                     std::uint64_t seed) {
  const layout::Layout gen =
      workload::standard_workload(cells, extent, nets, seed);
  LayoutCase c;
  c.text = io::write_layout_string(gen);
  // The daemon routes the layout it parsed, so the reference does too.
  c.lay = io::read_layout_string(c.text);
  c.key = serve::SessionCache::content_key(c.text);
  return c;
}

std::vector<std::string> split_tokens(const std::string& s) {
  std::istringstream is(s);
  std::vector<std::string> out;
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

/// Parses \p body back and runs the route verifier over it; throws when the
/// in-process reference itself is not a legal routing.
void verify_dump(const layout::Layout& lay, const std::string& body) {
  const route::NetlistResult parsed = io::read_routes_string(body, lay);
  verify::VerifyOptions vopts;
  vopts.require_all_routed = false;  // failures are counted, not illegal
  const auto violations = verify::verify_routes(lay, parsed, vopts);
  if (!violations.empty()) {
    throw std::runtime_error("reference route fails verification: " +
                             std::string(verify::to_string(
                                 violations.front().kind)));
  }
}

std::shared_ptr<Expect> routing_expect(const layout::Layout& lay,
                                       const route::NetlistResult& res,
                                       const std::vector<std::size_t>& nets,
                                       bool independent) {
  auto e = std::make_shared<Expect>();
  e->body = nets.empty() ? io::write_routes_string(lay, res)
                         : io::write_routes_string(lay, res, nets);
  verify_dump(lay, e->body);
  e->routing = true;
  e->independent = independent;
  e->routed = res.routed;
  e->failed = res.failed;
  e->wirelength = res.total_wirelength;
  e->meta = {"routed=" + std::to_string(res.routed),
             "failed=" + std::to_string(res.failed),
             "wirelength=" + std::to_string(res.total_wirelength)};
  return e;
}

/// Stage replies against the session's implicit default routing (what a
/// stage verb commits on a session no full ROUTE has touched).
std::shared_ptr<const Expect> stage_expect(const LayoutCase& c,
                                           const route::SearchEnvironment& env,
                                           const route::NetlistResult& routes,
                                           pipeline::StageKind kind) {
  pipeline::StageOptions sopts;
  sopts.kind = kind;
  const pipeline::StageContext ctx{c.lay, env, routes, nullptr, {}};
  const pipeline::StageOutcome out = pipeline::run_stage(ctx, sopts);
  if (!out.result) throw std::runtime_error("reference stage did not finish");
  auto e = std::make_shared<Expect>();
  e->body = out.result->body;
  e->meta = split_tokens(out.result->meta);
  e->meta.push_back("stage=" + std::string(pipeline::to_string(kind)));
  return e;
}

/// Per-layout references shared by the read mixes.
struct LayoutRefs {
  route::NetlistResult implicit_routes;
  std::map<pipeline::StageKind, std::shared_ptr<const Expect>> stages;
  std::vector<std::shared_ptr<const Expect>> one_net;  ///< ROUTE nets=<i>
};

LayoutRefs layout_refs(const LayoutCase& c,
                       const std::vector<pipeline::StageKind>& kinds) {
  LayoutRefs r;
  const route::SearchEnvironment env(c.lay);
  const route::NetlistRouter router(c.lay, env);
  r.implicit_routes = router.route_all();
  for (const pipeline::StageKind k : kinds) {
    r.stages[k] = stage_expect(c, env, r.implicit_routes, k);
  }
  for (std::size_t i = 0; i < c.lay.nets().size(); ++i) {
    route::NetlistOptions o;
    o.subset = {i};
    r.one_net.push_back(routing_expect(c.lay, router.route_all(o), {i}, true));
  }
  return r;
}

/// Runs fn(0..n-1) on at most kMaxClients threads; rethrows the first
/// failure.  For reference building only: every seeded draw happens before.
template <typename Fn>
void parallel_for(std::size_t n, Fn fn) {
  std::vector<std::string> errors(n);
  std::vector<std::thread> threads;
  std::atomic<std::size_t> next{0};
  for (std::size_t t = 0; t < std::min(n, kMaxClients); ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          fn(i);
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
}

Request make_req(std::string verb, std::string line,
                 std::shared_ptr<const Expect> e) {
  Request q;
  q.verb = std::move(verb);
  q.line = std::move(line);
  q.expect = std::move(e);
  return q;
}

std::string stage_verb(pipeline::StageKind k) {
  switch (k) {
    case pipeline::StageKind::kDetail: return "DETAIL";
    case pipeline::StageKind::kCongest: return "CONGEST";
    case pipeline::StageKind::kVerify: return "VERIFY";
    case pipeline::StageKind::kSvg: return "SVG";
  }
  return "VERIFY";
}

Request stage_req(const LayoutCase& c, const LayoutRefs& r,
                  pipeline::StageKind k) {
  return make_req(stage_verb(k), stage_verb(k) + " " + c.key, r.stages.at(k));
}

Request one_net_req(const LayoutCase& c, const LayoutRefs& r,
                    std::size_t net) {
  return make_req("ROUTE",
                  "ROUTE " + c.key + " nets=" + c.lay.nets()[net].name(),
                  r.one_net[net]);
}

std::string net_list(const layout::Layout& lay,
                     const std::vector<std::size_t>& ids) {
  std::string s;
  for (const std::size_t id : ids) {
    if (!s.empty()) s += ',';
    s += lay.nets()[id].name();
  }
  return s;
}

// ------------------------------------------------------------- chip_batch

Workload chip_batch(std::uint64_t seed) {
  Workload w;
  w.name = "chip_batch";
  w.tail_pct = 90;
  w.round_s = 15;
  w.route_threads = 4;
  Rng rng(seed);
  // As many layouts as the daemon's session cache holds, each routed
  // equally often, so a run's mean work does not hinge on one seed's
  // hardest chip.
  constexpr std::size_t kLayouts = kDaemonCache;
  for (std::size_t i = 0; i < kLayouts; ++i) {
    w.layouts.push_back(make_case(64, 1024, 96, rng()));
  }
  std::vector<std::shared_ptr<const Expect>> refs;
  for (const LayoutCase& c : w.layouts) {
    route::NetlistOptions o;
    o.threads = w.route_threads;
    const route::NetlistResult res = route::NetlistRouter(c.lay).route_all(o);
    refs.push_back(routing_expect(c.lay, res, {}, true));
  }
  std::vector<Request> cycle;
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<std::size_t> order(kLayouts);
    for (std::size_t i = 0; i < kLayouts; ++i) order[i] = i;
    workload::portable_shuffle(order.begin(), order.end(), rng);
    for (const std::size_t l : order) {
      cycle.push_back(make_req("ROUTE",
                               "ROUTE " + w.layouts[l].key +
                                   " mode=independent threads=" +
                                   std::to_string(w.route_threads),
                               refs[l]));
    }
  }
  w.streams.push_back(std::move(cycle));
  w.pins.emplace_back();
  return w;
}

// -------------------------------------------------------- eco_interactive

Workload eco_interactive(std::uint64_t seed) {
  Workload w;
  w.name = "eco_interactive";
  w.open_loop = true;
  w.offered_rps = 6000;
  w.open_share = 0.6;
  // p95, not p99: the p99 of this mix is set by host wake-up stalls, not by
  // the code (see DESIGN.md).
  w.tail_pct = 95;
  w.round_s = 2;
  Rng rng(seed);
  // Ten layouts: fewer sessions than the daemon caches, and their 30 stage
  // results fit the stage cache (32), so every stage read is a cache hit.
  constexpr std::size_t kLayouts = 10;
  for (std::size_t i = 0; i < kLayouts; ++i) {
    const std::size_t cells = 16 + pick(rng, 10);
    const std::size_t nets = 24 + pick(rng, 17);
    w.layouts.push_back(make_case(cells, 640, nets, rng()));
  }
  const std::vector<pipeline::StageKind> kinds = {
      pipeline::StageKind::kVerify, pipeline::StageKind::kDetail,
      pipeline::StageKind::kCongest};
  std::vector<LayoutRefs> refs(kLayouts);
  parallel_for(kLayouts,
               [&](std::size_t i) { refs[i] = layout_refs(w.layouts[i], kinds); });

  auto hello = std::make_shared<Expect>();
  {
    const std::string frame = serve::format_hello(0);
    hello->body = frame.substr(frame.find('\n') + 1);
    hello->meta = {"version=" + std::to_string(serve::kProtocolVersion)};
  }
  auto stats = std::make_shared<Expect>();
  stats->kind = Expect::Kind::kStats;
  std::vector<std::shared_ptr<const Expect>> reload;
  for (const LayoutCase& c : w.layouts) {
    auto e = std::make_shared<Expect>();
    e->meta = {"session=" + c.key, "cached=1"};
    reload.push_back(std::move(e));
  }

  // The interactive mix, in percent: cached stage reads dominate, then
  // 1-net ROUTE subsets, control verbs, and the odd repeat LOAD.  With
  // ROUTEs at 10 %, the p99 sits near their p90 rather than on the few
  // hardest nets of one seed.
  const auto draw = [&](Rng& r) {
    const std::size_t l = pick(r, kLayouts);
    const LayoutCase& c = w.layouts[l];
    const std::size_t roll = pick(r, 100);
    if (roll < 35) return stage_req(c, refs[l], kinds[0]);
    if (roll < 57) return stage_req(c, refs[l], kinds[1]);
    if (roll < 72) return stage_req(c, refs[l], kinds[2]);
    if (roll < 82) return one_net_req(c, refs[l], pick(r, c.lay.nets().size()));
    if (roll < 90) return make_req("HELLO", "HELLO", hello);
    if (roll < 97) return make_req("STATS", "STATS", stats);
    Request q = make_req("LOAD", "LOAD " + std::to_string(c.text.size()),
                         reload[l]);
    q.body = c.text;
    return q;
  };
  // streams[0] is the open-loop schedule; every connection also gets its
  // own closed-loop cycle for the req_s phase.
  for (std::size_t conn = 0; conn < kMaxClients; ++conn) {
    std::vector<Request> cycle;
    for (std::size_t i = 0; i < 2048; ++i) cycle.push_back(draw(rng));
    w.streams.push_back(std::move(cycle));
    w.pins.emplace_back();
  }
  return w;
}

// ------------------------------------------------------------- eco_pinned

/// Mirror of the daemon's pinned-session mutation path: a private copy of
/// the session environment plus the per-net route records.
struct PinSim {
  const layout::Layout& lay;
  route::SearchEnvironment env;
  std::map<std::size_t, route::NetRoute> routes;

  std::shared_ptr<const Expect> route_and_commit(
      const std::vector<std::size_t>& ids, bool commit_meta) {
    const route::SteinerNetRouter router(env.index(), env.lines());
    route::NetlistResult nr;
    nr.routes.resize(lay.nets().size());
    for (const std::size_t id : ids) {
      route::NetRoute r = router.route_net(lay, lay.nets()[id], {});
      if (r.ok) {
        env.commit_route(id, r.segments, 1);
        ++nr.routed;
        nr.total_wirelength += r.wirelength;
      } else {
        ++nr.failed;
      }
      routes[id] = r;
      nr.routes[id] = std::move(r);
    }
    auto e = routing_expect(lay, nr, ids, false);
    if (commit_meta) {
      e->meta.push_back("committed=" + std::to_string(routes.size()));
    }
    return e;
  }
  std::shared_ptr<const Expect> commit(const std::vector<std::size_t>& ids) {
    return route_and_commit(ids, true);
  }
  std::shared_ptr<const Expect> reroute(const std::vector<std::size_t>& ids) {
    for (const std::size_t id : ids) {
      if (routes.erase(id) != 0) env.remove_route(id);
    }
    return route_and_commit(ids, false);
  }
  std::shared_ptr<const Expect> uncommit(const std::vector<std::size_t>& ids) {
    for (const std::size_t id : ids) {
      env.remove_route(id);
      routes.erase(id);
    }
    auto e = std::make_shared<Expect>();
    e->meta = {"removed=" + std::to_string(ids.size()),
               "committed=" + std::to_string(routes.size())};
    return e;
  }
};

/// One pin's share of a connection cycle: rounds of COMMIT k fresh nets,
/// REROUTE two committed nets, UNCOMMIT the previous round's nets.  Each
/// write is followed by two reads of the pin's base session, rotating
/// VERIFY, DETAIL and a 1-net ROUTE that walks the netlist in order, so
/// every cycle carries the same op mix whatever the seed.  The last round
/// uncommits everything, so the cycle repeats from the same pin state.
struct PinOp {
  enum class Kind { kCommit, kReroute, kUncommit, kRead } kind;
  std::vector<std::size_t> nets;
  Request read;
};

std::vector<std::vector<PinOp>> pin_rounds(Rng& rng, const LayoutCase& c,
                                           const LayoutRefs& refs) {
  constexpr std::size_t kRounds = 32;
  constexpr std::size_t kCommit = 4;
  const std::size_t n = c.lay.nets().size();
  std::vector<std::vector<PinOp>> rounds(kRounds);
  std::size_t reads = 0;
  std::size_t next_net = 0;
  std::vector<PinOp>* ops = nullptr;
  const auto write = [&](PinOp::Kind kind, std::vector<std::size_t> nets) {
    ops->push_back({kind, std::move(nets), {}});
    for (int k = 0; k < 2; ++k) {
      PinOp op{PinOp::Kind::kRead, {}, {}};
      switch (reads++ % 3) {
        case 0:
          op.read = stage_req(c, refs, pipeline::StageKind::kVerify);
          break;
        case 1:
          op.read = stage_req(c, refs, pipeline::StageKind::kDetail);
          break;
        default:
          op.read = one_net_req(c, refs, next_net++ % n);
          break;
      }
      ops->push_back(std::move(op));
    }
  };
  std::set<std::size_t> committed;
  std::vector<std::size_t> prev;
  for (std::size_t r = 0; r < kRounds; ++r) {
    ops = &rounds[r];
    std::vector<std::size_t> fresh;
    while (fresh.size() < kCommit) {
      const std::size_t id = pick(rng, n);
      if (committed.count(id) == 0 &&
          std::find(fresh.begin(), fresh.end(), id) == fresh.end()) {
        fresh.push_back(id);
      }
    }
    committed.insert(fresh.begin(), fresh.end());
    write(PinOp::Kind::kCommit, fresh);
    const std::vector<std::size_t> live(committed.begin(), committed.end());
    const std::size_t a = pick(rng, live.size());
    std::size_t b = pick(rng, live.size() - 1);
    if (b >= a) ++b;
    write(PinOp::Kind::kReroute, {live[a], live[b]});
    // Round 0 has nothing older to rip up; the last round rips up both.
    std::vector<std::size_t> gone = prev;
    if (r + 1 == kRounds) gone.insert(gone.end(), fresh.begin(), fresh.end());
    if (!gone.empty()) {
      for (const std::size_t id : gone) committed.erase(id);
      write(PinOp::Kind::kUncommit, gone);
    }
    prev = fresh;
  }
  return rounds;
}

/// Turns one pin's rounds into requests, with expectations from the
/// pinned-session mirror.  Throws if replaying the rounds a second time on
/// the same mirror answers differently: the daemon runs them over and over
/// on one pin, so a full commit / rip-up cycle (tombstones and compactions
/// included) must leave no trace.
std::vector<std::vector<Request>> pin_requests(
    const LayoutCase& c, std::size_t pin,
    const std::vector<std::vector<PinOp>>& rounds) {
  PinSim sim{c.lay, route::SearchEnvironment(c.lay), {}};
  std::vector<std::vector<Request>> out;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      std::vector<Request> reqs;
      for (const PinOp& op : rounds[r]) {
        Request q;
        const std::string nets = net_list(c.lay, op.nets);
        switch (op.kind) {
          case PinOp::Kind::kCommit:
            q = make_req("COMMIT", "COMMIT {pin} nets=" + nets,
                         sim.commit(op.nets));
            break;
          case PinOp::Kind::kReroute:
            q = make_req("REROUTE", "REROUTE {pin} nets=" + nets,
                         sim.reroute(op.nets));
            break;
          case PinOp::Kind::kUncommit:
            q = make_req("UNCOMMIT", "UNCOMMIT {pin} nets=" + nets,
                         sim.uncommit(op.nets));
            break;
          case PinOp::Kind::kRead:
            q = op.read;
            break;
        }
        q.pin = pin;
        reqs.push_back(std::move(q));
      }
      if (pass == 0) {
        out.push_back(std::move(reqs));
        continue;
      }
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Expect& want = *out[r][i].expect;
        if (reqs[i].expect->body != want.body ||
            reqs[i].expect->meta != want.meta) {
          throw std::runtime_error(
              "eco_pinned: pinned-session replay is not repeatable");
        }
      }
    }
  }
  return out;
}

Workload eco_pinned(std::uint64_t seed) {
  Workload w;
  w.name = "eco_pinned";
  w.tail_pct = 99;
  w.round_s = 2;
  Rng rng(seed);
  // Two pins per connection: eight sessions, well within the daemon's
  // session cache, so the base-session reads never miss.
  constexpr std::size_t kPinsPerConn = 2;
  const std::vector<pipeline::StageKind> kinds = {
      pipeline::StageKind::kVerify, pipeline::StageKind::kDetail};
  for (std::size_t i = 0; i < kMaxClients * kPinsPerConn; ++i) {
    w.layouts.push_back(make_case(25, 640, 40, rng()));
  }
  // Per-layout references and the seeded rounds, drawn in a fixed order;
  // the pinned-session mirrors then replay in parallel (one thread per
  // connection), which cannot change any draw.
  std::vector<LayoutRefs> refs(w.layouts.size());
  parallel_for(w.layouts.size(), [&](std::size_t i) {
    refs[i] = layout_refs(w.layouts[i], kinds);
  });
  std::vector<std::vector<std::vector<PinOp>>> rounds(w.layouts.size());
  for (std::size_t i = 0; i < w.layouts.size(); ++i) {
    rounds[i] = pin_rounds(rng, w.layouts[i], refs[i]);
  }
  std::vector<std::vector<std::vector<std::vector<Request>>>> per_conn(
      kMaxClients);
  parallel_for(kMaxClients, [&](std::size_t conn) {
    for (std::size_t p = 0; p < kPinsPerConn; ++p) {
      const std::size_t l = conn * kPinsPerConn + p;
      per_conn[conn].push_back(pin_requests(w.layouts[l], p, rounds[l]));
    }
  });
  for (std::size_t conn = 0; conn < kMaxClients; ++conn) {
    w.pins.emplace_back();
    for (std::size_t p = 0; p < kPinsPerConn; ++p) {
      w.pins.back().push_back(w.layouts[conn * kPinsPerConn + p].key);
    }
    // Interleave the pins round by round.
    const auto& per_pin = per_conn[conn];
    std::vector<Request> cycle;
    for (std::size_t r = 0; r < per_pin.front().size(); ++r) {
      for (const auto& pin_rounds_reqs : per_pin) {
        cycle.insert(cycle.end(), pin_rounds_reqs[r].begin(),
                     pin_rounds_reqs[r].end());
      }
    }
    w.streams.push_back(std::move(cycle));
  }
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "chip_batch") return chip_batch(seed);
  if (name == "eco_interactive") return eco_interactive(seed);
  if (name == "eco_pinned") return eco_pinned(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace gcrbench
