// Tests for the pipeline-orchestration subsystem: stage-option and
// committed-route fingerprints, the content-addressed stage cache, the
// stage runner's determinism and cancellation, the serving integration
// (lazy default-route commit, repeated-stage cache hits counted through
// the build-count seam, REROUTE/OPTIMIZE invalidation by re-keying), and
// the DETAIL / CONGEST / VERIFY / SVG / GEN verbs end to end on both
// front-ends — including the pipelined GEN -> ROUTE -> DETAIL -> VERIFY
// -> STATS sequence over real TCP and byte-identical front-end parity.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/netlist_router.hpp"
#include "core/optimize.hpp"
#include "core/search_environment.hpp"
#include "io/route_dump.hpp"
#include "io/text_format.hpp"
#include "pipeline/route_state.hpp"
#include "pipeline/stage.hpp"
#include "pipeline/stage_cache.hpp"
#include "pipeline/stage_runner.hpp"
#include "serve/layout_session.hpp"
#include "serve/protocol.hpp"
#include "serve/routing_service.hpp"
#include "workload/netgen.hpp"

#if defined(__linux__)
#include <sys/socket.h>

#include <thread>

#include "net/event_loop.hpp"
#include "net/socket.hpp"
#include "serve/fd_stream.hpp"
#endif

namespace {

using namespace gcr;

std::string workload_text(std::size_t cells, std::size_t nets,
                          std::uint64_t seed) {
  return io::write_layout_string(
      workload::standard_workload(cells, 512, nets, seed));
}

/// In-process reference for a stage verb: default options, default full
/// sequential route — exactly what the service runs on a fresh session.
std::shared_ptr<const pipeline::StageResult> reference_stage(
    const layout::Layout& lay, const route::NetlistResult& routes,
    pipeline::StageKind kind) {
  route::SearchEnvironment env(lay);
  pipeline::StageOptions opts;
  opts.kind = kind;
  const pipeline::StageOutcome out =
      pipeline::run_stage({lay, env, routes, nullptr, {}}, opts);
  return out.result;
}

// ------------------------------------------------------------ fingerprints

TEST(StageOptions, FingerprintCoversOnlyRelevantKnobs) {
  pipeline::StageOptions a;  // kDetail
  pipeline::StageOptions b = a;
  b.penalty_dbu = 999;  // congestion knob: irrelevant to DETAIL
  b.scale = 8.0;        // svg knob: irrelevant to DETAIL
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.channel_window = 16;
  EXPECT_NE(a.fingerprint(), b.fingerprint());

  pipeline::StageOptions c;
  c.kind = pipeline::StageKind::kCongest;
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  pipeline::StageOptions d = c;
  d.track_pitch = 5;  // detail knob: irrelevant to CONGEST
  EXPECT_EQ(c.fingerprint(), d.fingerprint());
  d.max_iterations = 7;
  EXPECT_NE(c.fingerprint(), d.fingerprint());
}

TEST(RouteState, FingerprintTracksGeometry) {
  const layout::Layout lay = io::read_layout_string(workload_text(9, 12, 7));
  const route::NetlistResult res = route::NetlistRouter(lay).route_all();
  const std::string fp = pipeline::fingerprint_routes(res);
  ASSERT_EQ(fp.size(), 16u);
  EXPECT_EQ(fp.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(fp, pipeline::fingerprint_routes(res));  // pure function

  route::NetlistResult tweaked = res;
  ASSERT_FALSE(tweaked.routes.empty());
  tweaked.routes[0].wirelength += 1;
  EXPECT_NE(fp, pipeline::fingerprint_routes(tweaked));
}

TEST(RouteState, SlotPublishesImmutableSnapshots) {
  const layout::Layout lay = io::read_layout_string(workload_text(9, 12, 7));
  const route::NetlistResult res = route::NetlistRouter(lay).route_all();
  pipeline::RouteStateSlot slot;
  EXPECT_EQ(slot.get(), nullptr);
  const auto snap = slot.set(res);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->fingerprint, pipeline::fingerprint_routes(res));
  EXPECT_EQ(slot.get(), snap);
  // Re-committing identical geometry keeps the fingerprint, so stage-cache
  // hits survive a repeated full ROUTE.
  EXPECT_EQ(slot.set(res)->fingerprint, snap->fingerprint);
}

// ------------------------------------------------------------- stage cache

TEST(StageCache, KeyComposition) {
  EXPECT_EQ(pipeline::StageCache::key_for("s", "r", "o"), "s|r|o");
}

TEST(StageCache, LruEvictionAndCounters) {
  pipeline::StageCache cache(2);
  const auto mk = [](const std::string& body) {
    auto r = std::make_shared<pipeline::StageResult>();
    r->body = body;
    return r;
  };
  EXPECT_EQ(cache.find("a"), nullptr);  // miss 1
  cache.insert("a", mk("A"));
  cache.insert("b", mk("B"));
  ASSERT_NE(cache.find("a"), nullptr);  // hit 1, refreshes a's recency
  cache.insert("c", mk("C"));           // evicts b (least recent)
  EXPECT_EQ(cache.find("b"), nullptr);  // miss 2
  ASSERT_NE(cache.find("a"), nullptr);  // hit 2
  ASSERT_NE(cache.find("c"), nullptr);  // hit 3
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
}

// ------------------------------------------------------------ stage runner

TEST(StageRunner, DeterministicAcrossRuns) {
  const layout::Layout lay = io::read_layout_string(workload_text(9, 12, 7));
  route::SearchEnvironment env(lay);
  const route::NetlistResult routes = route::NetlistRouter(lay).route_all();
  for (const pipeline::StageKind kind :
       {pipeline::StageKind::kDetail, pipeline::StageKind::kCongest,
        pipeline::StageKind::kVerify, pipeline::StageKind::kSvg}) {
    pipeline::StageOptions opts;
    opts.kind = kind;
    const std::size_t before = pipeline::stage_build_count();
    const pipeline::StageOutcome one =
        pipeline::run_stage({lay, env, routes, nullptr, {}}, opts);
    const pipeline::StageOutcome two =
        pipeline::run_stage({lay, env, routes, nullptr, {}}, opts);
    ASSERT_NE(one.result, nullptr);
    ASSERT_NE(two.result, nullptr);
    EXPECT_EQ(one.result->meta, two.result->meta);
    EXPECT_EQ(one.result->body, two.result->body);
    EXPECT_EQ(one.result->kind, kind);
    if (kind != pipeline::StageKind::kVerify) {
      // A clean verify has no violation lines; every other stage renders.
      EXPECT_FALSE(one.result->body.empty());
    }
    EXPECT_EQ(pipeline::stage_build_count(), before + 2);
  }
}

TEST(StageRunner, CancelAndDeadlineStopWithoutCounting) {
  const layout::Layout lay = io::read_layout_string(workload_text(9, 12, 7));
  route::SearchEnvironment env(lay);
  const route::NetlistResult routes = route::NetlistRouter(lay).route_all();
  pipeline::StageOptions opts;  // kDetail

  const auto cancel = std::make_shared<std::atomic<bool>>(true);
  const std::size_t before = pipeline::stage_build_count();
  const pipeline::StageOutcome cancelled =
      pipeline::run_stage({lay, env, routes, cancel, {}}, opts);
  EXPECT_EQ(cancelled.result, nullptr);
  EXPECT_TRUE(cancelled.cancelled);

  const auto past =
      std::chrono::steady_clock::now() - std::chrono::seconds(1);
  const pipeline::StageOutcome expired =
      pipeline::run_stage({lay, env, routes, nullptr, past}, opts);
  EXPECT_EQ(expired.result, nullptr);
  EXPECT_TRUE(expired.cancelled);
  EXPECT_EQ(pipeline::stage_build_count(), before);
}

// ----------------------------------------------------- service integration

serve::RouteRequest stage_request(const std::string& key,
                                  pipeline::StageOptions opts = {}) {
  serve::RouteRequest req;
  req.session_key = key;
  req.stage = opts;
  return req;
}

/// The stage's own meta: the reply meta after its `stage=` and `cached=`.
std::string stage_meta(const serve::Response& resp) {
  const std::size_t end = resp.meta.find(' ', resp.meta.find("cached="));
  return end == std::string::npos ? "" : resp.meta.substr(end + 1);
}

TEST(ServiceStages, FreshSessionCommitsDefaultRouteThenHitsCache) {
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const std::string text = workload_text(9, 12, 7);
  const auto session = service.load(text);
  EXPECT_EQ(session->routes.get(), nullptr);

  const std::size_t before = pipeline::stage_build_count();
  const serve::Response first =
      service.call(stage_request(session->key));
  ASSERT_TRUE(first.ok()) << first.error;
  ASSERT_EQ(serve::meta_value(first.meta, "stage"), "detail");
  EXPECT_EQ(serve::meta_value(first.meta, "cached"), "0");
  EXPECT_EQ(pipeline::stage_build_count(), before + 1);

  // The lazy commit is the deterministic default full sequential route.
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult ref = route::NetlistRouter(lay).route_all();
  const auto state = session->routes.get();
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->fingerprint, pipeline::fingerprint_routes(ref));

  // Repeated DETAIL: served from the cache, zero stage rebuilds.
  const serve::Response second =
      service.call(stage_request(session->key));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(serve::meta_value(second.meta, "cached"), "1");
  EXPECT_EQ(second.body, first.body);
  EXPECT_EQ(stage_meta(second), stage_meta(first));
  EXPECT_EQ(pipeline::stage_build_count(), before + 1);
  EXPECT_EQ(service.snapshot().stage_cache_hits, 1u);

  // A full ROUTE re-committing identical geometry must keep hitting.
  serve::RouteRequest route;
  route.session_key = session->key;
  ASSERT_TRUE(service.call(std::move(route)).ok());
  const serve::Response third =
      service.call(stage_request(session->key));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(serve::meta_value(third.meta, "cached"), "1");
  EXPECT_EQ(pipeline::stage_build_count(), before + 1);

  // Different stage options are a different cache key.
  pipeline::StageOptions wide;
  wide.channel_window = 16;
  const serve::Response fourth =
      service.call(stage_request(session->key, wide));
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(serve::meta_value(fourth.meta, "cached"), "0");
  EXPECT_EQ(pipeline::stage_build_count(), before + 2);
}

TEST(ServiceStages, RerouteInvalidatesCachedStages) {
  // Precondition: ripping up nets 0,1 and re-routing them last must change
  // the committed geometry, otherwise the content key would (correctly)
  // still hit.  The workload is chosen so it does.
  const std::string text = workload_text(12, 24, 7);
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult full = route::NetlistRouter(lay).route_all();
  route::NetlistOptions ropts;
  ropts.mode = route::NetlistMode::kSequential;
  ropts.reroute = {0, 1};
  const route::NetlistResult ripped =
      route::NetlistRouter(lay).route_all(ropts);
  ASSERT_NE(pipeline::fingerprint_routes(full),
            pipeline::fingerprint_routes(ripped))
      << "workload does not differentiate the reroute; pick another seed";

  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const auto session = service.load(text);

  const serve::Response first =
      service.call(stage_request(session->key));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(serve::meta_value(first.meta, "cached"), "0");

  serve::RouteRequest rr;
  rr.session_key = session->key;
  rr.reroute = true;
  rr.opts.mode = route::NetlistMode::kSequential;
  rr.nets = {lay.nets()[0].name(), lay.nets()[1].name()};
  const serve::Response rresp = service.call(std::move(rr));
  ASSERT_TRUE(rresp.ok()) << rresp.error;
  ASSERT_NE(session->routes.get(), nullptr);
  EXPECT_EQ(session->routes.get()->fingerprint,
            pipeline::fingerprint_routes(ripped));

  // Same DETAIL options, new committed geometry: recompute, not a hit.
  const std::size_t before = pipeline::stage_build_count();
  const serve::Response second =
      service.call(stage_request(session->key));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(serve::meta_value(second.meta, "cached"), "0");
  EXPECT_EQ(pipeline::stage_build_count(), before + 1);
}

TEST(ServiceStages, OptimizeRecommitsAndRekeys) {
  const std::string text = workload_text(12, 24, 7);
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult full = route::NetlistRouter(lay).route_all();

  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const auto session = service.load(text);

  const serve::Response first =
      service.call(stage_request(session->key));
  ASSERT_TRUE(first.ok());

  serve::RouteRequest orq;
  orq.session_key = session->key;
  orq.optimize = true;
  const serve::Response oresp = service.call(std::move(orq));
  ASSERT_TRUE(oresp.ok());
  const auto state = session->routes.get();
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->fingerprint, pipeline::fingerprint_routes(
                                    io::read_routes_string(oresp.body, lay)));

  // Re-keying is exact: the repeated stage hits iff OPTIMIZE reproduced
  // the original geometry bit-for-bit.
  const bool unchanged =
      state->fingerprint == pipeline::fingerprint_routes(full);
  const serve::Response second =
      service.call(stage_request(session->key));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(serve::meta_value(second.meta, "cached"), unchanged ? "1" : "0");
}

TEST(ServiceStages, StatsCountStagesAndGens) {
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const auto session = service.load(workload_text(9, 12, 7));
  ASSERT_TRUE(service.call(stage_request(session->key)).ok());
  ASSERT_TRUE(service.call(stage_request(session->key)).ok());
  // A real GEN through the service's LOAD/GEN job path, which counts it.
  const serve::GenCommand gen =
      serve::parse_gen_command("standard seed=5 cells=9 extent=512 nets=12");
  serve::LoadRequest req;
  req.synth = [gen] { return serve::generate_workload_text(gen); };
  ASSERT_TRUE(service.call(std::move(req)).ok());
  const serve::MetricsSnapshot snap = service.snapshot();
  EXPECT_EQ(snap.stages_ok, 2u);
  EXPECT_EQ(snap.stages_failed, 0u);
  EXPECT_EQ(snap.gens_ok, 1u);
  EXPECT_EQ(snap.stage_cache_hits, 1u);
  EXPECT_EQ(snap.stage_cache_misses, 1u);
  EXPECT_EQ(snap.stage_cache_size, 1u);
  const std::string text = service.stats_text();
  EXPECT_NE(text.find("stages_ok 2"), std::string::npos);
  EXPECT_NE(text.find("gens_ok 1"), std::string::npos);
  EXPECT_NE(text.find("stage_cache_hits 1"), std::string::npos);
}

// ------------------------------------------------ blocking front-end (pipe)

/// Runs a scripted connection and returns everything the service wrote.
std::string run_protocol(const std::string& script) {
  serve::RoutingService::Options opts;
  opts.workers = 2;
  serve::RoutingService service(opts);
  std::istringstream in(script);
  std::ostringstream out;
  serve::serve_connection(service, in, out);
  return out.str();
}

struct Frame {
  std::string status;
  std::string body;
};

Frame next_frame(std::istream& in) {
  Frame f;
  EXPECT_TRUE(static_cast<bool>(std::getline(in, f.status)));
  std::istringstream is(f.status);
  std::string kw;
  std::size_t nbytes = 0;
  is >> kw;
  if (kw == "OK" && (is >> nbytes) && nbytes > 0) {
    f.body.resize(nbytes);
    in.read(f.body.data(), static_cast<std::streamsize>(nbytes));
  }
  return f;
}

/// Drops the trailing per-request timing fields (HELLO's uptime, every
/// queued reply's queue_us= onward), which legitimately differ between
/// runs and front-ends.
std::string strip_timing(const std::string& status) {
  std::size_t pos = status.find(" queue_us=");
  if (pos == std::string::npos) pos = status.find(" uptime_s=");
  return pos == std::string::npos ? status : status.substr(0, pos);
}

const char kGenLine[] = "GEN standard seed=5 cells=9 extent=512 nets=12\n";

TEST(Protocol, PipelineVerbsRoundTrip) {
  // The GEN equivalent of this workload, generated client-side: the session
  // key is predictable before the command is sent.
  const std::string text = workload_text(9, 12, 5);
  const std::string key = serve::SessionCache::content_key(text);
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult ref = route::NetlistRouter(lay).route_all();

  const std::string script = std::string(kGenLine) + "ROUTE " + key +
                             "\nDETAIL " + key + "\nCONGEST " + key +
                             "\nVERIFY " + key + "\nSVG " + key +
                             "\nDETAIL " + key + "\nSTATS\nQUIT\n";
  std::istringstream replies(run_protocol(script));

  const Frame gen = next_frame(replies);
  EXPECT_NE(gen.status.find("session=" + key), std::string::npos)
      << gen.status;
  EXPECT_NE(gen.status.find(" gen=standard"), std::string::npos);
  EXPECT_NE(gen.status.find("cached=0"), std::string::npos);

  const Frame route = next_frame(replies);
  ASSERT_EQ(route.status.rfind("OK ", 0), 0u) << route.status;
  EXPECT_EQ(io::read_routes_string(route.body, lay).total_wirelength,
            ref.total_wirelength);

  for (const pipeline::StageKind kind :
       {pipeline::StageKind::kDetail, pipeline::StageKind::kCongest,
        pipeline::StageKind::kVerify, pipeline::StageKind::kSvg}) {
    const auto want = reference_stage(lay, ref, kind);
    ASSERT_NE(want, nullptr);
    const Frame frame = next_frame(replies);
    const std::string name{pipeline::to_string(kind)};
    ASSERT_EQ(frame.status.rfind("OK ", 0), 0u) << frame.status;
    EXPECT_NE(frame.status.find("stage=" + name + " cached=0"),
              std::string::npos)
        << frame.status;
    if (!want->meta.empty()) {
      EXPECT_NE(frame.status.find(want->meta), std::string::npos)
          << name << ": " << frame.status;
    }
    EXPECT_EQ(frame.body, want->body) << name;
  }

  const Frame cached = next_frame(replies);
  EXPECT_NE(cached.status.find("stage=detail cached=1"), std::string::npos)
      << cached.status;

  const Frame stats = next_frame(replies);
  EXPECT_NE(stats.body.find("stages_ok 5"), std::string::npos) << stats.body;
  EXPECT_NE(stats.body.find("gens_ok 1"), std::string::npos);
  EXPECT_NE(stats.body.find("stage_cache_hits 1"), std::string::npos);
  const Frame bye = next_frame(replies);
  EXPECT_EQ(bye.status, "OK 0 bye");
}

TEST(Protocol, GenDedupsBySeed) {
  const std::string text = workload_text(9, 12, 5);
  const std::string key = serve::SessionCache::content_key(text);
  const std::string script =
      std::string(kGenLine) + kGenLine +
      "GEN standard seed=6 cells=9 extent=512 nets=12\nQUIT\n";
  std::istringstream replies(run_protocol(script));
  const Frame first = next_frame(replies);
  EXPECT_NE(first.status.find("session=" + key), std::string::npos);
  EXPECT_NE(first.status.find("cached=0"), std::string::npos);
  const Frame second = next_frame(replies);
  EXPECT_NE(second.status.find("session=" + key), std::string::npos);
  EXPECT_NE(second.status.find("cached=1"), std::string::npos)
      << "identical GEN must dedup into the cached session: "
      << second.status;
  const Frame third = next_frame(replies);
  EXPECT_EQ(third.status.find("session=" + key), std::string::npos)
      << "a different seed must synthesize a different session";
  EXPECT_NE(third.status.find("cached=0"), std::string::npos);
}

TEST(Protocol, StageAndGenParseRejections) {
  const std::string script =
      "DETAIL deadbeef\n"                    // unknown session
      "GEN standard cells=9\n"               // missing mandatory seed
      "GEN bogus seed=1\n"                   // unknown kind
      "GEN standard seed=1 cells=0\n"        // below the size floor
      "GEN standard seed=1 nets=999999\n"    // above the size cap
      "DETAIL deadbeef window=0\n"           // zero channel window
      "CONGEST deadbeef iterations=999\n"    // above the iteration cap
      "SVG deadbeef scale=1000\n"            // above the scale cap
      "SVG deadbeef scale=1.2.3\n"           // trailing junk after number
      "SVG deadbeef scale=.\n"               // bare dot, no digits
      "VERIFY deadbeef bogus=1\n"            // unknown stage option
      "QUIT\n";
  std::istringstream replies(run_protocol(script));
  const char* expects[] = {
      "session_not_found", "seed",       "kind",
      "cells",             "nets",       "window",
      "iterations",        "scale",      "expected a number",
      "expected a number", "bogus",
  };
  for (const char* expect : expects) {
    const Frame f = next_frame(replies);
    EXPECT_EQ(f.status.rfind("ERR ", 0), 0u) << f.status;
    EXPECT_NE(f.status.find(expect), std::string::npos)
        << "want '" << expect << "' in: " << f.status;
  }
  const Frame bye = next_frame(replies);
  EXPECT_EQ(bye.status, "OK 0 bye");
}

// --------------------------------------------------- epoll front-end (TCP)

#if defined(__linux__)

/// A RoutingService + EventLoop pair running on a background thread.
class TestServer {
 public:
  TestServer()
      : service_(service_options()), loop_(service_, net::EventLoopOptions()),
        thread_([this] { loop_.run(); }) {}

  ~TestServer() {
    loop_.stop();
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return loop_.port(); }
  [[nodiscard]] serve::RoutingService& service() noexcept { return service_; }

 private:
  static serve::RoutingService::Options service_options() {
    serve::RoutingService::Options opts;
    opts.workers = 2;
    return opts;
  }

  serve::RoutingService service_;
  net::EventLoop loop_;
  std::thread thread_;
};

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(w, 0);
    off += static_cast<std::size_t>(w);
  }
}

TEST(EventLoopPipeline, PipelinedGenRouteDetailVerifyStats) {
  // The acceptance sequence, all five frames in ONE TCP segment: the GEN
  // must act as an ordering barrier (the ROUTE and stages are parked until
  // the synthesized session exists), and every response must arrive
  // complete, correct, and in request order.
  TestServer server;
  const std::string text = workload_text(9, 12, 5);
  const std::string key = serve::SessionCache::content_key(text);
  const layout::Layout lay = io::read_layout_string(text);
  const route::NetlistResult ref = route::NetlistRouter(lay).route_all();

  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());
  send_all(sock.get(), std::string(kGenLine) + "ROUTE " + key + "\nDETAIL " +
                           key + "\nVERIFY " + key + "\nSTATS\nQUIT\n");

  const Frame gen = next_frame(transport.in());
  ASSERT_EQ(gen.status.rfind("OK 0 session=" + key, 0), 0u) << gen.status;
  EXPECT_NE(gen.status.find(" gen=standard"), std::string::npos);

  const Frame route = next_frame(transport.in());
  ASSERT_EQ(route.status.rfind("OK ", 0), 0u) << route.status;
  EXPECT_EQ(io::read_routes_string(route.body, lay).total_wirelength,
            ref.total_wirelength);

  const Frame detail = next_frame(transport.in());
  ASSERT_EQ(detail.status.rfind("OK ", 0), 0u) << detail.status;
  const auto want_detail =
      reference_stage(lay, ref, pipeline::StageKind::kDetail);
  ASSERT_NE(want_detail, nullptr);
  EXPECT_NE(detail.status.find("stage=detail cached=0"), std::string::npos)
      << detail.status;
  EXPECT_EQ(detail.body, want_detail->body);

  const Frame verify = next_frame(transport.in());
  ASSERT_EQ(verify.status.rfind("OK ", 0), 0u) << verify.status;
  const auto want_verify =
      reference_stage(lay, ref, pipeline::StageKind::kVerify);
  ASSERT_NE(want_verify, nullptr);
  EXPECT_NE(verify.status.find(want_verify->meta), std::string::npos)
      << verify.status;
  EXPECT_EQ(verify.body, want_verify->body);

  // STATS *executes* at dispatch — possibly while a pipelined stage is
  // still on a worker — so only the GEN (whose barrier ordered it) is
  // guaranteed visible in the body; the settled counters are checked on a
  // post-drain snapshot below.
  const Frame stats = next_frame(transport.in());
  ASSERT_EQ(stats.status.rfind("OK ", 0), 0u) << stats.status;
  EXPECT_NE(stats.body.find("gens_ok 1"), std::string::npos) << stats.body;
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");
  char c = 0;
  EXPECT_EQ(::recv(sock.get(), &c, 1, 0), 0);  // clean close, stream intact

  const serve::MetricsSnapshot snap = server.service().snapshot();
  EXPECT_EQ(snap.gens_ok, 1u);
  EXPECT_EQ(snap.stages_ok, 2u);
  EXPECT_EQ(snap.stage_cache_misses, 2u);
}

/// One protocol conversation covering every verb, spoken over \p fd in
/// rounds: each round is sent whole (pipelined), then its replies are read
/// — every final frame plus any OPTIMIZE `PASS` lines — before the next
/// round goes out.  Returns (timing-stripped status, body) per frame.
std::vector<std::pair<std::string, std::string>> converse_every_verb(int fd) {
  const std::string gen_key =
      serve::SessionCache::content_key(workload_text(9, 12, 5));
  const std::string text = workload_text(9, 10, 8);
  const std::string key = serve::SessionCache::content_key(text);
  const layout::Layout lay = io::read_layout_string(text);
  const std::string net_a = lay.nets()[0].name();
  const std::string net_b = lay.nets()[1].name();
  const std::string load =
      "LOAD " + std::to_string(text.size()) + "\n" + text;

  serve::FdTransport transport(fd);
  std::vector<std::pair<std::string, std::string>> frames;
  const auto round = [&](const std::string& bytes, std::size_t finals) {
    send_all(fd, bytes);
    while (finals > 0) {
      const Frame f = next_frame(transport.in());
      if (f.status.empty()) return;  // stream ended early; sizes will differ
      if (f.status.rfind("PASS ", 0) != 0) --finals;
      frames.emplace_back(strip_timing(f.status), f.body);
    }
  };

  // GEN and a cold LOAD are ordering barriers, so the whole first round
  // pipelines; OPTIMIZE's PASS lines queue behind the stage replies.
  round("HELLO\n" + std::string(kGenLine) + load + load + "ROUTE " +
            gen_key + "\nDETAIL " + gen_key + "\nCONGEST " + gen_key +
            "\nVERIFY " + gen_key + "\nSVG " + gen_key + "\nOPTIMIZE " +
            key + " passes=2\n",
        10);
  // PIN is an ordering barrier too, so the handle a fresh service hands
  // out first is addressable by the commands pipelined behind it.
  const std::string handle = "pin-0000000000000001";
  round("PIN " + key + "\nCOMMIT " + handle + " nets=" + net_a + "," +
            net_b + "\nREROUTE " + handle + " nets=" + net_a +
            "\nUNCOMMIT " + handle + " nets=" + net_b + "\nSAVE " + handle +
            " snap\nUNPIN " + handle + "\nBOGUS\n" +
            std::string(serve::kMaxCommandLine + 1, 'x') + "\nTRACE n=0\n",
        9);
  // An oversize LOAD: ERR, then its declared body is skipped unbuffered
  // and the connection stays framed for the QUIT behind it.
  const std::size_t oversize = serve::kMaxLoadBytes + 1;
  send_all(fd, "LOAD " + std::to_string(oversize) + "\n");
  const std::string zeros(64 * 1024, '\0');
  for (std::size_t sent = 0; sent < oversize; sent += zeros.size()) {
    send_all(fd, zeros.substr(0, std::min(zeros.size(), oversize - sent)));
  }
  round("QUIT\n", 2);
  return frames;
}

TEST(EventLoopPipeline, FrontEndsAnswerPipelineVerbsIdentically) {
  // The same conversation through serve_connection (the blocking transport
  // of gcr_serve's --fd mode, over a socketpair) and the epoll loop (TCP)
  // must produce byte-identical frames once the timing fields — the only
  // legitimately nondeterministic bytes — are stripped.
  std::vector<std::pair<std::string, std::string>> blocking;
  {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const net::ScopedFd client(sv[0]);
    const net::ScopedFd server_end(sv[1]);
    serve::RoutingService::Options opts;
    opts.workers = 2;
    serve::RoutingService service(opts);
    std::thread server([&] {
      serve::FdTransport transport(server_end.get());
      serve::serve_connection(service, transport.in(), transport.out());
    });
    blocking = converse_every_verb(client.get());
    // EOF ends serve_connection even if the conversation broke off early.
    ::shutdown(client.get(), SHUT_WR);
    server.join();
  }

  std::vector<std::pair<std::string, std::string>> epoll;
  {
    TestServer server;
    const net::ScopedFd sock = net::tcp_connect(server.port());
    epoll = converse_every_verb(sock.get());
  }

  // Spot checks that the script reached every path it means to.
  const auto has = [&](const std::string& prefix) {
    return std::any_of(blocking.begin(), blocking.end(), [&](const auto& f) {
      return f.first.rfind(prefix, 0) == 0;
    });
  };
  EXPECT_TRUE(has("OK 0 session="));
  EXPECT_TRUE(has("PASS 1 "));
  EXPECT_TRUE(has("OK 0 pin=pin-"));
  // The COMMIT pipelined behind PIN found the pin PIN derived.
  EXPECT_TRUE(std::any_of(blocking.begin(), blocking.end(), [](const auto& f) {
    return f.first.rfind("OK ", 0) == 0 &&
           f.first.find(" pin=pin-0000000000000001 committed=2 ") !=
               std::string::npos;
  }));
  EXPECT_TRUE(has("ERR error: snapshots are disabled"));
  EXPECT_TRUE(has("ERR unknown command 'BOGUS'"));
  EXPECT_TRUE(has("ERR command line exceeds"));
  EXPECT_TRUE(has("ERR LOAD body larger than 64 MiB"));
  ASSERT_FALSE(blocking.empty());
  EXPECT_EQ(blocking.back().first, "OK 0 bye");

  ASSERT_EQ(blocking.size(), epoll.size());
  for (std::size_t i = 0; i < blocking.size(); ++i) {
    EXPECT_EQ(blocking[i].first, epoll[i].first) << "frame " << i;
    EXPECT_EQ(blocking[i].second, epoll[i].second) << "frame " << i;
  }
}

TEST(EventLoopPipeline, StageVerbRejectionsOverTcp) {
  TestServer server;
  const net::ScopedFd sock = net::tcp_connect(server.port());
  serve::FdTransport transport(sock.get());
  send_all(sock.get(), "DETAIL deadbeef\nGEN standard cells=9\nSVG "
                       "deadbeef scale=1000\nQUIT\n");
  const Frame missing = next_frame(transport.in());
  EXPECT_EQ(missing.status.rfind("ERR ", 0), 0u) << missing.status;
  EXPECT_NE(missing.status.find("session_not_found"), std::string::npos);
  const Frame seedless = next_frame(transport.in());
  EXPECT_EQ(seedless.status.rfind("ERR ", 0), 0u) << seedless.status;
  EXPECT_NE(seedless.status.find("seed"), std::string::npos);
  const Frame scale = next_frame(transport.in());
  EXPECT_EQ(scale.status.rfind("ERR ", 0), 0u) << scale.status;
  const Frame bye = next_frame(transport.in());
  EXPECT_EQ(bye.status, "OK 0 bye");
}

#else  // !__linux__

TEST(EventLoopPipeline, RequiresLinux) {
  GTEST_SKIP() << "epoll front-end tests require Linux";
}

#endif  // __linux__

}  // namespace
