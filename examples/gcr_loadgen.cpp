// gcr_loadgen — closed-loop load generator and end-to-end checker for the
// routing daemon.
//
// --server PATH forks PATH (gcr_serve) and drives the framed protocol over
// one of three transports, chosen with --transport:
//
//   socket (default): one connection over a socketpair, served as --fd 3.
//   pipe: one connection over the daemon's stdin/stdout.
//   tcp: the daemon runs with --listen 0 (the bound port is parsed from its
//   banner) and --clients threads each open their own connection.
//
// Every connection runs the same client session, cross-checked against an
// in-process reference of the same seeded workload:
//
//   - LOAD twice, or with --gen GEN twice: the workload is synthesized
//     server-side (each client from its own seed) and the session key must
//     match a client-side generation.  The second reply must be cached=1,
//     the first cached=0 wherever the session is the client's alone (every
//     GEN, and LOAD with one client).
//   - --requests ROUTEs: every dump is parsed back (io::read_routes) and
//     its routed count and wirelength, and the wirelength= meta, must match
//     the reference.
//   - With --gen, one DETAIL and one VERIFY whose meta and body must match
//     an in-process pipeline-stage run.  Without, one REROUTE of the first
//     two nets whose dump must match an in-process rip-up byte for byte.
//   - With --optimize, one OPTIMIZE: the streamed PASS lines must match an
//     in-process Optimizer run exactly (and be non-increasing), and the
//     final dump must parse back to its result.
//
// After the sessions, the closing exchange fetches STATS and TRACE (on the
// one connection for socket/pipe, on a control connection for tcp), prints
// STATS and audits it against what the clients observed: counter
// conservation and per-verb counts.  --stats-out FILE also archives the
// server's STATS and TRACE next to the clients' per-verb latency aggregates
// as JSON.  Then QUIT, and the daemon must exit 0: after EOF for socket and
// pipe, after a SIGINT drain for tcp.
//
//   --open-loop (tcp only): instead of closed-loop sessions, pace ROUTEs at
//   fixed offered rates over --conns pipelined connections and report the
//   p99-vs-offered-load curve (--curve-out FILE archives it as JSON).
//
//   --restart-dir DIR: restart-under-load smoke over TCP — PIN a session,
//   COMMIT every net, SAVE into DIR, pin and commit a second handle on a
//   connection left open, SIGINT-drain the server (its final save writes
//   the second pin), restart it with --restore-dir DIR, claim both handles,
//   and verify the first answers the same REROUTE byte-identically and the
//   second holds the same commits.
//
//   $ gcr_loadgen --server ./example_gcr_serve --requests 8 --gen
//   $ gcr_loadgen --server ./example_gcr_serve --transport tcp --clients 16
//
// The workload is a seeded workload::floorplan netlist, so runs are
// reproducible and the reference comparison is exact.

#if defined(__unix__) || defined(__APPLE__)

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/netlist_router.hpp"
#include "core/optimize.hpp"
#include "core/search_environment.hpp"
#include "io/route_dump.hpp"
#include "io/text_format.hpp"
#include "net/socket.hpp"
#include "pipeline/stage.hpp"
#include "pipeline/stage_runner.hpp"
#include "serve/fd_stream.hpp"
#include "serve/layout_session.hpp"
#include "workload/netgen.hpp"

#if defined(__linux__)
#include <fcntl.h>
#include <sys/epoll.h>
#define GCR_LOADGEN_HAVE_EPOLL 1
#else
#define GCR_LOADGEN_HAVE_EPOLL 0
#endif

namespace {

using namespace gcr;

enum class Transport { kSocket, kPipe, kTcp };

struct Config {
  std::string server;
  Transport transport = Transport::kSocket;
  std::size_t clients = 1;   // connections; more than one needs tcp
  std::size_t requests = 8;  // ROUTEs per client
  std::size_t workers = 0;   // 0 = hardware threads
  std::size_t cells = 16;
  std::size_t nets = 24;
  std::uint64_t seed = 42;
  bool optimize = false;  // finish every client with one OPTIMIZE
  bool gen = false;       // synthesize the workload server-side (GEN verb)
  /// Non-empty = restart-under-load smoke: pin a session on a first server,
  /// SAVE into this directory, SIGINT-drain the server, start a second one
  /// with --restore-dir, and verify the rehydrated pin answers the same
  /// REROUTE byte-identically.
  std::string restart_dir;
  /// Non-empty: write a JSON audit — server STATS + TRACE next to the
  /// clients' own per-verb aggregates — to this path before the server is
  /// shut down.
  std::string stats_out;
  /// Open-loop mode (tcp only): instead of closed-loop request/response
  /// clients, pace ROUTEs at fixed offered rates over many pipelined
  /// connections and measure the p99-vs-offered-load curve.
  bool open_loop = false;
  std::string offered = "200,400,800";  // req/s steps, comma-separated
  std::size_t conns = 64;               // open-loop connection count
  double step_s = 2.0;                  // seconds per offered-load step
  std::string curve_out;                // JSON curve artifact path
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --server PATH [--transport socket|pipe|tcp]\n"
      "       [--clients N] [--requests N] [--workers N]\n"
      "       [--cells N] [--nets N] [--seed S]\n"
      "       [--optimize] [--gen] [--restart-dir DIR] [--stats-out FILE]\n"
      "       [--open-loop [--offered R1,R2,..] [--conns N] [--step-s S]\n"
      "        [--curve-out FILE]]\n",
      argv0);
  return 2;
}

/// One seeded workload and every in-process reference a session over it
/// is checked against.
struct Workload {
  layout::Layout lay;
  std::string text;  ///< the layout as LOAD ships it
  std::string key;   ///< its content-addressed session key
  /// Independent routing is deterministic: every ROUTE must reproduce it.
  route::NetlistResult route;
  /// `REROUTE <key> nets=<first two nets>` and the dump it must answer
  /// byte for byte (the serve path runs the same deterministic driver);
  /// empty with --gen or fewer than two nets.
  std::string reroute_line;
  std::string reroute_body;
  std::optional<route::OptimizeReport> optimize;  ///< with --optimize
};

Workload make_workload(const Config& cfg, std::uint64_t seed) {
  Workload w{workload::standard_workload(cfg.cells, 640, cfg.nets, seed),
             {}, {}, {}, {}, {}, std::nullopt};
  w.text = io::write_layout_string(w.lay);
  w.key = serve::SessionCache::content_key(w.text);
  w.route = route::NetlistRouter(w.lay).route_all();
  if (!cfg.gen && w.lay.nets().size() >= 2) {
    route::NetlistOptions ropts;
    ropts.mode = route::NetlistMode::kSequential;
    ropts.reroute = {0, 1};
    const route::NetlistResult rres =
        route::NetlistRouter(w.lay).route_all(ropts);
    w.reroute_body = io::write_routes_string(w.lay, rres, ropts.reroute);
    w.reroute_line = "REROUTE " + w.key + " nets=" + w.lay.nets()[0].name() +
                     "," + w.lay.nets()[1].name();
  }
  if (cfg.optimize) w.optimize = route::Optimizer(w.lay).run();
  return w;
}

/// The GEN command mirroring make_workload: the server must synthesize a
/// byte-identical layout from the same seed, so the session key in its
/// reply is predictable before the request leaves.
std::string gen_command(const Config& cfg, std::uint64_t seed) {
  return "GEN standard seed=" + std::to_string(seed) +
         " cells=" + std::to_string(cfg.cells) +
         " extent=640 nets=" + std::to_string(cfg.nets);
}

// ------------------------------------------------------------ protocol client

struct Reply {
  bool ok = false;
  std::string meta;  // status line after "OK <n> "
  std::string body;
  std::string error;
};

/// Sends one framed request and reads one framed response.  With
/// \p passes, the PASS progress lines an OPTIMIZE streams ahead of its
/// final frame are collected there.
Reply transact(std::ostream& out, std::istream& in, const std::string& line,
               const std::string& body = std::string(),
               std::vector<route::OptimizePassStats>* passes = nullptr) {
  Reply r;
  out << line << '\n' << body;
  out.flush();
  std::string status;
  for (;;) {
    if (!std::getline(in, status)) {
      r.error = "connection closed before response";
      return r;
    }
    if (!status.empty() && status.back() == '\r') status.pop_back();
    if (passes == nullptr || status.rfind("PASS ", 0) != 0) break;
    route::OptimizePassStats p;
    unsigned long long wl = 0, of = 0;
    std::size_t pass = 0;
    if (std::sscanf(status.c_str(), "PASS %zu wirelength=%llu overflow=%llu",
                    &pass, &wl, &of) != 3) {
      r.error = "malformed PASS line: " + status;
      return r;
    }
    p.pass = pass;
    p.wirelength = static_cast<geom::Cost>(wl);
    p.overflow = static_cast<std::size_t>(of);
    passes->push_back(p);
  }
  std::istringstream is(status);
  std::string kw;
  is >> kw;
  if (kw == "ERR") {
    std::getline(is, r.error);
    return r;
  }
  if (kw != "OK") {
    r.error = "malformed status line: " + status;
    return r;
  }
  std::size_t nbytes = 0;
  if (!(is >> nbytes)) {
    r.error = "missing body byte count: " + status;
    return r;
  }
  std::getline(is >> std::ws, r.meta);
  r.body.resize(nbytes);
  in.read(r.body.data(), static_cast<std::streamsize>(nbytes));
  if (static_cast<std::size_t>(in.gcount()) != nbytes) {
    r.error = "truncated response body";
    return r;
  }
  r.ok = true;
  return r;
}

/// Pulls `key=value` out of a response meta string; -1 when absent or not
/// numeric.  Values may be non-numeric (the session key), so everything is
/// scanned as tokens and only the requested one is converted.
long long meta_value(const std::string& meta, const std::string& key) {
  std::istringstream is(meta);
  std::string tok;
  while (is >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || tok.compare(0, eq, key) != 0) continue;
    try {
      return std::stoll(tok.substr(eq + 1));
    } catch (const std::exception&) {
      return -1;
    }
  }
  return -1;
}

/// Raw value of `key=` in a meta string ("" when absent) — for the
/// non-numeric values (session key, pin handle) meta_value cannot carry.
std::string meta_token(const std::string& meta, const std::string& key) {
  std::istringstream is(meta);
  std::string tok;
  while (is >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq != std::string::npos && tok.compare(0, eq, key) == 0) {
      return tok.substr(eq + 1);
    }
  }
  return std::string();
}

/// Cross-checks an OPTIMIZE reply against the in-process reference run:
/// one PASS line per recorded pass, values exact and non-increasing, final
/// dump parsing back to the reference result.  Empty string = good.
std::string check_optimize(const Reply& r,
                           const std::vector<route::OptimizePassStats>& passes,
                           const layout::Layout& lay,
                           const route::OptimizeReport& want) {
  if (!r.ok) return "OPTIMIZE: " + r.error;
  if (passes.empty()) return "OPTIMIZE: no PASS lines streamed";
  if (passes.size() != want.passes.size()) {
    return "OPTIMIZE: streamed " + std::to_string(passes.size()) +
           " passes, reference ran " + std::to_string(want.passes.size());
  }
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (passes[i].pass != i + 1 ||
        passes[i].wirelength != want.passes[i].wirelength ||
        passes[i].overflow != want.passes[i].overflow) {
      return "OPTIMIZE: PASS " + std::to_string(i + 1) +
             " mismatch vs reference";
    }
    if (i > 0 && (passes[i].wirelength > passes[i - 1].wirelength ||
                  passes[i].overflow > passes[i - 1].overflow)) {
      return "OPTIMIZE: pass curve not non-increasing";
    }
  }
  try {
    const route::NetlistResult parsed = io::read_routes_string(r.body, lay);
    if (parsed.total_wirelength != want.result.total_wirelength ||
        parsed.routed != want.result.routed) {
      return "OPTIMIZE: final dump mismatch vs reference";
    }
  } catch (const std::exception& e) {
    return std::string("OPTIMIZE: dump unparsable: ") + e.what();
  }
  return std::string();
}

/// Cross-checks a DETAIL/VERIFY reply against an in-process stage run over
/// the reference route: the reply meta must carry the stage's own meta and
/// the body must match byte-for-byte.  Empty string = good.
std::string check_stage(const Reply& r, pipeline::StageKind kind,
                        const layout::Layout& lay,
                        const route::NetlistResult& reference) {
  const std::string name{pipeline::to_string(kind)};
  if (!r.ok) return name + ": " + r.error;
  route::SearchEnvironment env(lay);
  pipeline::StageOptions sopts;
  sopts.kind = kind;
  const pipeline::StageContext ctx{lay, env, reference, nullptr, {}};
  const pipeline::StageOutcome want = pipeline::run_stage(ctx, sopts);
  if (!want.result) return name + ": reference stage did not complete";
  const std::string prefix = "stage=" + name + " cached=";
  if (r.meta.rfind(prefix, 0) != 0) {
    return name + ": meta missing '" + prefix + "': " + r.meta;
  }
  if (!want.result->meta.empty() &&
      r.meta.find(want.result->meta) == std::string::npos) {
    return name + ": meta mismatch (want '" + want.result->meta + "', got '" +
           r.meta + "')";
  }
  if (r.body != want.result->body) return name + ": body mismatch";
  return std::string();
}

// ------------------------------------------------------------ client session

/// One client's tally: one ok or bad per checked reply, the first failure,
/// and every round trip's latency for the tables and the STATS audit.
struct ClientResult {
  std::size_t ok = 0;
  std::size_t bad = 0;
  std::vector<std::pair<std::string, double>> verb_us;  ///< (verb, us)
  std::string first_error;

  void check(bool good, const std::string& why) {
    if (good) {
      ++ok;
      return;
    }
    ++bad;
    if (first_error.empty()) first_error = why;
  }
};

/// The client conversation every transport runs: open the session twice,
/// ROUTE --requests times, then the mode's closing checks.  Client \p c of
/// a --gen run synthesizes seed cfg.seed + c.  Sends no QUIT: the closing
/// exchange owns the end of the connection.
ClientResult run_client(std::istream& in, std::ostream& out, const Config& cfg,
                        const Workload& shared, std::size_t c) {
  ClientResult res;
  const auto timed = [&](const std::string& verb, const std::string& line,
                         const std::string& body = std::string(),
                         std::vector<route::OptimizePassStats>* passes =
                             nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    Reply r = transact(out, in, line, body, passes);
    res.verb_us.emplace_back(verb,
                             std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
    return r;
  };
  std::optional<Workload> own;
  const Workload& w =
      cfg.gen ? own.emplace(make_workload(cfg, cfg.seed + c)) : shared;

  // The second open must dedup into the first (no rebuild server-side).
  // The first must miss wherever no other client can have opened the
  // session: every GEN (each client has its own seed), LOAD with one
  // client.
  const std::string open_verb = cfg.gen ? "GEN" : "LOAD";
  const bool exclusive = cfg.gen || cfg.clients == 1;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Reply r =
        cfg.gen ? timed(open_verb, gen_command(cfg, cfg.seed + c))
                : timed(open_verb, "LOAD " + std::to_string(w.text.size()),
                        w.text);
    if (!r.ok) {
      res.check(false, open_verb + ": " + r.error);
      return res;
    }
    if (cfg.gen && meta_token(r.meta, "session") != w.key) {
      res.check(false, "GEN: session key mismatch vs client-side generation");
      return res;
    }
    const long long cached = meta_value(r.meta, "cached");
    res.check(attempt == 1 ? cached == 1 : !exclusive || cached == 0,
              open_verb + " attempt " + std::to_string(attempt) +
                  ": unexpected cached=" + std::to_string(cached));
  }

  const std::string route_line = "ROUTE " + w.key;
  for (std::size_t q = 0; q < cfg.requests; ++q) {
    const Reply r = timed("ROUTE", route_line);
    if (!r.ok) {
      res.check(false, "ROUTE: " + r.error);
      continue;
    }
    // Round trip: the dump must parse against the layout and reproduce
    // the in-process reference exactly, and so must the meta.
    try {
      const route::NetlistResult parsed =
          io::read_routes_string(r.body, w.lay);
      res.check(parsed.total_wirelength == w.route.total_wirelength &&
                    parsed.routed == w.route.routed &&
                    meta_value(r.meta, "wirelength") ==
                        static_cast<long long>(w.route.total_wirelength),
                "ROUTE result mismatch vs reference");
    } catch (const std::exception& e) {
      res.check(false, std::string("ROUTE dump unparsable: ") + e.what());
    }
  }

  if (cfg.gen) {
    for (const pipeline::StageKind kind :
         {pipeline::StageKind::kDetail, pipeline::StageKind::kVerify}) {
      const std::string verb =
          kind == pipeline::StageKind::kDetail ? "DETAIL" : "VERIFY";
      const std::string err =
          check_stage(timed(verb, verb + " " + w.key), kind, w.lay, w.route);
      res.check(err.empty(), err);
    }
  } else if (!w.reroute_line.empty()) {
    const Reply r = timed("REROUTE", w.reroute_line);
    res.check(r.ok && r.body == w.reroute_body,
              r.ok ? "REROUTE dump mismatch vs reference"
                   : "REROUTE: " + r.error);
  }
  if (w.optimize) {
    std::vector<route::OptimizePassStats> passes;
    const Reply r = timed("OPTIMIZE", "OPTIMIZE " + w.key, "", &passes);
    const std::string err = check_optimize(r, passes, w.lay, *w.optimize);
    res.check(err.empty(), err);
  }
  return res;
}

// ------------------------------------------------------------ forked server

struct Child {
  pid_t pid = -1;
  int read_fd = -1;        // socket/pipe: responses arrive here
  int write_fd = -1;       // socket/pipe: requests go here
  std::uint16_t port = 0;  // tcp: the daemon's listening port
};

/// Forks \p cfg.server speaking over \p transport, with \p extra appended
/// to its argv.  socket: one socketpair end, served as --fd 3.  pipe: the
/// daemon's stdin/stdout.  tcp: --listen 0, the bound port parsed from the
/// stdout banner ("gcr_serve: listening on 127.0.0.1:<port>").  Returns
/// pid -1 on failure.
Child spawn_server(const Config& cfg, Transport transport,
                   const std::vector<std::string>& extra = {}) {
  std::vector<std::string> args{cfg.server, "--workers",
                                std::to_string(cfg.workers)};
  if (transport == Transport::kSocket) args.insert(args.end(), {"--fd", "3"});
  if (transport == Transport::kTcp) args.insert(args.end(), {"--listen", "0"});
  if (cfg.gen) {
    // Distinct per-client seeds mean distinct sessions; the cache must
    // hold them all or mid-run eviction would fail later ROUTEs.
    args.insert(args.end(),
                {"--cache",
                 std::to_string(std::max<std::size_t>(cfg.clients * 2, 8))});
  }
  args.insert(args.end(), extra.begin(), extra.end());

  // `from` carries the daemon's output (replies, or the tcp banner) and
  // `to` its stdin; a socketpair carries both ways.
  int from[2] = {-1, -1};
  int to[2] = {-1, -1};
  Child child;
  if ((transport == Transport::kSocket
           ? ::socketpair(AF_UNIX, SOCK_STREAM, 0, from)
           : ::pipe(from)) != 0) {
    return child;
  }
  if (transport == Transport::kPipe && ::pipe(to) != 0) {
    ::close(from[0]);
    ::close(from[1]);
    return child;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(from[0]);
    if (transport == Transport::kSocket) {
      if (::dup2(from[1], 3) < 0) _exit(127);
      if (from[1] != 3) ::close(from[1]);
    } else {
      ::dup2(from[1], 1);
      ::close(from[1]);
      if (to[0] >= 0) {
        ::dup2(to[0], 0);
        ::close(to[0]);
        ::close(to[1]);
      }
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(from[1]);
  if (to[0] >= 0) ::close(to[0]);
  if (pid < 0) {
    ::close(from[0]);
    if (to[1] >= 0) ::close(to[1]);
    return child;
  }
  if (transport != Transport::kTcp) {
    child.pid = pid;
    child.read_fd = from[0];
    child.write_fd = transport == Transport::kPipe ? to[1] : from[0];
    return child;
  }
  std::string banner;
  char c = 0;
  while (banner.find('\n') == std::string::npos &&
         ::read(from[0], &c, 1) == 1) {
    banner.push_back(c);
  }
  ::close(from[0]);
  const std::size_t colon = banner.rfind(':');
  if (colon != std::string::npos) {
    const long port = std::strtol(banner.c_str() + colon + 1, nullptr, 10);
    if (port > 0 && port <= 65535) {
      child.pid = pid;
      child.port = static_cast<std::uint16_t>(port);
      return child;
    }
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return child;
}

/// Waits for a server and reports whether it exited 0.
bool reap(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// SIGINTs a server and reports whether it drained and exited cleanly.
bool drain_server(pid_t pid) {
  ::kill(pid, SIGINT);
  return reap(pid);
}

/// Nearest-rank percentile of an (unsorted) latency sample, microseconds:
/// the ceil(q/100 * N)-th smallest value.
double percentile_us(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto nth = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[nth == 0 ? 0 : std::min(v.size(), nth) - 1];
}

/// The closing exchange: fetches STATS + TRACE over \p in / \p out and
/// sends QUIT, prints STATS, cross-checks the server's counters against the
/// clients' observations and, with --stats-out, writes the combined JSON
/// audit.  Returns the number of failures.
int close_exchange(const Config& cfg, std::istream& in, std::ostream& out,
                   std::map<std::string, std::vector<double>>& verb_lat,
                   std::size_t client_ok, std::size_t client_bad) {
  const Reply stats = transact(out, in, "STATS");
  const Reply trace = transact(out, in, "TRACE");
  const Reply bye = transact(out, in, "QUIT");
  if (!stats.ok || !trace.ok || !bye.ok) {
    std::fprintf(stderr, "closing exchange failed (%s%s%s)\n",
                 stats.error.c_str(), trace.error.c_str(), bye.error.c_str());
    return 1;
  }
  std::fputs(stats.body.c_str(), stdout);

  // `<key> <value>` per line, every value numeric.
  std::map<std::string, long long> server;
  {
    std::istringstream is(stats.body);
    std::string k;
    long long v = 0;
    while (is >> k >> v) server[k] = v;
  }
  const auto counter = [&server](const char* key) {
    const auto it = server.find(key);
    return it == server.end() ? -1 : it->second;
  };

  int failures = 0;
  // Counter conservation: every admitted request ended in exactly one
  // terminal state.  The closing exchange's own STATS/TRACE are answered
  // inline (never submitted), so the equality is exact even now.
  const long long submitted = counter("requests_submitted");
  const long long terminal =
      counter("requests_ok") + counter("requests_rejected") +
      counter("requests_expired") + counter("requests_cancelled") +
      counter("requests_not_found") + counter("requests_errored");
  if (submitted < 0 || submitted != terminal) {
    std::fprintf(stderr,
                 "stats audit: counter conservation violated "
                 "(submitted=%lld, terminal sum=%lld)\n",
                 submitted, terminal);
    ++failures;
  }
  // Per-verb counts: the server's ROUTE shard must account for at least
  // every ROUTE round trip a client completed (crashed clients may have
  // sent fewer, never more).
  const auto check_verb = [&](const char* verb, const char* stat_key) {
    const auto it = verb_lat.find(verb);
    const long long sent =
        it == verb_lat.end() ? 0 : static_cast<long long>(it->second.size());
    if (counter(stat_key) < sent) {
      std::fprintf(stderr, "stats audit: %s %lld < %lld %s round trips\n",
                   stat_key, counter(stat_key), sent, verb);
      ++failures;
    }
  };
  check_verb("ROUTE", "verb_route_count");
  check_verb("REROUTE", "verb_reroute_count");
  check_verb("OPTIMIZE", "verb_optimize_count");
  check_verb("GEN", "verb_gen_count");
  if (cfg.stats_out.empty()) return failures;

  std::ofstream os(cfg.stats_out);
  if (!os) {
    std::fprintf(stderr, "stats audit: cannot write %s\n",
                 cfg.stats_out.c_str());
    return failures + 1;
  }
  os << "{\n  \"server_stats\": {";
  bool first = true;
  for (const auto& [k, v] : server) {
    os << (first ? "\n" : ",\n") << "    \"" << k << "\": " << v;
    first = false;
  }
  os << "\n  },\n  \"trace\": [";
  {
    std::istringstream is(trace.body);
    std::string line;
    first = true;
    while (std::getline(is, line)) {
      os << (first ? "\n" : ",\n") << "    \"" << line << '"';
      first = false;
    }
  }
  os << "\n  ],\n  \"client\": {\n    \"connections\": " << cfg.clients
     << ",\n    \"ok\": " << client_ok << ",\n    \"failed\": " << client_bad
     << ",\n    \"verbs\": {";
  first = true;
  for (auto& [verb, v] : verb_lat) {
    const double mx = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    os << (first ? "\n" : ",\n") << "      \"" << verb
       << "\": {\"count\": " << v.size() << ", \"p50_us\": "
       << static_cast<long long>(percentile_us(v, 50)) << ", \"p95_us\": "
       << static_cast<long long>(percentile_us(v, 95)) << ", \"max_us\": "
       << static_cast<long long>(mx) << '}';
    first = false;
  }
  os << "\n    }\n  },\n  \"conservation\": {\"submitted\": " << submitted
     << ", \"terminal_sum\": " << terminal
     << ", \"holds\": " << (submitted == terminal ? "true" : "false")
     << "}\n}\n";
  std::printf("stats audit written to %s (%d cross-check failure%s)\n",
              cfg.stats_out.c_str(), failures, failures == 1 ? "" : "s");
  return failures;
}

/// Prints the clients' tallies — totals, per-client ROUTE latency, an
/// aggregate ROUTE histogram, per-verb round-trip latency — and returns
/// the per-verb samples for the STATS audit.
std::map<std::string, std::vector<double>> report_clients(
    const Config& cfg, const std::vector<ClientResult>& results, double secs,
    std::size_t ok, std::size_t bad) {
  std::printf("%zu round trips (%zu connections x %zu ROUTEs), %.3f s, "
              "%.1f req/s, %zu mismatched/failed\n",
              ok + bad, cfg.clients, cfg.requests, secs,
              secs > 0 ? static_cast<double>(ok + bad) / secs : 0.0, bad);

  // Per-client latency: every connection must see service, not just the
  // aggregate — a starved client hides inside a global histogram.
  std::map<std::string, std::vector<double>> verb_lat;
  std::vector<double> all_us;
  std::printf("  %-8s %8s %10s %10s %10s\n", "client", "reqs", "p50_us",
              "p95_us", "max_us");
  for (std::size_t c = 0; c < results.size(); ++c) {
    std::vector<double> v;
    for (const auto& [verb, us] : results[c].verb_us) {
      verb_lat[verb].push_back(us);
      if (verb == "ROUTE") v.push_back(us);
    }
    all_us.insert(all_us.end(), v.begin(), v.end());
    const double mx = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    std::printf("  %-8zu %8zu %10.0f %10.0f %10.0f\n", c, v.size(),
                percentile_us(v, 50), percentile_us(v, 95), mx);
    if (!results[c].first_error.empty()) {
      std::printf("           first error: %s\n",
                  results[c].first_error.c_str());
    }
  }
  // Aggregate ROUTE histogram in power-of-two microsecond buckets.
  std::vector<std::size_t> buckets;
  for (const double us : all_us) {
    std::size_t b = 0;
    while ((1u << b) < us && b < 31) ++b;
    if (buckets.size() <= b) buckets.resize(b + 1, 0);
    ++buckets[b];
  }
  if (!buckets.empty()) {
    std::printf("  latency histogram (us, all clients):\n");
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b] == 0) continue;
      std::printf("    <= %8u : %zu\n", 1u << b, buckets[b]);
    }
  }
  // Per-verb latency across all clients: STATS shards these server-side,
  // and this table is the client-side view of the same split.
  std::printf("  per-verb round-trip latency (all clients):\n");
  std::printf("    %-10s %8s %10s %10s %10s\n", "verb", "count", "p50_us",
              "p95_us", "max_us");
  for (auto& [verb, v] : verb_lat) {
    const double mx = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    std::printf("    %-10s %8zu %10.0f %10.0f %10.0f\n", verb.c_str(),
                v.size(), percentile_us(v, 50), percentile_us(v, 95), mx);
  }
  return verb_lat;
}

/// Closed-loop mode: spawns the daemon, runs one client session per
/// connection (--clients threads over tcp, the one connection otherwise),
/// then the closing exchange; the daemon must exit 0 afterwards.
int run_sessions(const Config& cfg, const Workload& shared) {
  const Child child = spawn_server(cfg, cfg.transport);
  if (child.pid < 0) {
    std::fprintf(stderr, "loadgen: cannot spawn %s\n", cfg.server.c_str());
    return 1;
  }
  const bool tcp = cfg.transport == Transport::kTcp;
  std::printf("spawned %s (pid %d, %s transport", cfg.server.c_str(),
              static_cast<int>(child.pid),
              tcp ? "tcp" : cfg.transport == Transport::kPipe ? "pipe"
                                                              : "socketpair");
  if (tcp) std::printf(", 127.0.0.1:%u", static_cast<unsigned>(child.port));
  std::printf(")\n");

  std::vector<ClientResult> results(cfg.clients);
  std::optional<serve::FdTransport> conn;  // socket/pipe: the one connection
  const auto t0 = std::chrono::steady_clock::now();
  if (tcp) {
    std::vector<std::thread> threads;
    threads.reserve(cfg.clients);
    for (std::size_t c = 0; c < cfg.clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          const net::ScopedFd sock = net::tcp_connect(child.port);
          serve::FdTransport transport(sock.get());
          results[c] =
              run_client(transport.in(), transport.out(), cfg, shared, c);
        } catch (const std::exception& e) {
          results[c].check(false, e.what());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  } else {
    conn.emplace(child.read_fd, child.write_fd);
    results[0] = run_client(conn->in(), conn->out(), cfg, shared, 0);
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  std::size_t ok = 0, bad = 0;
  for (const ClientResult& r : results) {
    ok += r.ok;
    bad += r.bad;
  }
  std::map<std::string, std::vector<double>> verb_lat =
      report_clients(cfg, results, secs, ok, bad);
  int failures = static_cast<int>(bad);

  // The closing exchange rides the one connection, or over tcp a fresh
  // control connection.
  net::ScopedFd control;
  try {
    if (tcp) {
      control = net::tcp_connect(child.port);
      conn.emplace(control.get());
    }
    failures += close_exchange(cfg, conn->in(), conn->out(), verb_lat, ok, bad);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "control connection: %s\n", e.what());
    ++failures;
  }
  conn.reset();
  // socket/pipe: EOF after QUIT ends the daemon; tcp: a SIGINT drain.
  if (!tcp) {
    ::close(child.write_fd);
    if (child.read_fd != child.write_fd) ::close(child.read_fd);
  }
  if (!(tcp ? drain_server(child.pid) : reap(child.pid))) {
    std::fprintf(stderr, "server did not exit cleanly\n");
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------------------------ open loop

#if GCR_LOADGEN_HAVE_EPOLL

/// One pipelined open-loop connection: requests are written on the pacer's
/// schedule regardless of whether earlier responses have arrived, and the
/// framed replies are matched FIFO against their send timestamps.
struct OpenConn {
  net::ScopedFd fd;
  std::string outbuf;                                   // unwritten requests
  std::string inbuf;                                    // unparsed reply bytes
  std::size_t body_left = 0;                            // of current reply
  std::deque<std::chrono::steady_clock::time_point> inflight;
  bool out_armed = false;  // EPOLLOUT currently requested
  bool dead = false;
};

/// One offered-load step's measurements.
struct OpenStep {
  double offered = 0;    // target req/s
  double achieved = 0;   // sent / elapsed
  std::size_t sent = 0;
  std::size_t completed = 0;
  std::size_t errors = 0;  // ERR replies + dead connections
  double p50_us = 0;
  double p99_us = 0;
};

/// Drains fully framed replies out of \p oc.inbuf, recording one latency
/// sample per completed reply.  ERR replies complete their request too —
/// the pacer only cares that the response arrived.
void parse_replies(OpenConn& oc, std::vector<double>& lat_us,
                   std::size_t* completed, std::size_t* errors) {
  for (;;) {
    if (oc.body_left > 0) {
      const std::size_t take = std::min(oc.body_left, oc.inbuf.size());
      oc.inbuf.erase(0, take);
      oc.body_left -= take;
      if (oc.body_left > 0) return;  // need more bytes
      continue;                      // body done; next status line
    }
    const std::size_t nl = oc.inbuf.find('\n');
    if (nl == std::string::npos) return;
    const std::string status = oc.inbuf.substr(0, nl);
    oc.inbuf.erase(0, nl + 1);
    std::istringstream is(status);
    std::string kw;
    std::size_t nbytes = 0;
    is >> kw;
    if (kw == "OK") is >> nbytes;
    oc.body_left = nbytes;
    if (kw == "ERR") ++*errors;
    if (!oc.inflight.empty()) {
      lat_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() -
                           oc.inflight.front())
                           .count());
      oc.inflight.pop_front();
      ++*completed;
    }
  }
}

/// Runs one offered-load step: \p total requests paced at \p offered req/s
/// round-robin over \p conns pipelined connections, all sending
/// `ROUTE <key>` against the preloaded shared session.
OpenStep run_open_step(std::uint16_t port, const std::string& request,
                       double offered, double step_s, std::size_t nconns) {
  OpenStep step;
  step.offered = offered;
  const auto total = static_cast<std::size_t>(offered * step_s);

  std::vector<OpenConn> conns(nconns);
  const net::ScopedFd ep(::epoll_create1(EPOLL_CLOEXEC));
  for (std::size_t i = 0; i < nconns; ++i) {
    conns[i].fd = net::tcp_connect(port);
    const int flags = ::fcntl(conns[i].fd.get(), F_GETFL, 0);
    ::fcntl(conns[i].fd.get(), F_SETFL, flags | O_NONBLOCK);
    ::epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(ep.get(), EPOLL_CTL_ADD, conns[i].fd.get(), &ev);
  }
  const auto rearm = [&](std::size_t i, bool want_out) {
    if (conns[i].out_armed == want_out) return;
    conns[i].out_armed = want_out;
    ::epoll_event ev{};
    ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
    ev.data.u64 = i;
    ::epoll_ctl(ep.get(), EPOLL_CTL_MOD, conns[i].fd.get(), &ev);
  };
  const auto flush = [&](std::size_t i) {
    OpenConn& oc = conns[i];
    while (!oc.outbuf.empty() && !oc.dead) {
      const ssize_t n =
          ::send(oc.fd.get(), oc.outbuf.data(), oc.outbuf.size(), 0);
      if (n > 0) {
        oc.outbuf.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        oc.dead = true;
        step.errors += oc.inflight.size();
        oc.inflight.clear();
      }
    }
    rearm(i, !oc.outbuf.empty() && !oc.dead);
  };

  std::vector<double> lat_us;
  lat_us.reserve(total);
  const auto t0 = std::chrono::steady_clock::now();
  // Grace period past the nominal step for the tail of responses.
  const auto deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(step_s + 10.0));
  std::size_t next = 0;  // next request index to send
  std::array<::epoll_event, 64> events{};
  while (step.completed + step.errors < total) {
    const auto now = std::chrono::steady_clock::now();
    if (now > deadline) break;
    // Open loop: every request whose schedule slot has passed goes out
    // now, response progress notwithstanding.
    while (next < total &&
           now >= t0 + std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(next) / offered))) {
      const std::size_t i = next % nconns;
      if (!conns[i].dead) {
        conns[i].outbuf += request;
        conns[i].inflight.push_back(std::chrono::steady_clock::now());
        ++step.sent;
        flush(i);
      } else {
        ++step.errors;  // the slot still counts against the step
      }
      ++next;
    }
    int timeout_ms = 50;
    if (next < total) {
      const auto next_at =
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(next) /
                                                 offered));
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          next_at - std::chrono::steady_clock::now());
      timeout_ms = static_cast<int>(
          std::clamp<long long>(wait.count(), 0, 50));
    }
    const int nready = ::epoll_wait(ep.get(), events.data(),
                                    static_cast<int>(events.size()),
                                    timeout_ms);
    for (int e = 0; e < nready; ++e) {
      const std::size_t i = events[static_cast<std::size_t>(e)].data.u64;
      const std::uint32_t what = events[static_cast<std::size_t>(e)].events;
      OpenConn& oc = conns[i];
      if (oc.dead) continue;
      if ((what & EPOLLOUT) != 0u) flush(i);
      if ((what & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0u) {
        char buf[65536];
        for (;;) {
          const ssize_t n = ::recv(oc.fd.get(), buf, sizeof buf, 0);
          if (n > 0) {
            oc.inbuf.append(buf, static_cast<std::size_t>(n));
          } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            oc.dead = true;
            step.errors += oc.inflight.size();
            oc.inflight.clear();
            break;
          }
        }
        parse_replies(oc, lat_us, &step.completed, &step.errors);
      }
    }
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  step.achieved = secs > 0 ? static_cast<double>(step.sent) / secs : 0.0;
  step.p50_us = percentile_us(lat_us, 50);
  step.p99_us = percentile_us(lat_us, 99);
  return step;
}

/// Open-loop mode: preload one shared session, then sweep the offered-load
/// steps, printing the p99-vs-offered-load curve and optionally archiving
/// it as a JSON artifact (the CI saturation plot).
int run_open_loop(const Config& cfg, const std::string& layout_text) {
  // The daemon's default connection cap (256) would refuse most of a large
  // --conns sweep.
  const Child child = spawn_server(cfg, Transport::kTcp,
                                   {"--max-conns", std::to_string(cfg.conns)});
  if (child.pid < 0) {
    std::fprintf(stderr, "loadgen: cannot spawn %s --listen 0\n",
                 cfg.server.c_str());
    return 1;
  }
  std::printf("spawned %s (pid %d) on 127.0.0.1:%u\n", cfg.server.c_str(),
              static_cast<int>(child.pid),
              static_cast<unsigned>(child.port));

  int failures = 0;
  std::vector<OpenStep> steps;
  try {
    const std::string key = serve::SessionCache::content_key(layout_text);
    {
      // Warm the shared session once so every paced ROUTE is a cache hit —
      // the curve measures dispatch, not repeated layout parsing.
      const net::ScopedFd sock = net::tcp_connect(child.port);
      serve::FdTransport transport(sock.get());
      const Reply loaded =
          transact(transport.out(), transport.in(),
                   "LOAD " + std::to_string(layout_text.size()), layout_text);
      transact(transport.out(), transport.in(), "QUIT");
      if (!loaded.ok) {
        std::fprintf(stderr, "open-loop: LOAD failed: %s\n",
                     loaded.error.c_str());
        ::kill(child.pid, SIGKILL);
        ::waitpid(child.pid, nullptr, 0);
        return 1;
      }
    }
    const std::string request = "ROUTE " + key + "\n";

    std::istringstream is(cfg.offered);
    std::string tok;
    std::printf("  %10s %10s %8s %9s %7s %10s %10s\n", "offered", "achieved",
                "sent", "completed", "errors", "p50_us", "p99_us");
    while (std::getline(is, tok, ',')) {
      const double offered = std::strtod(tok.c_str(), nullptr);
      if (offered <= 0) continue;
      const OpenStep step =
          run_open_step(child.port, request, offered, cfg.step_s, cfg.conns);
      std::printf("  %10.0f %10.1f %8zu %9zu %7zu %10.0f %10.0f\n",
                  step.offered, step.achieved, step.sent, step.completed,
                  step.errors, step.p50_us, step.p99_us);
      // A step that lost responses (beyond ERRs, which complete) means the
      // tail outlived the grace window — saturation is data, losses are not.
      if (step.completed + step.errors < step.sent) ++failures;
      steps.push_back(step);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "open-loop: fatal: %s\n", e.what());
    ++failures;
  }

  if (!cfg.curve_out.empty()) {
    std::ofstream os(cfg.curve_out);
    if (!os) {
      std::fprintf(stderr, "open-loop: cannot write %s\n",
                   cfg.curve_out.c_str());
      ++failures;
    } else {
      os << "{\n  \"connections\": " << cfg.conns
         << ",\n  \"step_s\": " << cfg.step_s << ",\n  \"curve\": [";
      bool first = true;
      for (const OpenStep& s : steps) {
        os << (first ? "\n" : ",\n") << "    {\"offered_rps\": " << s.offered
           << ", \"achieved_rps\": " << s.achieved << ", \"sent\": " << s.sent
           << ", \"completed\": " << s.completed
           << ", \"errors\": " << s.errors << ", \"p50_us\": " << s.p50_us
           << ", \"p99_us\": " << s.p99_us << '}';
        first = false;
      }
      os << "\n  ]\n}\n";
      std::printf("p99-vs-offered-load curve written to %s\n",
                  cfg.curve_out.c_str());
    }
  }

  if (!drain_server(child.pid)) {
    std::fprintf(stderr, "server did not drain cleanly\n");
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

#endif  // GCR_LOADGEN_HAVE_EPOLL

// ------------------------------------------------------------ restart smoke

/// Restart-under-load smoke: proves a pinned session survives a full
/// server restart.  Server 1 (--snapshot-dir) serves HELLO + LOAD + PIN +
/// COMMIT + SAVE; the reference REROUTE answer is recorded *after* the
/// SAVE, so the snapshot captures exactly the pre-REROUTE state that
/// answer was computed from.  A second connection pins and commits a
/// second handle and stays open across the SIGINT, so only the drain-time
/// final save can persist it.  Server 2 starts with --restore-dir:
/// claiming the first handle and repeating the REROUTE must reproduce the
/// recorded body byte-for-byte (timing meta excluded — only
/// routed/failed/wirelength and the dump are compared), and claiming the
/// second must report the same commit count.
int run_restart(const Config& cfg, const std::string& layout_text,
                const layout::Layout& lay) {
  if (lay.nets().size() < 2) {
    std::fprintf(stderr, "restart smoke needs a workload with >= 2 nets\n");
    return 1;
  }
  std::string all_nets;
  for (const auto& net : lay.nets()) {
    if (!all_nets.empty()) all_nets += ',';
    all_nets += net.name();
  }
  const std::string rip =
      lay.nets()[0].name() + "," + lay.nets()[1].name();

  int failures = 0;
  const auto fail = [&failures](const std::string& why) {
    std::fprintf(stderr, "restart smoke: %s\n", why.c_str());
    ++failures;
  };

  std::string handle;
  std::string want_body;
  long long want_routed = -1, want_failed = -1, want_wirelength = -1;
  long long committed_at_save = -1;
  std::string held_handle;  // the pin only the final save persists
  long long held_committed = -1;

  // ---- phase 1: pin, commit, save, record the reference answer, drain.
  {
    const Child server = spawn_server(cfg, Transport::kTcp,
                                      {"--snapshot-dir", cfg.restart_dir});
    if (server.pid < 0) {
      std::fprintf(stderr, "loadgen: cannot spawn %s --listen 0\n",
                   cfg.server.c_str());
      return 1;
    }
    std::printf("restart smoke: server 1 (pid %d) on 127.0.0.1:%u\n",
                static_cast<int>(server.pid),
                static_cast<unsigned>(server.port));
    {
      const net::ScopedFd sock = net::tcp_connect(server.port);
      serve::FdTransport transport(sock.get());
      std::istream& in = transport.in();
      std::ostream& out = transport.out();

      const Reply hello = transact(out, in, "HELLO");
      if (!hello.ok) {
        fail("HELLO: " + hello.error);
      } else if (meta_value(hello.meta, "version") != 2) {
        fail("HELLO: unexpected protocol version (" + hello.meta + ")");
      }

      const Reply loaded = transact(
          out, in, "LOAD " + std::to_string(layout_text.size()), layout_text);
      if (!loaded.ok) {
        fail("LOAD: " + loaded.error);
      } else {
        const std::string key = meta_token(loaded.meta, "session");
        const Reply pinned = transact(out, in, "PIN " + key);
        if (!pinned.ok) {
          fail("PIN: " + pinned.error);
        } else {
          handle = meta_token(pinned.meta, "pin");
          const Reply committed =
              transact(out, in, "COMMIT " + handle + " nets=" + all_nets);
          if (!committed.ok) {
            fail("COMMIT: " + committed.error);
          } else {
            committed_at_save = meta_value(committed.meta, "committed");
            const Reply saved =
                transact(out, in, "SAVE " + handle + " restart-smoke.snap");
            if (!saved.ok) {
              fail("SAVE: " + saved.error);
            } else if (meta_value(saved.meta, "bytes") <= 0) {
              fail("SAVE: empty snapshot (" + saved.meta + ")");
            }
            const Reply rr =
                transact(out, in, "REROUTE " + handle + " nets=" + rip);
            if (!rr.ok) {
              fail("REROUTE (live): " + rr.error);
            } else {
              want_body = rr.body;
              want_routed = meta_value(rr.meta, "routed");
              want_failed = meta_value(rr.meta, "failed");
              want_wirelength = meta_value(rr.meta, "wirelength");
            }
          }
        }
      }
      transact(out, in, "QUIT");
    }
    // Open until after the drain: the pin is still owned when SIGINT lands.
    const net::ScopedFd held_sock = net::tcp_connect(server.port);
    serve::FdTransport held(held_sock.get());
    const Reply loaded = transact(held.out(), held.in(),
                                  "LOAD " + std::to_string(layout_text.size()),
                                  layout_text);
    const Reply pinned = transact(
        held.out(), held.in(), "PIN " + meta_token(loaded.meta, "session"));
    held_handle = meta_token(pinned.meta, "pin");
    const Reply committed = transact(held.out(), held.in(),
                                     "COMMIT " + held_handle + " nets=" + rip);
    if (!loaded.ok || !pinned.ok || !committed.ok) {
      fail("second pin: " + loaded.error + pinned.error + committed.error);
    }
    held_committed = meta_value(committed.meta, "committed");
    if (!drain_server(server.pid)) fail("server 1 did not drain cleanly");
  }
  if (failures > 0 || handle.empty()) return 1;

  // ---- phase 2: restore, claim the handle, repeat the REROUTE, compare.
  {
    const Child server = spawn_server(cfg, Transport::kTcp,
                                      {"--restore-dir", cfg.restart_dir});
    if (server.pid < 0) {
      std::fprintf(stderr, "loadgen: cannot respawn %s --listen 0\n",
                   cfg.server.c_str());
      return 1;
    }
    std::printf("restart smoke: server 2 (pid %d) on 127.0.0.1:%u\n",
                static_cast<int>(server.pid),
                static_cast<unsigned>(server.port));
    {
      const net::ScopedFd sock = net::tcp_connect(server.port);
      serve::FdTransport transport(sock.get());
      std::istream& in = transport.in();
      std::ostream& out = transport.out();

      const Reply claimed = transact(out, in, "PIN " + handle);
      if (!claimed.ok) {
        fail("PIN (restored): " + claimed.error);
      } else if (meta_value(claimed.meta, "committed") != committed_at_save) {
        fail("restored pin committed-count mismatch (" + claimed.meta + ")");
      }
      const Reply rr = transact(out, in, "REROUTE " + handle + " nets=" + rip);
      if (!rr.ok) {
        fail("REROUTE (restored): " + rr.error);
      } else {
        if (rr.body != want_body) fail("restored REROUTE body differs");
        if (meta_value(rr.meta, "routed") != want_routed ||
            meta_value(rr.meta, "failed") != want_failed ||
            meta_value(rr.meta, "wirelength") != want_wirelength) {
          fail("restored REROUTE counters differ (" + rr.meta + ")");
        }
      }
      const Reply held = transact(out, in, "PIN " + held_handle);
      if (!held.ok) {
        fail("PIN (final save of " + held_handle + "): " + held.error);
      } else if (meta_value(held.meta, "committed") != held_committed) {
        fail("final-saved pin committed-count mismatch (" + held.meta + ")");
      }
      transact(out, in, "QUIT");
    }
    if (!drain_server(server.pid)) fail("server 2 did not drain cleanly");
  }
  if (failures == 0) {
    std::printf("restart smoke: pinned session survived restart, "
                "REROUTE byte-identical (%lld routed, wirelength %lld); "
                "final save kept %s (%lld committed)\n",
                want_routed, want_wirelength, held_handle.c_str(),
                held_committed);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto number = [&](std::size_t limit, std::size_t* out) {
      if (v == nullptr) return false;
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(v, &end, 10);
      if (end == v || *end != '\0' || v[0] == '-' || parsed > limit) {
        return false;
      }
      *out = static_cast<std::size_t>(parsed);
      ++i;
      return true;
    };
    std::size_t n = 0;
    if (arg == "--server" && v != nullptr) {
      cfg.server = v;
      ++i;
    } else if (arg == "--transport" && v != nullptr) {
      const std::string t = v;
      if (t == "socket") {
        cfg.transport = Transport::kSocket;
      } else if (t == "pipe") {
        cfg.transport = Transport::kPipe;
      } else if (t == "tcp") {
        cfg.transport = Transport::kTcp;
      } else {
        return usage(argv[0]);
      }
      ++i;
    } else if (arg == "--optimize") {
      cfg.optimize = true;
    } else if (arg == "--gen") {
      cfg.gen = true;
    } else if (arg == "--clients" && number(1024, &n)) {
      cfg.clients = std::max<std::size_t>(n, 1);
    } else if (arg == "--requests" && number(1 << 20, &n)) {
      cfg.requests = n;
    } else if (arg == "--workers" && number(1024, &n)) {
      cfg.workers = n;
    } else if (arg == "--open-loop") {
      cfg.open_loop = true;
    } else if (arg == "--offered" && v != nullptr && v[0] != '\0') {
      cfg.offered = v;
      ++i;
    } else if (arg == "--conns" && number(1 << 16, &n)) {
      cfg.conns = std::max<std::size_t>(n, 1);
    } else if (arg == "--step-s" && number(3600, &n)) {
      cfg.step_s = static_cast<double>(std::max<std::size_t>(n, 1));
    } else if (arg == "--curve-out" && v != nullptr && v[0] != '\0') {
      cfg.curve_out = v;
      ++i;
    } else if (arg == "--cells" && number(4096, &n)) {
      cfg.cells = std::max<std::size_t>(n, 2);
    } else if (arg == "--nets" && number(1 << 16, &n)) {
      cfg.nets = n;
    } else if (arg == "--seed" && number(SIZE_MAX, &n)) {
      cfg.seed = n;
    } else if (arg == "--restart-dir" && v != nullptr && v[0] != '\0') {
      cfg.restart_dir = v;
      ++i;
    } else if (arg == "--stats-out" && v != nullptr && v[0] != '\0') {
      cfg.stats_out = v;
      ++i;
    } else {
      return usage(argv[0]);
    }
  }
  if (cfg.server.empty()) {
    std::fprintf(stderr, "--server PATH is required\n");
    return usage(argv[0]);
  }
  if (cfg.clients > 1 && cfg.transport != Transport::kTcp) {
    std::fprintf(stderr, "--clients > 1 needs --transport tcp (socket and "
                 "pipe carry one connection)\n");
    return usage(argv[0]);
  }
  if (cfg.gen && cfg.optimize) {
    // OPTIMIZE cross-checks ride the shared workload; GEN gives every
    // client its own.  Keep the reference bookkeeping simple.
    std::fprintf(stderr, "--gen and --optimize are mutually exclusive\n");
    return usage(argv[0]);
  }
  if (cfg.open_loop && cfg.transport != Transport::kTcp) {
    std::fprintf(stderr, "--open-loop needs --transport tcp\n");
    return usage(argv[0]);
  }

  // A daemon that dies mid-write must fail the run, not kill it.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const Workload shared = make_workload(cfg, cfg.seed);
    std::printf("workload: %zu cells, %zu nets, reference wirelength %lld "
                "(%zu routed, %zu failed)\n",
                shared.lay.cells().size(), shared.lay.nets().size(),
                static_cast<long long>(shared.route.total_wirelength),
                shared.route.routed, shared.route.failed);

    if (!cfg.restart_dir.empty()) {
      return run_restart(cfg, shared.text, shared.lay);
    }
    if (cfg.open_loop) {
#if GCR_LOADGEN_HAVE_EPOLL
      return run_open_loop(cfg, shared.text);
#else
      std::fprintf(stderr, "--open-loop requires Linux epoll\n");
      return 2;
#endif
    }
    return run_sessions(cfg, shared);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen: fatal: %s\n", e.what());
    return 1;
  }
}

#else  // neither unix nor Apple

#include <cstdio>

int main() {
  std::fputs("gcr_loadgen requires a POSIX platform\n", stderr);
  return 1;
}

#endif
