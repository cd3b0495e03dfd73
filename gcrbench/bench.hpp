#pragma once

// Shared types of the gcr benchmark harness.
//
// The harness is one process.  It spawns gcr_serve with a fixed config,
// generates seeded layouts client-side, ships them with LOAD, and drives one
// of three workloads over TCP (client.cpp, workloads.cpp).  With --trace 1 it
// additionally replays the same seeded request stream in-process, timing the
// public entry point of every layer (layers.cpp).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "layout/layout.hpp"
#include "workload/rng.hpp"

namespace gcrbench {

using Clock = std::chrono::steady_clock;
using Rng = std::mt19937_64;

/// Heap allocations made by this process (counting operator new,
/// alloc_count.cpp).  Only meaningful across single-threaded stretches.
extern std::atomic<std::uint64_t> g_heap_allocs;

/// The fixed daemon configuration every workload runs against: 4 workers,
/// one reactor, a 32-session cache, a 1024-job queue (a host stall must
/// show as latency, not as refused requests), default wire halo.
inline constexpr unsigned kDaemonWorkers = 4;
inline constexpr std::size_t kDaemonCache = 32;
inline constexpr std::size_t kDaemonQueue = 1024;
/// Client connections / threads never exceed this (the box's nproc).
inline constexpr std::size_t kMaxClients = 4;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double micros_between(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Uniform draw in [0, n) through the portable sampler (workload/rng.hpp).
[[nodiscard]] inline std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(gcr::workload::bounded_u64(rng, n));
}

/// Nearest-rank percentile (q in [0, 100]) of raw samples.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;  ///< path of the gcr_serve binary
};

/// A generated layout as the client ships it.
struct LayoutCase {
  gcr::layout::Layout lay;
  std::string text;  ///< io::text_format body of LOAD
  std::string key;   ///< content-addressed session key
};

/// What a correct reply to one request looks like: computed in-process
/// before the timed window.
struct Expect {
  enum class Kind { kExact, kStats };
  Kind kind = Kind::kExact;
  /// kExact: the reply body, byte for byte.  (The reference body already
  /// parsed with io::read_routes and passed verify::RouteVerifier, so a
  /// byte-equal reply does too.)
  std::string body;
  /// `key=value` tokens the reply meta must carry.
  std::vector<std::string> meta;
  /// Routing replies (ROUTE / COMMIT / REROUTE) feed the quality metrics.
  bool routing = false;
  /// Independent-mode routing replies feed wl_per_net_dbu.
  bool independent = false;
  std::size_t routed = 0;
  std::size_t failed = 0;
  long long wirelength = 0;
};

/// One request of a stream.  `{pin}` in `line` is replaced at send time by
/// the handle of the connection's pin number `pin`.
struct Request {
  std::string verb;
  std::string line;
  std::string body;  ///< LOAD payload (empty otherwise)
  std::size_t pin = 0;
  std::shared_ptr<const Expect> expect;
};

/// Substitutes the pin handle into \p q's command line.
[[nodiscard]] std::string command_line(const Request& q,
                                       const std::vector<std::string>& pins);

/// A whole seeded workload: layouts to LOAD, per-connection PIN targets,
/// and per-connection request cycles.
struct Workload {
  std::string name;
  std::vector<LayoutCase> layouts;
  /// Per connection: the session keys it PINs during setup.
  std::vector<std::vector<std::string>> pins;
  /// Per connection: the request cycle, repeated until the window closes.
  std::vector<std::vector<Request>> streams;
  bool open_loop = false;
  double offered_rps = 0;       ///< open-loop offered rate
  double open_share = 0;        ///< share of --seconds run open-loop
  double tail_pct = 99;         ///< the percentile lat_tail_ms reports
  /// Target length of one round of the timed window: long enough that the
  /// tail percentile has >= 10 samples beyond it.  Latency percentiles and
  /// req_s come from the best round.
  double round_s = 1;
  unsigned route_threads = 1;   ///< ROUTE threads= knob of the stream
};

/// Builds the named workload from \p seed; throws on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// One round of the timed window.
struct Round {
  std::vector<double> lat_us;
  double req_s = 0;
};

/// Raw measurements of one end-to-end run.
struct RunResult {
  bool ok = true;             ///< no infrastructure failure
  std::string error;
  std::vector<double> setup_s;      ///< one per repeated setup
  std::vector<double> lat_us;       ///< latency samples
  std::vector<double> late_us;      ///< generator lateness samples
  std::vector<double> wire_us;      ///< client RTT - server total_us
  /// Latency samples by verb (the same samples as lat_us).
  std::map<std::string, std::vector<double>> verb_us;
  std::vector<Round> rounds;
  std::size_t attempted = 0;
  std::size_t failed = 0;           ///< ERR, refused, expired, mismatched
  std::size_t nets_attempted = 0;
  std::size_t nets_routed = 0;
  long long indep_wirelength = 0;
  std::size_t indep_routed = 0;
  double rss_mb = 0;
  std::string stats;                ///< final server STATS body
  std::string first_mismatch;
  bool clean_exit = true;
  double steal_pct = 0;             ///< host steal during the window
  std::vector<double> calib_ms;     ///< machine-speed reference, per round
};

[[nodiscard]] RunResult run_end_to_end(const Args& args, const Workload& w);

/// Per-layer replay: appends per_layer metrics; returns false (with \p why)
/// when a deterministic counter differed between replays or the in-process
/// serve replay got a non-OK reply.
bool run_layers(const Workload& w, const RunResult& e2e,
                std::vector<Metric>& out, std::string& why);

/// `key value` lookup in a STATS body (-1 when absent).
[[nodiscard]] double stats_value(const std::string& stats,
                                 const std::string& key);

}  // namespace gcrbench
