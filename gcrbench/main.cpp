// gcrbench — the gcr benchmark harness.
//
//   gcrbench --workload chip_batch|eco_interactive|eco_pinned --seed N
//            --seconds S --trace 0|1 --server PATH/TO/gcr_serve
//
// Runs one workload end to end against a freshly spawned gcr_serve and
// prints every metric by name with its unit, then — as the last line of
// stdout — one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1 (which also replays the workload in-process, layer by layer).
// gcrbench/DESIGN.md documents the workloads and metrics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"

namespace gcrbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace gcrbench

namespace {

using namespace gcrbench;

/// Per-round figures are reported at the best-quartile round: the lower
/// quartile of per-round latencies, the upper quartile of per-round req_s.
/// Host noise (steal, neighbours) only ever adds latency, so the less
/// disturbed rounds estimate the code's own cost best, while a slowdown of
/// the code moves every round; a quartile rather than the single best round
/// keeps one lucky round from deciding.
constexpr double kRoundQuantile = 25;

/// An open-loop run is invalid when the generator could not keep its
/// schedule: half of its requests left more than this after their due time.
/// (Single stalls are no reason: latency runs from the due time, so a late
/// send is charged to the request, not hidden.)
constexpr double kMaxLateP50Us = 1000;

int usage() {
  std::fprintf(stderr,
               "usage: gcrbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --server PATH\n");
  return 2;
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[512];
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), v,
                  ms[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      args.trace = v == "1";
      have_trace = true;
    } else if (k == "--server") {
      args.server = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || args.server.empty() ||
      !have_trace || !(args.seconds > 0)) {
    return usage();
  }

  Workload w;
  const auto t0 = Clock::now();
  try {
    w = make_workload(args.workload, args.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gcrbench: %s\n", e.what());
    return 1;
  }
  const double refs_s = seconds_since(t0);
  const RunResult r = run_end_to_end(args, w);
  if (!r.ok) {
    std::fprintf(stderr, "gcrbench: %s\n", r.error.c_str());
    return 1;
  }

  // Per-round figures; the reported value is their median.
  std::vector<double> p50s, tails, rates;
  std::size_t beyond = static_cast<std::size_t>(-1);
  for (const Round& round : r.rounds) {
    const double tail = percentile(round.lat_us, w.tail_pct);
    std::size_t n = 0;
    for (const double x : round.lat_us) n += x > tail ? 1 : 0;
    beyond = std::min(beyond, n);
    p50s.push_back(percentile(round.lat_us, 50));
    tails.push_back(tail);
    rates.push_back(round.req_s);
  }
  const double err_frac = r.attempted == 0
                              ? 1.0
                              : static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted);
  const std::vector<Metric> e2e = {
      {"setup_s", percentile(r.setup_s, 50), "s"},
      {"req_s", percentile(rates, 100 - kRoundQuantile), "1/s"},
      {"lat_p50_ms", percentile(p50s, kRoundQuantile) / 1000.0, "ms"},
      {"lat_tail_ms", percentile(tails, kRoundQuantile) / 1000.0, "ms"},
      {"ok_frac", 1.0 - err_frac, "ratio"},
      {"nets_routed_frac",
       r.nets_attempted == 0 ? 0.0
                             : static_cast<double>(r.nets_routed) /
                                   static_cast<double>(r.nets_attempted),
       "ratio"},
      {"wl_per_net_dbu",
       r.indep_routed == 0 ? 0.0
                           : static_cast<double>(r.indep_wirelength) /
                                 static_cast<double>(r.indep_routed),
       "dbu"},
      {"server_rss_mb", r.rss_mb, "MiB"},
  };
  const double late_p50 = percentile(r.late_us, 50);
  const double late_p99 = percentile(r.late_us, 99);
  const bool behind = w.open_loop && late_p50 > kMaxLateP50Us;

  std::printf("gcrbench %s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("  (inputs and references built in %.2f s, before any timing)\n",
              refs_s);
  print_metrics("end to end:", e2e);
  std::printf("  lat_tail_ms is p%g, best-quartile round of %zu: >= %zu of %zu "
              "samples per round beyond it\n",
              w.tail_pct, r.rounds.size(), beyond,
              r.lat_us.size() / std::max<std::size_t>(r.rounds.size(), 1));
  std::printf("  err_frac %.6g (%zu of %zu requests)\n", err_frac, r.failed,
              r.attempted);
  std::printf("  over rounds: p50 min %.4f q25 %.4f med %.4f | tail min %.4f "
              "q25 %.4f med %.4f | req_s max %.1f q75 %.1f med %.1f\n",
              percentile(p50s, 0) / 1000.0, percentile(p50s, 25) / 1000.0,
              percentile(p50s, 50) / 1000.0, percentile(tails, 0) / 1000.0,
              percentile(tails, 25) / 1000.0, percentile(tails, 50) / 1000.0,
              percentile(rates, 100), percentile(rates, 75),
              percentile(rates, 50));
  std::printf("  host steal during the window: %.2f%% of CPU time; machine "
              "reference loop %.3f ms (best-quartile round)\n",
              r.steal_pct, percentile(r.calib_ms, 25));
  std::printf("  generator lateness p50 %.3f ms, p99 %.3f ms%s\n",
              late_p50 / 1000.0, late_p99 / 1000.0,
              behind ? "  ** generator fell behind: run invalid **" : "");
  std::printf("  all      n=%-7zu p90 %.3f ms  p95 %.3f ms  p99 %.3f ms\n",
              r.lat_us.size(), percentile(r.lat_us, 90) / 1000.0,
              percentile(r.lat_us, 95) / 1000.0,
              percentile(r.lat_us, 99) / 1000.0);
  for (std::size_t k = 0; k < r.rounds.size(); ++k) {
    std::printf("  round %zu: n=%zu p50 %.3f ms  p%g %.3f ms  req_s %.1f\n", k,
                r.rounds[k].lat_us.size(), p50s[k] / 1000.0, w.tail_pct,
                tails[k] / 1000.0, rates[k]);
  }
  for (const auto& [verb, v] : r.verb_us) {
    std::printf("  %-8s n=%-7zu p50 %.3f ms  p99 %.3f ms\n", verb.c_str(),
                v.size(), percentile(v, 50) / 1000.0,
                percentile(v, 99) / 1000.0);
  }
  if (!r.first_mismatch.empty()) {
    std::printf("  first mismatch: %s\n", r.first_mismatch.c_str());
  }
  if (!r.clean_exit) std::printf("  daemon did not drain cleanly\n");

  bool correct = r.failed == 0 && r.clean_exit && !behind;
  std::vector<Metric> layers;
  if (args.trace) {
    std::string why;
    try {
      if (!run_layers(w, r, layers, why)) {
        correct = false;
        std::printf("  %s\n", why.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gcrbench: layer replay failed: %s\n", e.what());
      return 1;
    }
    print_metrics("per layer:", layers);
  }
  std::fflush(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", r.attempted, r.failed,
              json_metrics(args.trace ? layers : e2e).c_str());
  return 0;
}
