#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace gcr::serve {

std::uint64_t LatencyWindow::percentile(double q) const {
  return percentiles({q}).front();
}

std::vector<std::uint64_t> LatencyWindow::percentiles(
    const std::vector<double>& qs) const {
  std::vector<std::uint64_t> sorted;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    sorted = samples_;
  }
  std::vector<std::uint64_t> out(qs.size(), 0);
  if (sorted.empty()) return out;
  // One sort serves every quantile: the copy happens once (above, under the
  // mutex) and each query is an O(1) rank lookup.
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const double q = std::clamp(qs[i], 0.0, 100.0);
    // Nearest-rank: the smallest sample with at least q% of samples <= it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q / 100.0 * static_cast<double>(sorted.size())));
    out[i] = sorted[rank == 0 ? 0 : rank - 1];
  }
  return out;
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  render_counters(os, "", *this);
  os << "pins_active " << pins_active << '\n'
     << "stage_cache_hits " << stage_cache_hits << '\n'
     << "stage_cache_misses " << stage_cache_misses << '\n'
     << "stage_cache_evictions " << stage_cache_evictions << '\n'
     << "stage_cache_size " << stage_cache_size << '\n'
     << "latency_p50_us " << latency_p50_us << '\n'
     << "latency_p95_us " << latency_p95_us << '\n'
     << "latency_p99_us " << latency_p99_us << '\n'
     << "queue_wait_p50_us " << queue_wait_p50_us << '\n';
  for (std::size_t i = 0; i < kVerbKinds; ++i) {
    const std::string_view name = to_string(static_cast<VerbKind>(i));
    const VerbLatencySnapshot& v = verbs[i];
    os << "verb_" << name << "_count " << v.count << '\n'
       << "verb_" << name << "_p50_us " << v.p50_us << '\n'
       << "verb_" << name << "_p95_us " << v.p95_us << '\n'
       << "verb_" << name << "_p99_us " << v.p99_us << '\n';
  }
  os << "uptime_s " << uptime_s << '\n'
     << "protocol_version " << protocol_version << '\n'
     << "queue_depth " << queue_depth << '\n'
     << "queue_capacity " << queue_capacity << '\n'
     << "queue_shards " << queue_shards << '\n'
     << "queue_fair_rounds " << queue_fair_rounds << '\n'
     << "queue_oldest_wait_us " << queue_oldest_wait_us << '\n';
  // Live shards only, positionally (STATS values must be numeric, so the
  // key stays out): an idle queue renders no shard lines, so the key set
  // above stays stable for dashboards while skew remains observable the
  // moment it exists.
  for (std::size_t i = 0; i < queue_shard_stats.size(); ++i) {
    const QueueShardStats& q = queue_shard_stats[i];
    os << "queue_shard" << i << "_depth " << q.depth << '\n'
       << "queue_shard" << i << "_enqueued " << q.enqueued << '\n'
       << "queue_shard" << i << "_served " << q.served << '\n'
       << "queue_shard" << i << "_head_wait_us " << q.head_wait_us << '\n';
  }
  os << "workers " << workers << '\n'
     << "cache_hits " << cache_hits << '\n'
     << "cache_misses " << cache_misses << '\n'
     << "cache_evictions " << cache_evictions << '\n'
     << "cache_size " << cache_size << '\n';
  return os.str();
}

}  // namespace gcr::serve
