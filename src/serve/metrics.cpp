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
  render_counters<ServiceCounters<std::uint64_t>>(os, "", *this);
  render_counters<SessionGauges<std::uint64_t>>(os, "", *this);
  for (std::size_t i = 0; i < kVerbKinds; ++i) {
    const std::string_view name = to_string(static_cast<VerbKind>(i));
    const VerbLatencySnapshot& v = verbs[i];
    os << "verb_" << name << "_count " << v.count << '\n'
       << "verb_" << name << "_p50_us " << v.p50_us << '\n'
       << "verb_" << name << "_p95_us " << v.p95_us << '\n'
       << "verb_" << name << "_p99_us " << v.p99_us << '\n';
  }
  render_counters<QueueGauges<std::uint64_t>>(os, "", *this);
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
  render_counters<CacheGauges<std::uint64_t>>(os, "", *this);
  return os.str();
}

}  // namespace gcr::serve
