#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "serve/fair_queue.hpp"
#include "serve/trace.hpp"

/// \file metrics.hpp
/// Service observability: request counters, per-verb lock-free latency
/// histograms, rendered as the STATS response body.  Counters and histogram
/// buckets are lock-free atomics (touched on every request); percentile
/// queries — rare, operator driven — walk a bucket snapshot.
///
/// LatencyWindow (the original exact-sample mutexed ring) is not on the
/// service hot path.  It is kept as the exact reference that the histogram
/// test and bench_metrics compare Histogram against.

namespace gcr::serve {

/// Sliding window over the most recent `capacity` latency samples
/// (microseconds).  A ring buffer rather than a full history so a soak run
/// cannot grow memory without bound; percentiles therefore describe recent
/// traffic, which is what a load shedder or dashboard wants anyway.
class LatencyWindow {
 public:
  explicit LatencyWindow(std::size_t capacity = 4096)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void record(std::uint64_t micros) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (samples_.size() < capacity_) {
      samples_.push_back(micros);
    } else {
      samples_[next_] = micros;
    }
    next_ = (next_ + 1) % capacity_;
    ++count_;
  }

  /// \p q in [0, 100].  Nearest-rank percentile over the window; 0 when no
  /// samples have been recorded.
  [[nodiscard]] std::uint64_t percentile(double q) const;

  /// All requested percentiles from ONE snapshot of the window: the samples
  /// are copied (under the mutex) and sorted once, and every quantile is
  /// ranked against that single sorted copy — a multi-quantile caller no
  /// longer pays capacity·log(capacity) per quantile.
  [[nodiscard]] std::vector<std::uint64_t> percentiles(
      const std::vector<double>& qs) const;

  [[nodiscard]] std::uint64_t total_recorded() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<std::uint64_t> samples_;
  std::size_t next_ = 0;
  std::uint64_t count_ = 0;
};

/// Counter tables.  Each counter is named once, in an X-macro list
/// `LIST(X)` that calls `X(name)` per counter in STATS order.
/// GCR_COUNTER_TABLE(Table, LIST) turns the list into
/// `template <typename T> struct Table` with one `T name{}` member per
/// counter plus an `each` visitor.  `Table<Counter>` is the live storage —
/// a bump is one relaxed `fetch_add` on the member — and
/// `Table<std::uint64_t>` is its plain-value snapshot.  The functions below
/// load and render any table through `each`.
#define GCR_COUNTER_MEMBER(name) T name{};
#define GCR_COUNTER_VISIT(name) f(#name, tables.name...);
#define GCR_COUNTER_TABLE(Table, LIST)                          \
  template <typename T>                                         \
  struct Table {                                                \
    LIST(GCR_COUNTER_MEMBER)                                    \
    /* Calls f(name, tables.<name>...) per counter, in order. */ \
    template <typename F, typename... Tables>                   \
    static void each(F&& f, Tables&... tables) {                \
      LIST(GCR_COUNTER_VISIT)                                   \
    }                                                           \
  };

using Counter = std::atomic<std::uint64_t>;

/// Copies every counter of \p live into \p out, at relaxed order.
template <typename Values, typename Live>
void load_counters(Values& out, const Live& live) {
  Values::each(
      [](std::string_view, std::uint64_t& v, const Counter& c) {
        v = c.load(std::memory_order_relaxed);
      },
      out, live);
}

/// Writes one `<prefix><name> <value>` STATS line per counter.
template <typename Values>
void render_counters(std::ostream& os, std::string_view prefix,
                     const Values& values) {
  Values::each(
      [&](std::string_view name, std::uint64_t v) {
        os << prefix << name << ' ' << v << '\n';
      },
      values);
}

/// The service's counters, in STATS order.
#define GCR_SERVICE_COUNTERS(X)                                            \
  X(requests_submitted)                                                    \
  X(requests_ok)                                                           \
  X(requests_rejected)  /* queue full */                                   \
  X(requests_expired)   /* deadline passed */                              \
  X(requests_cancelled)                                                    \
  X(requests_not_found) /* unknown session key */                          \
  X(requests_errored)   /* routing threw */                                \
  X(nets_routed)                                                           \
  X(nets_failed)                                                           \
  /* LOAD and GEN jobs queued on the worker pool — every cold LOAD and     \
     every GEN, on every transport (resident LOADs answer inline). */      \
  X(loads_offloaded)                                                       \
  X(loads_ok)                                                              \
  X(loads_failed) /* parse error / rejected */                             \
  /* OPTIMIZE runs completed (kOk) and the total rip-up passes they ran —  \
     passes/run is the convergence-speed dashboard number. */              \
  X(optimizes_ok)                                                          \
  X(optimize_passes)                                                       \
  /* Pipeline stages (DETAIL/CONGEST/VERIFY/SVG) completed or failed. */   \
  X(stages_ok)                                                             \
  X(stages_failed)                                                         \
  /* Server-side GEN workload syntheses (materialized sessions). */        \
  X(gens_ok)                                                               \
  X(gens_failed)                                                           \
  /* Session lifecycle: pins derived/claimed, released (UNPIN + disconnect \
     auto-release), restored from snapshots at startup, and the mutation   \
     ops (COMMIT/UNCOMMIT/REROUTE/SAVE) split by outcome. */               \
  X(pins_created)                                                          \
  X(pins_released)                                                         \
  X(pins_restored)                                                         \
  X(pin_ops_ok)                                                            \
  X(pin_ops_failed)                                                        \
  X(pin_saves)                                                             \
  /* Snapshots written by the save sweep (every --snapshot-interval-s and \
     at the drain); pin_saves counts these and explicit SAVEs alike. */    \
  X(pin_autosaves)

GCR_COUNTER_TABLE(ServiceCounters, GCR_SERVICE_COUNTERS)

/// Live metrics for one RoutingService instance.
struct ServiceMetrics : ServiceCounters<Counter> {
  /// Lock-free log2 histograms — recorded on every request with zero
  /// mutexes (Histogram::record is three relaxed atomic adds).
  Histogram queue_wait;  ///< submit -> dequeue, us; every queued job
  /// Per-verb latency shards: a microsecond STATS render and a multi-second
  /// OPTIMIZE never share one distribution.
  std::array<Histogram, kVerbKinds> verb_latency{};
};

/// Per-verb latency digest in a snapshot (percentiles are log2-bucket upper
/// bounds, see Histogram).
struct VerbLatencySnapshot {
  std::uint64_t count = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;
};

/// The snapshot's gauges, read from the queue, caches and histograms at
/// snapshot time, in the three STATS runs around the per-verb and per-shard
/// lines.  Fair (round-robin) dispatch shows as the live shard count, ring
/// rotations and the age of the oldest queued item anywhere (the
/// starvation gauge).
#define GCR_SESSION_GAUGES(X)                                              \
  X(pins_active) X(stage_cache_hits) X(stage_cache_misses)                 \
  X(stage_cache_evictions) X(stage_cache_size) X(queue_wait_p50_us)
#define GCR_QUEUE_GAUGES(X)                                                \
  X(uptime_s) X(protocol_version) X(queue_depth) X(queue_capacity)         \
  X(queue_shards) X(queue_fair_rounds) X(queue_oldest_wait_us)
#define GCR_CACHE_GAUGES(X)                                                \
  X(workers) X(cache_hits) X(cache_misses) X(cache_evictions) X(cache_size)

GCR_COUNTER_TABLE(SessionGauges, GCR_SESSION_GAUGES)
GCR_COUNTER_TABLE(QueueGauges, GCR_QUEUE_GAUGES)
GCR_COUNTER_TABLE(CacheGauges, GCR_CACHE_GAUGES)

/// One point-in-time view, cheap to format: the counters plus the gauges
/// and percentiles read from the queue, caches and histograms.
struct MetricsSnapshot : ServiceCounters<std::uint64_t>,
                         SessionGauges<std::uint64_t>,
                         QueueGauges<std::uint64_t>,
                         CacheGauges<std::uint64_t> {
  /// One digest per VerbKind, indexed by static_cast<size_t>(kind); all
  /// kinds are rendered (count 0 shows as zeros) so dashboards see a stable
  /// key set.
  std::array<VerbLatencySnapshot, kVerbKinds> verbs{};
  /// One entry per live queue shard, in service order.
  std::vector<QueueShardStats> queue_shard_stats;

  /// `key value` lines, one metric per line — the STATS response body.
  [[nodiscard]] std::string to_text() const;
};

}  // namespace gcr::serve
