#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

/// \file fair_queue.hpp
/// The service's bounded, fair (round-robin) admission queue: jobs are
/// keyed (by session, pin handle, or load identity) into per-key shards and
/// dequeued round-robin, so a session saturating the service with work no
/// longer starves every other session behind it in a single FIFO — each
/// live shard gets one dequeue per ring round regardless of how deep its
/// neighbors are.
///
/// What the service's correctness leans on:
///   - *per-key* FIFO: one shard is one deque, so a pin handle's ticket
///     chain and a session's pipelined commands still dequeue in admission
///     order (global cross-key FIFO is exactly what fairness gives up);
///   - admission semantics: try_push is non-blocking, fails when the
///     global bound is reached or the queue is closed, and moves its
///     argument only on success so a rejected job can still deliver its
///     failure response;
///   - shutdown semantics: close() stops admission, queued jobs drain, and
///     pop() returns nullopt only once closed *and* drained.
///
/// Shards are created on first push and retired when they drain empty, so
/// the map never outgrows the set of keys with work actually queued.
///
/// Starvation is observable, not just bounded: depth/enqueued/served per
/// live shard, the ring round count, and the age of the oldest queued item
/// (the worst wait any key is currently suffering) all export into STATS.

namespace gcr::serve {

/// A point-in-time view of one live FairQueue shard, for STATS and tests.
struct QueueShardStats {
  std::string key;
  std::size_t depth = 0;        ///< items queued now
  std::uint64_t enqueued = 0;   ///< admitted since the shard went live
  std::uint64_t served = 0;     ///< dequeued since the shard went live
  std::uint64_t head_wait_us = 0;  ///< how long the front item has waited
};

template <typename T>
class FairQueue {
 public:
  using Clock = std::chrono::steady_clock;

  explicit FairQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  FairQueue(const FairQueue&) = delete;
  FairQueue& operator=(const FairQueue&) = delete;

  /// Non-blocking admission into \p key's shard: false when the global
  /// bound is reached or the queue is closed (the caller sheds the
  /// request).  Moves \p v only on success.
  bool try_push(const std::string& key, T&& v) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || total_ >= capacity_) return false;
      // A shard is in the ring exactly while it is in the map.
      auto [it, inserted] = shards_.try_emplace(key);
      Shard& s = it->second;
      s.items.push_back(Item{std::move(v), Clock::now()});
      ++s.enqueued;
      ++total_;
      if (inserted) ring_.push_back(it);
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty; serves the next item round-robin.
  /// Returns nullopt once the queue is closed *and* drained — the
  /// worker-pool shutdown signal.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || total_ > 0; });
    if (total_ == 0) return std::nullopt;

    auto it = ring_.front();
    Shard& s = it->second;
    // The ring's front shard serves one job, then rotates to the back.
    Item item = std::move(s.items.front());
    s.items.pop_front();
    --total_;
    ++s.served;
    if (s.items.empty()) {
      // Drained: retire the shard entirely.  A key that goes quiet costs
      // nothing, and its next burst starts a fresh shard.
      ring_.pop_front();
      shards_.erase(it);
    } else {
      ring_.pop_front();
      ring_.push_back(it);
      ++rounds_;
    }
    return std::move(item.value);
  }

  /// Stops admission.  Queued jobs still drain; blocked consumers wake and
  /// (once drained) return nullopt.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Live (non-empty) shard count.
  [[nodiscard]] std::size_t shards() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return shards_.size();
  }

  /// Ring rotations completed (a shard serving a job and yielding to the
  /// next key with work still queued).
  [[nodiscard]] std::uint64_t fair_rounds() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return rounds_;
  }

  /// Age in microseconds of the oldest item queued anywhere — the worst
  /// wait any key is currently suffering.  0 when empty.  The starvation
  /// gauge: under fair dispatch it stays bounded even when one shard is
  /// saturated.
  [[nodiscard]] std::uint64_t oldest_wait_us() const {
    const std::lock_guard<std::mutex> lock(mu_);
    if (total_ == 0) return 0;
    const auto now = Clock::now();
    std::uint64_t worst = 0;
    for (const auto& [key, s] : shards_) {
      if (s.items.empty()) continue;
      worst = std::max(worst, age_us(s.items.front().enqueued_at, now));
    }
    return worst;
  }

  /// Snapshots every live shard, in ring (service) order.
  [[nodiscard]] std::vector<QueueShardStats> shard_stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto now = Clock::now();
    std::vector<QueueShardStats> out;
    out.reserve(ring_.size());
    for (const auto& it : ring_) {
      const Shard& s = it->second;
      QueueShardStats st;
      st.key = it->first;
      st.depth = s.items.size();
      st.enqueued = s.enqueued;
      st.served = s.served;
      if (!s.items.empty()) {
        st.head_wait_us = age_us(s.items.front().enqueued_at, now);
      }
      out.push_back(std::move(st));
    }
    return out;
  }

 private:
  struct Item {
    T value;
    Clock::time_point enqueued_at;
  };

  struct Shard {
    std::deque<Item> items;
    std::uint64_t enqueued = 0;
    std::uint64_t served = 0;
  };

  using ShardMap = std::map<std::string, Shard>;

  static std::uint64_t age_us(Clock::time_point then, Clock::time_point now) {
    return then >= now
               ? 0
               : static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::microseconds>(
                         now - then)
                         .count());
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  ShardMap shards_;                          ///< live shards only
  std::deque<typename ShardMap::iterator> ring_;  ///< service order
  std::size_t total_ = 0;
  std::uint64_t rounds_ = 0;
  bool closed_ = false;
};

}  // namespace gcr::serve
