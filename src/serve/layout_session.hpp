#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/search_environment.hpp"
#include "layout/layout.hpp"
#include "pipeline/route_state.hpp"

/// \file layout_session.hpp
/// The session layer of the routing service.
///
/// Every `route_all` call used to rebuild the ObstacleIndex and the
/// EscapeLineSet from scratch; under serving traffic those builds dominate
/// request latency while being identical for every request against the same
/// layout.  A LayoutSession parses the text-format layout once and owns the
/// shared read-only SearchEnvironment; the SessionCache keys sessions by
/// layout *content* hash (FNV-1a over the request body), so two clients
/// uploading byte-identical layouts share one session — the same idea as a
/// connection/session manager in front of a fieldbus scanner: expensive
/// immutable state is established once and addressed by handle thereafter.

namespace gcr::serve {

/// Net name -> net index.  Duplicate names keep the first index (matching
/// read_routes lookup).
using NetIndex = std::map<std::string, std::size_t>;

/// The name index of \p lay's netlist.
[[nodiscard]] NetIndex build_net_index(const layout::Layout& lay);

/// Immutable once constructed; shared across worker threads by shared_ptr.
/// The environment serves independent-mode requests by reference and
/// sequential-mode requests by copy (the router clones it and commits wire
/// halos incrementally), so neither mode rebuilds per request.
struct LayoutSession {
  std::string key;             ///< content hash, 16 hex digits
  layout::Layout layout;       ///< parsed, validated problem
  route::SearchEnvironment env;  ///< obstacle index + escape lines
  /// Built once so subset requests (`ROUTE ... nets=a,b`) resolve names
  /// without scanning the netlist per request; pins derived from this
  /// session share it.
  NetIndex net_index;
  /// The committed global routes pipeline stages consume — the one mutable
  /// slot of the otherwise-immutable session.  A full ROUTE, REROUTE, or
  /// OPTIMIZE publishes its result here; the snapshot's content fingerprint
  /// feeds the stage-cache key, so replacing the routes invalidates every
  /// cached stage result without an explicit invalidation walk.
  mutable pipeline::RouteStateSlot routes;

  LayoutSession(std::string k, layout::Layout lay)
      : key(std::move(k)),
        layout(std::move(lay)),
        env(layout),
        net_index(build_net_index(layout)) {}
};

/// Thread-safe LRU cache of layout sessions.
class SessionCache {
 public:
  explicit SessionCache(std::size_t capacity = 8)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// FNV-1a 64-bit over the exact request bytes, as 16 lowercase hex digits
  /// — the session handle clients quote in ROUTE commands.
  [[nodiscard]] static std::string content_key(const std::string& text);

  /// Parses \p text (io::text_format), validates the layout, and inserts a
  /// session — or returns the cached one when the content hash is already
  /// resident (no parse, no environment build).  \p cache_hit, when
  /// non-null, reports which of the two happened (authoritative, unlike
  /// inferring it from counter deltas, which races with concurrent
  /// lookups).  Throws std::runtime_error (io::ParseError for malformed
  /// text, plain runtime_error listing the first placement violation for
  /// invalid layouts); untrusted request bodies must never become
  /// half-built sessions.
  std::shared_ptr<const LayoutSession> load(const std::string& text,
                                            bool* cache_hit = nullptr);

  /// Looks up a session by handle; nullptr when absent (expired or never
  /// loaded).  Refreshes LRU recency on hit but does not touch the
  /// hit/miss counters — those measure LOAD deduplication, not lookups.
  [[nodiscard]] std::shared_ptr<const LayoutSession> find(
      const std::string& key);

  /// Content probe: hashes \p text and returns the resident session, or
  /// nullptr without parsing or building anything.  A hit counts as a LOAD
  /// deduplication (it answers a LOAD), a miss counts nothing — the
  /// follow-up load() will record it.  The event-driven front-end uses this
  /// to answer repeat LOADs inline instead of burning a worker-pool trip.
  /// \p key_out, when non-null, receives the computed content key either
  /// way, so a miss can hand it to `load(text, key, …)` instead of hashing
  /// the body a second time.
  [[nodiscard]] std::shared_ptr<const LayoutSession> find_content(
      const std::string& text, std::string* key_out = nullptr);

  /// load() with a precomputed `content_key(text)` — the offloaded-LOAD
  /// path, whose admission probe already paid the hash.
  std::shared_ptr<const LayoutSession> load(const std::string& text,
                                            std::string key,
                                            bool* cache_hit = nullptr);

  [[nodiscard]] std::size_t size() const;
  /// LOAD-deduplication counters: a hit is a load() whose content was
  /// already resident (parse + environment build skipped).
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;

 private:
  struct Entry {
    std::shared_ptr<const LayoutSession> session;
    std::list<std::string>::iterator recency;  ///< position in recency_
  };

  /// Moves \p entry to the front of the recency list (O(1)).  mu_ must be
  /// held — request admission touches on every lookup, so this must never
  /// scan.
  void touch(Entry& entry);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<std::string> recency_;  ///< most recent first
  std::map<std::string, Entry> sessions_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace gcr::serve
