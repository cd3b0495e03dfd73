#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/route_types.hpp"
#include "core/search_environment.hpp"
#include "layout/layout.hpp"

/// \file pinned_session.hpp
/// Mutable derived sessions — the serving layer's session *lifecycle*.
///
/// A cached LayoutSession is immutable and shared: every request routes
/// against the same read-only environment.  A PIN derives a private,
/// *mutable* copy for one client: the environment is copied (plain vector
/// duplication — never a rebuild) and the client then mutates its committed
/// remainder incrementally with COMMIT/UNCOMMIT/REROUTE, exactly the
/// open/own/mutate/close session shape of a stateful device server.
///
/// Ownership: a pin belongs to the connection that created (or claimed) it,
/// identified by the connection's cancel token — the same object the
/// disconnect path already flips, so auto-release on disconnect rides the
/// existing cancellation plumbing.  A pin restored from a snapshot starts
/// unowned until a client claims it with `PIN <handle>`.
///
/// Ordering: pipelined mutations of one pin must apply in submission order
/// even though the worker pool runs jobs concurrently.  Each mutating op
/// takes a ticket at admission (on the owning connection's single
/// submitting thread, so ticket order equals queue order) and the worker
/// gates on its turn — a per-pin FIFO layered over the pool's FIFO queue.

namespace gcr::serve {

/// One pinned (exclusively owned, mutable) derived session.
///
/// The layout is shared with the base session (aliasing pointer) or owned
/// outright after a restore; `env` and `routes` are private to the pin.
/// Mutating members is only safe from the worker holding the pin's current
/// ticket; `owner` is guarded by the PinRegistry mutex.
struct PinnedSession {
  std::string handle;    ///< "pin-" + 16 hex digits, or the restored name
  std::string base_key;  ///< content key of the session it derived from
  std::shared_ptr<const layout::Layout> layout;
  /// Net name -> net index (copied from the base session or rebuilt on
  /// restore), so COMMIT/UNCOMMIT/REROUTE resolve names without scans.
  std::map<std::string, std::size_t> net_index;
  route::SearchEnvironment env;
  /// Per-net results of committed attempts, keyed by net id.  An `ok`
  /// entry has its wire halos committed into `env`; a failed entry is
  /// recorded too (UNCOMMIT clears it, COMMIT refuses to re-attempt it
  /// until then), so the committed remainder is always explicit.
  std::map<std::size_t, route::NetRoute> routes;

  /// Owning connection identity (its cancel token), nullptr = unowned.
  /// Read/written only under the PinRegistry mutex.
  std::shared_ptr<std::atomic<bool>> owner;

  PinnedSession(std::string h, std::string base,
                std::shared_ptr<const layout::Layout> lay,
                route::SearchEnvironment e)
      : handle(std::move(h)),
        base_key(std::move(base)),
        layout(std::move(lay)),
        env(std::move(e)) {
    for (std::size_t i = 0; i < layout->nets().size(); ++i) {
      net_index.emplace(layout->nets()[i].name(), i);
    }
  }

  /// FIFO op ordering (see file comment).  acquire_ticket on the admission
  /// thread; the worker brackets the op with wait_turn/finish_turn; a job
  /// that never reaches a worker (queue rejection) must abort_turn so the
  /// chain keeps advancing.
  [[nodiscard]] std::uint64_t acquire_ticket();
  void wait_turn(std::uint64_t ticket);
  void finish_turn(std::uint64_t ticket);
  void abort_turn(std::uint64_t ticket);

 private:
  std::mutex turn_mu_;
  std::condition_variable turn_cv_;
  std::uint64_t next_ticket_ = 0;
  std::uint64_t current_ = 0;
  /// Tickets aborted while not yet current; drained as current_ advances.
  std::set<std::uint64_t> aborted_;

  void advance_locked();
};

/// Thread-safe registry of pinned sessions, keyed by handle.
class PinRegistry {
 public:
  using Owner = std::shared_ptr<std::atomic<bool>>;

  /// Derives a new pin and registers it owned by \p owner.  The handle is
  /// generated ("pin-" + 16 hex digits of a per-registry counter).  Returns
  /// nullptr, registering nothing, when \p owner's closed flag is set: its
  /// connection is gone and release_owner has already run or is about to.
  std::shared_ptr<PinnedSession> create(
      const std::string& base_key,
      std::shared_ptr<const layout::Layout> layout,
      const route::SearchEnvironment& base_env, const Owner& owner);

  /// Registers a restored pin (unowned) under its snapshotted handle.
  /// Returns false when the handle is already taken (duplicate snapshot
  /// files) — the caller skips the file.  Bumps the handle counter past
  /// any numeric "pin-<hex>" suffix so new pins never collide.
  bool adopt(std::shared_ptr<PinnedSession> pin);

  [[nodiscard]] std::shared_ptr<PinnedSession> find(
      const std::string& handle) const;

  enum class ClaimResult { kOk, kNotFound, kOwnedElsewhere, kOwnerClosed };
  /// Claims \p handle for \p owner: succeeds when the pin is unowned or
  /// already owned by \p owner (idempotent re-claim).  kOwnerClosed when
  /// \p owner's closed flag is set, as in create.
  ClaimResult claim(const std::string& handle, const Owner& owner);

  /// True when the pin is still registered under its handle and owned by
  /// \p owner — the worker-side re-check after queue wait.
  [[nodiscard]] bool verify(const std::shared_ptr<PinnedSession>& pin,
                            const Owner& owner) const;

  /// Unregisters the pin (UNPIN).  Only the owner may; returns false when
  /// the handle is gone or owned elsewhere.
  bool erase(const std::string& handle, const Owner& owner);

  /// Releases every pin owned by \p owner — the disconnect auto-release.
  /// Destroys them by default; with \p preserve the pins stay registered
  /// but become unowned (claimable again), which is what a graceful
  /// shutdown wants: the drain can still final-SAVE state whose client
  /// just hung up.  Returns how many were released.
  std::size_t release_owner(const Owner& owner, bool preserve = false);

  /// Every registered pin, in handle order — the enumeration the final
  /// SAVE and the periodic autosave sweep over.
  [[nodiscard]] std::vector<std::shared_ptr<PinnedSession>> all() const;

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<PinnedSession>> pins_;
  std::uint64_t next_handle_ = 1;
};

}  // namespace gcr::serve
