#include "serve/pinned_session.hpp"

#include <utility>

namespace gcr::serve {

std::uint64_t PinnedSession::acquire_ticket() {
  const std::lock_guard<std::mutex> lock(turn_mu_);
  return next_ticket_++;
}

void PinnedSession::wait_turn(std::uint64_t ticket) {
  std::unique_lock<std::mutex> lock(turn_mu_);
  turn_cv_.wait(lock, [&] { return current_ == ticket; });
}

void PinnedSession::advance_locked() {
  // Skip over tickets whose jobs never reached a worker.
  while (!ended_early_.empty() && *ended_early_.begin() == current_) {
    ended_early_.erase(ended_early_.begin());
    ++current_;
  }
}

void PinnedSession::end_turn(std::uint64_t ticket) {
  const std::lock_guard<std::mutex> lock(turn_mu_);
  if (current_ == ticket) {
    ++current_;
    advance_locked();
    turn_cv_.notify_all();
  } else {
    ended_early_.insert(ticket);
  }
}

namespace {

std::string format_handle(std::uint64_t n) {
  static const char* hex = "0123456789abcdef";
  std::string out = "pin-";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += hex[(n >> shift) & 0xf];
  }
  return out;
}

/// Parses the 16-hex suffix of "pin-<hex>"; returns false for any other
/// shape (restored snapshots may carry foreign handles — those never
/// collide with generated ones, so the counter ignores them).
bool parse_handle(const std::string& handle, std::uint64_t* out) {
  if (handle.size() != 20 || handle.rfind("pin-", 0) != 0) return false;
  std::uint64_t n = 0;
  for (std::size_t i = 4; i < handle.size(); ++i) {
    const char c = handle[i];
    n <<= 4;
    if (c >= '0' && c <= '9') {
      n |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      n |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = n;
  return true;
}

bool owner_closed(const PinRegistry::Owner& owner) {
  return owner != nullptr && owner->load(std::memory_order_relaxed);
}

}  // namespace

std::shared_ptr<PinnedSession> PinRegistry::create(
    const std::shared_ptr<const LayoutSession>& base, const Owner& owner) {
  // Copy-on-pin outside the lock: duplicating the environment's vectors is
  // the expensive part and needs no registry state.  The handle is minted
  // under the lock, before the pin becomes visible to anyone else.
  auto pin = std::make_shared<PinnedSession>(
      std::string(), base->key,
      std::shared_ptr<const layout::Layout>(base, &base->layout),
      std::shared_ptr<const NetIndex>(base, &base->net_index), base->env);
  const std::lock_guard<std::mutex> lock(mu_);
  // The flag flips before release_owner takes this mutex, so a closed
  // owner is seen here or its pin is seen there: never neither.
  if (owner_closed(owner)) return nullptr;
  pin->handle = format_handle(next_handle_++);
  pin->owner = owner;
  pins_.emplace(pin->handle, pin);
  return pin;
}

bool PinRegistry::adopt(std::shared_ptr<PinnedSession> pin) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  if (parse_handle(pin->handle, &n) && n >= next_handle_) {
    next_handle_ = n + 1;
  }
  return pins_.emplace(pin->handle, std::move(pin)).second;
}

std::shared_ptr<PinnedSession> PinRegistry::find(
    const std::string& handle) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = pins_.find(handle);
  return it == pins_.end() ? nullptr : it->second;
}

PinRegistry::ClaimResult PinRegistry::claim(const std::string& handle,
                                             const Owner& owner) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (owner_closed(owner)) return ClaimResult::kOwnerClosed;
  const auto it = pins_.find(handle);
  if (it == pins_.end()) return ClaimResult::kNotFound;
  if (it->second->owner != nullptr && it->second->owner != owner) {
    return ClaimResult::kOwnedElsewhere;
  }
  it->second->owner = owner;
  return ClaimResult::kOk;
}

bool PinRegistry::verify(const std::shared_ptr<PinnedSession>& pin,
                         const Owner& owner) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = pins_.find(pin->handle);
  return it != pins_.end() && it->second == pin && pin->owner == owner;
}

bool PinRegistry::erase(const std::string& handle, const Owner& owner) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = pins_.find(handle);
  if (it == pins_.end() || it->second->owner != owner) return false;
  pins_.erase(it);
  return true;
}

std::size_t PinRegistry::release_owner(const Owner& owner, bool preserve) {
  if (owner == nullptr) return 0;
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t released = 0;
  for (auto it = pins_.begin(); it != pins_.end();) {
    if (it->second->owner == owner) {
      if (preserve) {
        // Keep the session registered but claimable — the shutdown path
        // still has a final SAVE to run against it, and a restarted client
        // can re-claim the handle after a restore.
        it->second->owner = nullptr;
        ++it;
      } else {
        it = pins_.erase(it);
      }
      ++released;
    } else {
      ++it;
    }
  }
  return released;
}

std::vector<std::shared_ptr<PinnedSession>> PinRegistry::all() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<PinnedSession>> out;
  out.reserve(pins_.size());
  for (const auto& [handle, pin] : pins_) out.push_back(pin);
  return out;
}

std::size_t PinRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return pins_.size();
}

}  // namespace gcr::serve
