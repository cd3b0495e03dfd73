#include "serve/layout_session.hpp"

#include <stdexcept>
#include <utility>

#include "io/fnv1a.hpp"
#include "io/text_format.hpp"

namespace gcr::serve {

NetIndex build_net_index(const layout::Layout& lay) {
  NetIndex index;
  for (std::size_t i = 0; i < lay.nets().size(); ++i) {
    index.emplace(lay.nets()[i].name(), i);
  }
  return index;
}

std::string SessionCache::content_key(const std::string& text) {
  // Not cryptographic — the cache key is a handle, not a security
  // boundary; a colliding upload would at worst route against the earlier
  // layout, and the protocol echoes cell/net counts so a client can notice.
  return io::hex16(io::fnv1a(text));
}

std::shared_ptr<const LayoutSession> SessionCache::load(
    const std::string& text, bool* cache_hit) {
  return load(text, content_key(text), cache_hit);
}

std::shared_ptr<const LayoutSession> SessionCache::load(
    const std::string& text, std::string key, bool* cache_hit) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(key);
    if (it != sessions_.end()) {
      ++hits_;
      touch(it->second);
      if (cache_hit != nullptr) *cache_hit = true;
      return it->second.session;
    }
    ++misses_;
  }
  if (cache_hit != nullptr) *cache_hit = false;

  // Parse and build outside the lock: an EscapeLineSet build on a large
  // floorplan takes real time, and concurrent ROUTE lookups must not stall
  // behind it.  Two racing loads of the same content may both build; the
  // second insert below defers to the first, so clients always share one
  // session.
  layout::Layout lay = io::read_layout_string(text);
  const auto issues = lay.validate();
  if (!issues.empty()) {
    throw std::runtime_error(
        "invalid layout (" + std::to_string(issues.size()) + " issue" +
        (issues.size() == 1 ? "" : "s") + "; first: " +
        std::string(layout::to_string(issues.front().kind)) + " — " +
        issues.front().detail + ")");
  }
  auto session = std::make_shared<const LayoutSession>(key, std::move(lay));

  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = sessions_.emplace(key, Entry{});
  if (inserted) {
    recency_.push_front(key);
    it->second = Entry{std::move(session), recency_.begin()};
    while (sessions_.size() > capacity_) {
      sessions_.erase(recency_.back());
      recency_.pop_back();
      ++evictions_;
    }
  } else {
    touch(it->second);  // lost a build race: share the first session
  }
  return it->second.session;
}

std::shared_ptr<const LayoutSession> SessionCache::find(
    const std::string& key) {
  // Deliberately not counted in hits_/misses_: every ROUTE admission lands
  // here, and letting lookups into the counters would turn the "cache hit
  // rate" (a LOAD-deduplication metric) into a request counter.
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(key);
  if (it == sessions_.end()) return nullptr;
  touch(it->second);
  return it->second.session;
}

std::shared_ptr<const LayoutSession> SessionCache::find_content(
    const std::string& text, std::string* key_out) {
  std::string key = content_key(text);
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(key);
  if (key_out != nullptr) *key_out = std::move(key);
  if (it == sessions_.end()) return nullptr;  // load() will count the miss
  ++hits_;
  touch(it->second);
  return it->second.session;
}

std::size_t SessionCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::uint64_t SessionCache::hits() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t SessionCache::misses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::uint64_t SessionCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

void SessionCache::touch(Entry& entry) {
  recency_.splice(recency_.begin(), recency_, entry.recency);
}

}  // namespace gcr::serve
