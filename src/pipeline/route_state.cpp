#include "pipeline/route_state.hpp"

#include <cstdint>
#include <utility>

#include "io/fnv1a.hpp"

namespace gcr::pipeline {

std::string fingerprint_routes(const route::NetlistResult& r) {
  using io::fnv1a_u64;
  std::uint64_t h = fnv1a_u64(r.routes.size(), io::kFnv1aBasis);
  for (const route::NetRoute& nr : r.routes) {
    h = fnv1a_u64(nr.ok ? 1 : 0, h);
    h = fnv1a_u64(static_cast<std::uint64_t>(nr.wirelength), h);
    h = fnv1a_u64(nr.segments.size(), h);
    for (const geom::Segment& s : nr.segments) {
      h = fnv1a_u64(static_cast<std::uint64_t>(s.a.x), h);
      h = fnv1a_u64(static_cast<std::uint64_t>(s.a.y), h);
      h = fnv1a_u64(static_cast<std::uint64_t>(s.b.x), h);
      h = fnv1a_u64(static_cast<std::uint64_t>(s.b.y), h);
    }
  }
  return io::hex16(h);
}

std::shared_ptr<const CommittedRoutes> RouteStateSlot::get() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

std::shared_ptr<const CommittedRoutes> RouteStateSlot::set(
    route::NetlistResult result) {
  auto next = std::make_shared<CommittedRoutes>();
  next->fingerprint = fingerprint_routes(result);
  next->result = std::move(result);
  std::lock_guard<std::mutex> lock(mu_);
  state_ = next;
  return state_;
}

}  // namespace gcr::pipeline
