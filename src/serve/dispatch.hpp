#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>

#include "net/frame_parser.hpp"
#include "serve/routing_service.hpp"

/// \file dispatch.hpp
/// The one place that decides what a command does.  Both transports — the
/// blocking stream loop (serve_connection) and the epoll front-end
/// (net::EventLoop) — frame their input with net::FrameParser and hand each
/// event here; they only deliver the frames this function produces.  Cheap
/// verbs answer inline; everything that parses a layout, synthesizes one, or
/// routes goes to the worker pool and answers through the reply callback.

namespace gcr::serve {

/// Delivers a queued command's reply, on whatever thread produced it (a
/// worker, or the dispatching thread for fail-fast admission outcomes).
/// OPTIMIZE streams its `PASS` lines with `final=false`; every queued
/// command then gets exactly one `final=true` frame.  Must not block.
using Reply = std::function<void(std::string frame, bool final)>;

struct DispatchResult {
  enum class Kind {
    kInline,  ///< `frame` is the complete reply
    kQuit,    ///< `frame` is the last reply: QUIT, or a framing error that
              ///< lost the stream position — close once it is written
    kQueued,  ///< the reply arrives through the Reply callback
  };
  Kind kind = Kind::kInline;
  std::string frame;
  /// kQueued LOAD/GEN/PIN: later commands of this connection must wait for
  /// the final reply — a pipelined `LOAD …\nROUTE <key>` needs the session
  /// to exist at the ROUTE's admission, `PIN …\nCOMMIT <handle>` the pin.
  bool barrier = false;
};

/// Executes one framed command.  \p owner is the connection's identity —
/// the pin owner, and the cancel token its queued jobs check.
/// \p received is the parse-span origin (span_parse_us).  The LOAD body is
/// moved out of \p ev when the build is queued.
DispatchResult dispatch(RoutingService& service, net::FrameParser::Event& ev,
                        const std::shared_ptr<std::atomic<bool>>& owner,
                        std::chrono::steady_clock::time_point received,
                        Reply reply);

}  // namespace gcr::serve
