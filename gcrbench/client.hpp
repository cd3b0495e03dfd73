#pragma once

// Wire-level client of the gcr_serve framed protocol: daemon spawn/stop,
// blocking connections, and an incremental reply parser shared by the
// closed-loop and open-loop load generators.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "bench.hpp"

namespace gcrbench {

/// One framed reply: `OK <n> meta\n<body>` or `ERR reason`.
struct Reply {
  bool ok = false;
  std::string meta;
  std::string body;
  std::string err;
};

/// Incremental reply framing over an arbitrary byte stream.
class ReplyParser {
 public:
  void feed(const char* data, std::size_t n) { buf_.append(data, n); }
  /// Extracts the next complete reply; false when more bytes are needed.
  bool next(Reply& out);

 private:
  std::string buf_;
  std::size_t pos_ = 0;
};

/// A TCP connection to the daemon on 127.0.0.1.
class Conn {
 public:
  explicit Conn(std::uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send(const std::string& bytes);
  /// Blocks until one reply is complete.  Throws on EOF.
  Reply recv();
  /// Non-blocking pump for the open-loop generator: reads whatever is ready.
  /// Returns false on EOF or a hard error.
  bool pump();
  [[nodiscard]] int fd() const noexcept { return fd_; }
  ReplyParser& parser() noexcept { return parser_; }

 private:
  int fd_ = -1;
  ReplyParser parser_;
};

/// A spawned gcr_serve.
struct Daemon {
  pid_t pid = -1;
  std::uint16_t port = 0;
};

/// Forks \p server with the fixed benchmark config (`--workers 4 --cache 32
/// --queue 1024 --listen 0`, one reactor) and parses the bound port from its
/// banner.
[[nodiscard]] Daemon spawn_daemon(const std::string& server);
/// SIGINT drain; true when the daemon exited 0 within the grace period
/// (otherwise it is SIGKILLed and reaped).
bool stop_daemon(Daemon& d);
/// The daemon's peak resident set (VmHWM), MiB; 0 when unreadable.
[[nodiscard]] double vm_hwm_mb(pid_t pid);

/// Frames one request: the command line, LF, and the LOAD body if any.
[[nodiscard]] std::string frame(const std::string& line,
                                const std::string& body = std::string());
/// Raw value of `key=` in a reply meta ("" when absent).
[[nodiscard]] std::string meta_token(const std::string& meta,
                                     const std::string& key);
/// Checks \p r against \p e; on mismatch returns a short reason.
[[nodiscard]] std::string check_reply(const Reply& r, const Expect& e);

}  // namespace gcrbench
