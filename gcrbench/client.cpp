#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gcrbench {

bool ReplyParser::next(Reply& out) {
  const std::size_t nl = buf_.find('\n', pos_);
  if (nl == std::string::npos) return false;
  std::string status = buf_.substr(pos_, nl - pos_);
  if (!status.empty() && status.back() == '\r') status.pop_back();
  std::size_t nbytes = 0;
  std::string meta;
  bool ok = false;
  if (status.rfind("OK ", 0) == 0) {
    ok = true;
    const char* p = status.c_str() + 3;
    char* end = nullptr;
    nbytes = std::strtoull(p, &end, 10);
    while (*end == ' ') ++end;
    meta = end;
  }
  if (buf_.size() - (nl + 1) < nbytes) return false;  // body incomplete
  out = Reply{};
  out.ok = ok;
  if (ok) {
    out.meta = std::move(meta);
    out.body = buf_.substr(nl + 1, nbytes);
  } else {
    out.err = status;
  }
  pos_ = nl + 1 + nbytes;
  if (pos_ > (1u << 16)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

Conn::Conn(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    throw std::runtime_error("connect 127.0.0.1:" + std::to_string(port) +
                             " failed");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

void Conn::send(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      throw std::runtime_error("send failed");
    }
  }
}

Reply Conn::recv() {
  Reply r;
  char buf[65536];
  while (!parser_.next(r)) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      parser_.feed(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      throw std::runtime_error("connection closed before reply");
    }
  }
  return r;
}

bool Conn::pump() {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      parser_.feed(buf, static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
}

Daemon spawn_daemon(const std::string& server) {
  Daemon d;
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) return d;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    return d;
  }
  if (pid == 0) {
    // The daemon must not outlive a harness that is killed mid-run.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(out_pipe[1], 1);
    std::vector<std::string> args{server,
                                  "--workers",
                                  std::to_string(kDaemonWorkers),
                                  "--cache",
                                  std::to_string(kDaemonCache),
                                  "--queue",
                                  std::to_string(kDaemonQueue),
                                  "--listen",
                                  "0"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(out_pipe[1]);
  std::string banner;
  char c = 0;
  while (banner.find('\n') == std::string::npos &&
         ::read(out_pipe[0], &c, 1) == 1) {
    banner.push_back(c);
  }
  ::close(out_pipe[0]);
  const std::size_t colon = banner.rfind(':');
  const long port =
      colon == std::string::npos
          ? 0
          : std::strtol(banner.c_str() + colon + 1, nullptr, 10);
  if (port <= 0 || port > 65535) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return d;
  }
  d.pid = pid;
  d.port = static_cast<std::uint16_t>(port);
  return d;
}

bool stop_daemon(Daemon& d) {
  if (d.pid <= 0) return true;
  ::kill(d.pid, SIGINT);
  int status = 0;
  bool exited = false;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < 20.0) {
    const pid_t r = ::waitpid(d.pid, &status, WNOHANG);
    if (r == d.pid) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!exited) {
    ::kill(d.pid, SIGKILL);
    ::waitpid(d.pid, &status, 0);
  }
  d.pid = -1;
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

std::string frame(const std::string& line, const std::string& body) {
  std::string out;
  out.reserve(line.size() + 1 + body.size());
  out += line;
  out += '\n';
  out += body;
  return out;
}

std::string command_line(const Request& q,
                         const std::vector<std::string>& pins) {
  const std::size_t at = q.line.find("{pin}");
  if (at == std::string::npos) return q.line;
  std::string line = q.line;
  line.replace(at, 5, q.pin < pins.size() ? pins[q.pin] : std::string());
  return line;
}

std::string meta_token(const std::string& meta, const std::string& key) {
  std::istringstream is(meta);
  std::string tok;
  while (is >> tok) {
    if (tok.size() > key.size() && tok.compare(0, key.size(), key) == 0 &&
        tok[key.size()] == '=') {
      return tok.substr(key.size() + 1);
    }
  }
  return std::string();
}

std::string check_reply(const Reply& r, const Expect& e) {
  if (!r.ok) return r.err;
  if (e.kind == Expect::Kind::kStats) {
    return r.body.find("requests_ok ") == std::string::npos
               ? "STATS body lacks requests_ok"
               : std::string();
  }
  if (r.body != e.body) return "body differs from the in-process reference";
  for (const std::string& tok : e.meta) {
    const std::size_t at = (" " + r.meta + " ").find(" " + tok + " ");
    if (at == std::string::npos) return "meta lacks " + tok;
  }
  return std::string();
}

}  // namespace gcrbench
