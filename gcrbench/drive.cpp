// End-to-end load generation: repeated daemon setup, warm-up, and the timed
// closed-loop / open-loop windows over at most kMaxClients connections.

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "client.hpp"

namespace gcrbench {

namespace {

/// Total and stolen CPU jiffies from /proc/stat (zeros when unreadable): a
/// diagnostic of how much the host took from this machine during a window.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  double total = 0;
  for (const double x : v) total += x;
  return {total, v[7]};
}

/// A fixed single-thread integer loop, independent of the code under test:
/// its time, taken before every round, is the run's machine-speed
/// reference (bench.calib_ms).
double calibration_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ull + 1;
  const double ms = micros_between(t0, Clock::now()) / 1000.0;
  return x == 0 ? ms + 1 : ms;  // keeps the loop observable
}

/// Repeated set-ups are timed and the median reported.
constexpr int kSetups = 5;
/// Warm-up per connection: one full cycle, or this long, whichever is first.
constexpr double kWarmupS = 1.0;

/// What one client thread observed.
struct Tally {
  std::vector<double> lat_us;
  std::vector<double> late_us;
  std::vector<double> wire_us;
  std::map<std::string, std::vector<double>> verb_us;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t nets_attempted = 0;
  std::size_t nets_routed = 0;
  long long indep_wirelength = 0;
  std::size_t indep_routed = 0;
  std::string first_mismatch;

  void merge(const Tally& o) {
    lat_us.insert(lat_us.end(), o.lat_us.begin(), o.lat_us.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    wire_us.insert(wire_us.end(), o.wire_us.begin(), o.wire_us.end());
    for (const auto& [verb, v] : o.verb_us) {
      verb_us[verb].insert(verb_us[verb].end(), v.begin(), v.end());
    }
    attempted += o.attempted;
    failed += o.failed;
    nets_attempted += o.nets_attempted;
    nets_routed += o.nets_routed;
    indep_wirelength += o.indep_wirelength;
    indep_routed += o.indep_routed;
    if (first_mismatch.empty()) first_mismatch = o.first_mismatch;
  }
};

/// Accounts one reply: correctness gate, quality counters, wire overhead.
void account(Tally& t, const Request& q, const Reply& r, double rtt_us,
             bool sample) {
  ++t.attempted;
  const std::string why = check_reply(r, *q.expect);
  if (!why.empty()) {
    ++t.failed;
    if (t.first_mismatch.empty()) t.first_mismatch = q.verb + ": " + why;
    return;
  }
  const Expect& e = *q.expect;
  if (e.routing) {
    t.nets_attempted += e.routed + e.failed;
    t.nets_routed += e.routed;
    if (e.independent) {
      t.indep_wirelength += e.wirelength;
      t.indep_routed += e.routed;
    }
  }
  if (!sample) return;
  const std::string total = meta_token(r.meta, "total_us");
  if (!total.empty()) t.wire_us.push_back(rtt_us - std::stod(total));
}

std::string line_for(const Request& q, const std::vector<std::string>& pins) {
  return frame(command_line(q, pins), q.body);
}

/// A daemon plus its workload connections, set up and ready.
struct Session {
  Daemon daemon;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<std::vector<std::string>> pins;  ///< handles per connection
};

/// Spawn until the first HELLO answers, then every LOAD and PIN the
/// workload needs.  Returns the set-up time in seconds.
double setup(const Args& args, const Workload& w, Session& s) {
  const auto t0 = Clock::now();
  s.daemon = spawn_daemon(args.server);
  if (s.daemon.pid < 0) throw std::runtime_error("cannot spawn gcr_serve");
  for (std::size_t i = 0; i < w.streams.size(); ++i) {
    s.conns.push_back(std::make_unique<Conn>(s.daemon.port));
  }
  Conn& c0 = *s.conns.front();
  c0.send(frame("HELLO"));
  if (!c0.recv().ok) throw std::runtime_error("HELLO refused");
  // LOADs are pipelined so cold builds overlap on the worker pool.
  std::string loads;
  for (const LayoutCase& l : w.layouts) {
    loads += frame("LOAD " + std::to_string(l.text.size()), l.text);
  }
  c0.send(loads);
  for (const LayoutCase& l : w.layouts) {
    const Reply r = c0.recv();
    if (!r.ok || meta_token(r.meta, "session") != l.key) {
      throw std::runtime_error("LOAD failed: " + r.err);
    }
  }
  // PINs are pipelined per connection; each connection owns its pins.
  s.pins.assign(s.conns.size(), {});
  for (std::size_t i = 0; i < s.conns.size(); ++i) {
    std::string pins;
    for (const std::string& key : w.pins[i]) pins += frame("PIN " + key);
    if (!pins.empty()) s.conns[i]->send(pins);
  }
  for (std::size_t i = 0; i < s.conns.size(); ++i) {
    for (std::size_t k = 0; k < w.pins[i].size(); ++k) {
      const Reply r = s.conns[i]->recv();
      const std::string handle = meta_token(r.meta, "pin");
      if (!r.ok || handle.empty()) {
        throw std::runtime_error("PIN failed: " + r.err);
      }
      s.pins[i].push_back(handle);
    }
  }
  return seconds_since(t0);
}

void teardown(Session& s, RunResult& res) {
  s.conns.clear();
  if (!stop_daemon(s.daemon)) res.clean_exit = false;
}

/// Closed loop on one connection: the next request leaves when the previous
/// reply lands.  Lateness is the generator's own turnaround (reply received
/// to next request sent).  Returns the cycle index it stopped at.
std::size_t closed_loop(Conn& c, const std::vector<Request>& cycle,
                        const std::vector<std::string>& pins,
                        std::size_t start,
                        Clock::time_point end, std::size_t max_requests,
                        bool sample, Tally& t) {
  std::size_t i = start;
  auto last_reply = Clock::now();
  for (std::size_t n = 0; n < max_requests && Clock::now() < end; ++n, ++i) {
    const Request& q = cycle[i % cycle.size()];
    const std::string bytes = line_for(q, pins);
    const auto sent = Clock::now();
    c.send(bytes);
    const Reply r = c.recv();
    const auto got = Clock::now();
    const double rtt = micros_between(sent, got);
    if (sample) {
      t.lat_us.push_back(rtt);
      t.verb_us[q.verb].push_back(rtt);
      if (n > 0) t.late_us.push_back(micros_between(last_reply, sent));
    }
    last_reply = got;
    account(t, q, r, rtt, sample);
  }
  return i;
}

/// Runs closed_loop on every connection concurrently: connection 0 on the
/// calling thread, each other one on a thread of its own.
void closed_phase(Session& s, const Workload& w, std::vector<std::size_t>& at,
                  double seconds, std::size_t max_requests, bool sample,
                  Tally& total) {
  std::vector<Tally> tallies(s.conns.size());
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  std::vector<std::string> errors(s.conns.size());
  const auto drive = [&](std::size_t i) {
    try {
      at[i] = closed_loop(*s.conns[i], w.streams[i], s.pins[i], at[i], end,
                          max_requests, sample, tallies[i]);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t i = 1; i < s.conns.size(); ++i) threads.emplace_back(drive, i);
  drive(0);
  for (std::thread& th : threads) th.join();
  for (std::size_t i = 0; i < s.conns.size(); ++i) {
    if (!errors[i].empty()) throw std::runtime_error(errors[i]);
    total.merge(tallies[i]);
  }
}

/// Open loop: streams[0] is issued at a fixed offered rate, round-robin over
/// every connection, pipelined.  Latency runs from each request's due time,
/// so a stalled generator cannot hide queueing (no coordinated omission).
void open_phase(Session& s, const Workload& w, double seconds,
                std::size_t& stream_at, Tally& t) {
  const std::vector<Request>& stream = w.streams.front();
  struct Inflight {
    Clock::time_point due;
    Clock::time_point sent;
    const Request* req;
  };
  const std::size_t nconn = s.conns.size();
  std::vector<std::deque<Inflight>> inflight(nconn);
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  for (std::size_t i = 0; i < nconn; ++i) {
    ::epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, s.conns[i]->fd(), &ev);
  }
  const auto total = static_cast<std::size_t>(w.offered_rps * seconds);
  const auto gap = std::chrono::duration<double>(1.0 / w.offered_rps);
  const auto t0 = Clock::now();
  const auto due_at = [&](std::size_t k) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    gap * static_cast<double>(k));
  };
  const auto hard_stop = due_at(total) + std::chrono::seconds(10);
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::array<::epoll_event, 16> events{};
  while ((next < total || outstanding > 0) && Clock::now() < hard_stop) {
    auto now = Clock::now();
    while (next < total && now >= due_at(next)) {
      const std::size_t ci = next % nconn;
      const Request& q = stream[(stream_at + next) % stream.size()];
      s.conns[ci]->send(line_for(q, {}));
      inflight[ci].push_back({due_at(next), Clock::now(), &q});
      ++outstanding;
      ++next;
      now = Clock::now();
    }
    int timeout_ms = 10;
    if (next < total) {
      const auto wait = std::chrono::duration_cast<std::chrono::microseconds>(
                            due_at(next) - Clock::now())
                            .count();
      timeout_ms = wait <= 0 ? 0 : static_cast<int>(wait / 1000);
    }
    const int n = ::epoll_wait(ep, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    for (int e = 0; e < n; ++e) {
      const std::size_t ci = events[static_cast<std::size_t>(e)].data.u64;
      Conn& c = *s.conns[ci];
      if (!c.pump()) throw std::runtime_error("connection lost mid-run");
      Reply r;
      while (c.parser().next(r)) {
        if (inflight[ci].empty()) {
          throw std::runtime_error("reply without a request");
        }
        const Inflight f = inflight[ci].front();
        inflight[ci].pop_front();
        --outstanding;
        const auto got = Clock::now();
        t.lat_us.push_back(micros_between(f.due, got));
        t.verb_us[f.req->verb].push_back(micros_between(f.due, got));
        t.late_us.push_back(micros_between(f.due, f.sent));
        account(t, *f.req, r, micros_between(f.sent, got), true);
      }
    }
  }
  ::close(ep);
  stream_at += next;
  t.attempted += outstanding;  // never answered within the grace period
  t.failed += outstanding;
}

}  // namespace

RunResult run_end_to_end(const Args& args, const Workload& w) {
  RunResult res;
  Session s;
  try {
    for (int k = 0; k < kSetups; ++k) {
      if (k > 0) teardown(s, res);
      s = Session{};
      res.setup_s.push_back(setup(args, w, s));
    }

    Tally warm;
    std::vector<std::size_t> at(s.conns.size(), 0);
    std::size_t longest = 0;
    for (const auto& st : w.streams) longest = std::max(longest, st.size());
    closed_phase(s, w, at, kWarmupS, longest, false, warm);

    // The window is split into rounds; per-round latency and throughput
    // figures are reported from the best-quartile round (main.cpp), so host
    // noise that hits some rounds cannot move them.
    Tally timed;
    std::size_t open_at = 0;
    const auto jiffies0 = cpu_jiffies();
    const auto rounds = static_cast<std::size_t>(
        std::max(1.0, std::floor(args.seconds / w.round_s)));
    const double round_s = args.seconds / static_cast<double>(rounds);
    for (std::size_t k = 0; k < rounds; ++k) {
      res.calib_ms.push_back(calibration_ms());
      Round round;
      double closed_s = round_s;
      if (w.open_loop) {
        const double open_s = round_s * w.open_share;
        closed_s = round_s - open_s;
        Tally open;
        open_phase(s, w, open_s, open_at, open);
        round.lat_us = open.lat_us;
        timed.merge(open);
      }
      Tally closed;
      const auto c0 = Clock::now();
      closed_phase(s, w, at, closed_s, static_cast<std::size_t>(-1), true,
                   closed);
      round.req_s =
          static_cast<double>(closed.attempted) / seconds_since(c0);
      if (w.open_loop) {
        // Closed-loop replies price throughput only; latency is open-loop.
        closed.lat_us.clear();
        closed.late_us.clear();
        closed.verb_us.clear();
      } else {
        round.lat_us = closed.lat_us;
      }
      timed.merge(closed);
      res.rounds.push_back(std::move(round));
    }
    const auto jiffies1 = cpu_jiffies();
    if (jiffies1.first > jiffies0.first) {
      res.steal_pct = 100.0 * (jiffies1.second - jiffies0.second) /
                      (jiffies1.first - jiffies0.first);
    }
    res.lat_us = std::move(timed.lat_us);
    res.late_us = std::move(timed.late_us);
    res.verb_us = std::move(timed.verb_us);
    res.wire_us = std::move(timed.wire_us);
    res.attempted = warm.attempted + timed.attempted;
    res.failed = warm.failed + timed.failed;
    res.nets_attempted = timed.nets_attempted;
    res.nets_routed = timed.nets_routed;
    res.indep_wirelength = timed.indep_wirelength;
    res.indep_routed = timed.indep_routed;
    res.first_mismatch =
        warm.first_mismatch.empty() ? timed.first_mismatch
                                    : warm.first_mismatch;

    Conn& c = *s.conns.front();
    c.send(frame("STATS"));
    const Reply stats = c.recv();
    res.stats = stats.body;
    res.rss_mb = vm_hwm_mb(s.daemon.pid);
    teardown(s, res);
  } catch (const std::exception& e) {
    res.ok = false;
    res.error = e.what();
    s.conns.clear();
    if (s.daemon.pid > 0) stop_daemon(s.daemon);
  }
  return res;
}

}  // namespace gcrbench
