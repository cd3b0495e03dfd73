#include "serve/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <utility>

#include "io/fnv1a.hpp"
#include "io/text_format.hpp"

namespace gcr::serve {

namespace {

namespace fs = std::filesystem;

// ---- encoding ----------------------------------------------------------

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out += static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out += static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_u8(std::string& out, std::uint8_t v) {
  out += static_cast<char>(v);
}

void put_str(std::string& out, const std::string& s) {
  put_u64(out, s.size());
  out += s;
}

void put_rect(std::string& out, const geom::Rect& r) {
  put_i64(out, r.xlo);
  put_i64(out, r.ylo);
  put_i64(out, r.xhi);
  put_i64(out, r.yhi);
}

// ---- decoding ----------------------------------------------------------

/// Bounds-checked cursor over the payload; every read throws on overrun,
/// so a truncated blob can never yield a value.
class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}

  std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::uint8_t u8() {
    require(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::string str(std::uint64_t max_len) {
    const std::uint64_t n = u64();
    if (n > max_len) throw std::runtime_error("snapshot: string too long");
    require(n);
    std::string s(data_ + pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  geom::Rect rect() {
    geom::Rect r;
    r.xlo = i64();
    r.ylo = i64();
    r.xhi = i64();
    r.yhi = i64();
    return r;
  }

  /// A count that will allocate `elem_bytes`-sized records: bounded by the
  /// remaining payload so a corrupt length cannot drive a huge reserve.
  std::uint64_t count(std::size_t elem_bytes) {
    const std::uint64_t n = u64();
    if (elem_bytes > 0 && n > remaining() / elem_bytes) {
      throw std::runtime_error("snapshot: count exceeds payload");
    }
    return n;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == size_; }

 private:
  void require(std::uint64_t n) {
    if (n > size_ - pos_) throw std::runtime_error("snapshot: truncated");
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---- pins and files ----------------------------------------------------

/// The compacted live view of \p pin: tombstones vanish, survivors are
/// renumbered densely, and the line set and commit records follow the
/// remap.
PinSnapshot compact(const PinnedSession& pin) {
  PinSnapshot snap;
  snap.handle = pin.handle;
  snap.base_key = pin.base_key;
  snap.layout_text = io::write_layout_string(*pin.layout);
  const spatial::ObstacleIndex& index = pin.env.index();
  const std::vector<spatial::EscapeLine>& lines = pin.env.lines().lines();
  if (lines.size() != 4 + 4 * index.size()) {
    throw std::runtime_error("snapshot: line table out of step with the index");
  }
  snap.boundary = index.boundary();
  snap.base_obstacles = index.live_size() - pin.env.committed();
  std::vector<std::size_t> remap(index.size(), spatial::ObstacleIndex::npos);
  snap.obstacles.reserve(index.live_size());
  snap.lines.reserve(4 + 4 * index.live_size());
  for (std::size_t k = 0; k < 4; ++k) {
    spatial::EscapeLine l = lines[k];
    l.dead = false;
    snap.lines.push_back(l);
  }
  for (std::size_t i = 0; i < index.size(); ++i) {
    if (!index.alive(i)) continue;
    remap[i] = snap.obstacles.size();
    snap.obstacles.push_back(index.obstacles()[i]);
    for (std::size_t k = 0; k < 4; ++k) {
      spatial::EscapeLine l = lines[4 + 4 * i + k];
      l.source = remap[i];
      l.dead = false;
      snap.lines.push_back(l);
    }
  }
  for (const auto& [net, record] : pin.env.committed_records()) {
    std::vector<std::size_t> renumbered;
    renumbered.reserve(record.size());
    for (const std::size_t slot : record) {
      if (slot >= remap.size() || remap[slot] == spatial::ObstacleIndex::npos) {
        throw std::runtime_error(
            "snapshot: commit record references a dead obstacle");
      }
      renumbered.push_back(remap[slot]);
    }
    snap.committed.emplace(net, std::move(renumbered));
  }
  snap.routes = pin.routes;
  return snap;
}

/// fsync()s \p path opened with \p flags; throws the reason on failure.
void sync_path(const fs::path& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0 || ::fsync(fd) != 0) {
    const std::string reason = std::strerror(errno);
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot sync '" + path.string() + "': " + reason);
  }
  ::close(fd);
}

/// Decodes \p blob into an unregistered, unowned pin.  Throws on any
/// corruption, so a bad file never yields a half-restored session.
std::shared_ptr<PinnedSession> restore_pin(const std::string& blob) {
  PinSnapshot snap = decode_snapshot(blob);
  auto lay = std::make_shared<const layout::Layout>(
      io::read_layout_string(snap.layout_text));
  const std::size_t n_nets = lay->nets().size();
  for (const auto& [net, record] : snap.committed) {
    if (net >= n_nets) {
      throw std::runtime_error("snapshot: commit record for unknown net");
    }
  }
  for (const auto& [net, r] : snap.routes) {
    if (net >= n_nets) {
      throw std::runtime_error("snapshot: route record for unknown net");
    }
  }

  // Rebuild *lookup tables only* from the serialized live state: the
  // ObstacleIndex ctor sorts/buckets the given rects and the line set
  // re-sorts the given lines — no tracing, no environment build (the build
  // counter stays untouched; tests assert it).
  spatial::ObstacleIndex index(snap.boundary, snap.obstacles);
  spatial::EscapeLineSet lines =
      spatial::EscapeLineSet::restore(std::move(snap.lines));
  route::SearchEnvironment env = route::SearchEnvironment::restore(
      std::move(index), std::move(lines), snap.base_obstacles,
      std::move(snap.committed));
  auto names = std::make_shared<const NetIndex>(build_net_index(*lay));
  auto pin = std::make_shared<PinnedSession>(
      std::move(snap.handle), std::move(snap.base_key), std::move(lay),
      std::move(names), std::move(env));
  pin->routes = std::move(snap.routes);
  return pin;
}

}  // namespace

std::string encode_snapshot(const PinSnapshot& snap) {
  std::string payload;
  put_str(payload, snap.handle);
  put_str(payload, snap.base_key);
  put_str(payload, snap.layout_text);
  put_u64(payload, snap.base_obstacles);
  put_rect(payload, snap.boundary);
  put_u64(payload, snap.obstacles.size());
  for (const geom::Rect& r : snap.obstacles) put_rect(payload, r);
  put_u64(payload, snap.lines.size());
  for (const spatial::EscapeLine& l : snap.lines) {
    put_u8(payload, l.axis == geom::Axis::kX ? 0 : 1);
    put_i64(payload, l.track);
    put_i64(payload, l.span.lo);
    put_i64(payload, l.span.hi);
    put_u64(payload, l.source);
  }
  put_u64(payload, snap.committed.size());
  for (const auto& [net, record] : snap.committed) {
    put_u64(payload, net);
    put_u64(payload, record.size());
    for (const std::size_t slot : record) put_u64(payload, slot);
  }
  put_u64(payload, snap.routes.size());
  for (const auto& [net, r] : snap.routes) {
    put_u64(payload, net);
    put_u8(payload, r.ok ? 1 : 0);
    put_i64(payload, r.wirelength);
    put_u64(payload, r.segments.size());
    for (const geom::Segment& s : r.segments) {
      put_i64(payload, s.a.x);
      put_i64(payload, s.a.y);
      put_i64(payload, s.b.x);
      put_i64(payload, s.b.y);
    }
  }

  std::string out(kSnapshotMagic, sizeof(kSnapshotMagic));
  put_u32(out, kSnapshotVersion);
  put_u64(out, payload.size());
  put_u64(out, io::fnv1a(payload, kSnapshotChecksumSeed));
  out += payload;
  return out;
}

PinSnapshot decode_snapshot(const std::string& blob) {
  constexpr std::size_t kHeader = sizeof(kSnapshotMagic) + 4 + 8 + 8;
  if (blob.size() < kHeader) {
    throw std::runtime_error("snapshot: truncated header");
  }
  if (std::memcmp(blob.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    throw std::runtime_error("snapshot: bad magic");
  }
  Reader header(blob.data() + sizeof(kSnapshotMagic), kHeader -
                sizeof(kSnapshotMagic));
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(header.u8()) << (8 * i);
  }
  if (version != kSnapshotVersion) {
    throw std::runtime_error("snapshot: unsupported version " +
                             std::to_string(version));
  }
  const std::uint64_t declared = header.u64();
  const std::uint64_t checksum = header.u64();
  if (blob.size() - kHeader != declared) {
    throw std::runtime_error("snapshot: payload size mismatch");
  }
  const char* payload = blob.data() + kHeader;
  if (io::fnv1a(std::string_view(payload, static_cast<std::size_t>(declared)),
                kSnapshotChecksumSeed) != checksum) {
    throw std::runtime_error("snapshot: checksum mismatch");
  }

  Reader r(payload, static_cast<std::size_t>(declared));
  PinSnapshot snap;
  snap.handle = r.str(4096);
  snap.base_key = r.str(4096);
  snap.layout_text = r.str(1ull << 30);
  snap.base_obstacles = static_cast<std::size_t>(r.u64());
  snap.boundary = r.rect();

  const std::uint64_t n_obstacles = r.count(32);
  snap.obstacles.reserve(static_cast<std::size_t>(n_obstacles));
  for (std::uint64_t i = 0; i < n_obstacles; ++i) {
    snap.obstacles.push_back(r.rect());
  }
  if (snap.base_obstacles > snap.obstacles.size()) {
    throw std::runtime_error("snapshot: base obstacle count out of range");
  }

  const std::uint64_t n_lines = r.count(33);
  if (n_lines != 4 + 4 * n_obstacles) {
    throw std::runtime_error(
        "snapshot: line count disagrees with obstacle count");
  }
  snap.lines.reserve(static_cast<std::size_t>(n_lines));
  for (std::uint64_t i = 0; i < n_lines; ++i) {
    spatial::EscapeLine l;
    const std::uint8_t axis = r.u8();
    if (axis > 1) throw std::runtime_error("snapshot: bad line axis");
    l.axis = axis == 0 ? geom::Axis::kX : geom::Axis::kY;
    l.track = r.i64();
    l.span.lo = r.i64();
    l.span.hi = r.i64();
    l.source = static_cast<std::size_t>(r.u64());
    // The from-scratch layout invariant restore() relies on: boundary
    // lines first (source npos), then slot 4 + 4i + k sourced from i.
    const std::size_t expect =
        i < 4 ? spatial::EscapeLine::npos : static_cast<std::size_t>((i - 4) / 4);
    if (l.source != expect) {
      throw std::runtime_error("snapshot: line source out of order");
    }
    snap.lines.push_back(l);
  }

  const std::uint64_t n_committed = r.count(16);
  for (std::uint64_t i = 0; i < n_committed; ++i) {
    const std::size_t net = static_cast<std::size_t>(r.u64());
    const std::uint64_t n_slots = r.count(8);
    std::vector<std::size_t> record;
    record.reserve(static_cast<std::size_t>(n_slots));
    for (std::uint64_t j = 0; j < n_slots; ++j) {
      const std::size_t slot = static_cast<std::size_t>(r.u64());
      if (slot >= snap.obstacles.size() || slot < snap.base_obstacles) {
        throw std::runtime_error("snapshot: commit record out of range");
      }
      record.push_back(slot);
    }
    if (!snap.committed.emplace(net, std::move(record)).second) {
      throw std::runtime_error("snapshot: duplicate commit record");
    }
  }

  const std::uint64_t n_routes = r.count(25);
  for (std::uint64_t i = 0; i < n_routes; ++i) {
    const std::size_t net = static_cast<std::size_t>(r.u64());
    route::NetRoute nr;
    const std::uint8_t ok = r.u8();
    if (ok > 1) throw std::runtime_error("snapshot: bad route flag");
    nr.ok = ok == 1;
    nr.wirelength = r.i64();
    const std::uint64_t n_segs = r.count(32);
    nr.segments.reserve(static_cast<std::size_t>(n_segs));
    for (std::uint64_t j = 0; j < n_segs; ++j) {
      geom::Point a{r.i64(), r.i64()};
      geom::Point b{r.i64(), r.i64()};
      if (a.x != b.x && a.y != b.y) {
        throw std::runtime_error("snapshot: non-rectilinear segment");
      }
      nr.segments.emplace_back(a, b);
    }
    if (!snap.routes.emplace(net, std::move(nr)).second) {
      throw std::runtime_error("snapshot: duplicate route record");
    }
  }

  if (!r.done()) throw std::runtime_error("snapshot: trailing bytes");
  return snap;
}

std::uint64_t save_snapshot(const std::string& dir, const std::string& name,
                            const PinnedSession& pin) {
  if (name.empty() || name.front() == '.' ||
      name.find('/') != std::string::npos ||
      name.find('\\') != std::string::npos) {
    throw std::runtime_error("SAVE name must be a plain file name");
  }
  const std::string blob = encode_snapshot(compact(pin));
  const fs::path root(dir);
  std::error_code ec;
  fs::create_directories(root, ec);  // best effort; the open below reports
  const fs::path tmp = root / (name + ".tmp");
  // The blob reaches the disk before the rename makes it visible, and the
  // rename itself is synced through the directory — never a
  // renamed-but-empty file (a stray .tmp fails restore's decode).
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot write snapshot file '" + tmp.string() +
                               "'");
    }
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("short write to snapshot file '" +
                               tmp.string() + "'");
    }
  }
  sync_path(tmp, O_RDONLY);
  fs::rename(tmp, root / name, ec);
  if (ec) {
    throw std::runtime_error("cannot publish snapshot file: " + ec.message());
  }
  sync_path(root, O_RDONLY | O_DIRECTORY);
  return blob.size();
}

std::size_t restore_snapshots(const std::string& dir, PinRegistry& pins) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    std::cerr << "gcr_serve: cannot read restore dir '" << dir
              << "': " << ec.message() << "\n";
    return 0;
  }
  // Decode every file first and keep the newest per handle: the directory
  // iterator's order is arbitrary, so adopting the first file seen would
  // let an older SAVE shadow a newer one.  Equal times fall back to the
  // path, so the choice never depends on the iteration order.
  struct Candidate {
    fs::file_time_type mtime;
    std::string path;
    std::shared_ptr<PinnedSession> pin;
  };
  std::map<std::string, Candidate> newest;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    Candidate c{{}, entry.path().string(), nullptr};
    try {
      c.mtime = entry.last_write_time();
      std::ifstream in(entry.path(), std::ios::binary);
      if (!in) throw std::runtime_error("cannot open");
      const std::string blob((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      c.pin = restore_pin(blob);
    } catch (const std::exception& e) {
      std::cerr << "gcr_serve: skipping snapshot '" << c.path
                << "': " << e.what() << "\n";
      continue;
    }
    const auto [slot, fresh] = newest.try_emplace(c.pin->handle);
    Candidate& kept = slot->second;
    if (!fresh) {
      const bool newer =
          std::tie(c.mtime, c.path) > std::tie(kept.mtime, kept.path);
      const Candidate& older = newer ? kept : c;
      std::cerr << "gcr_serve: skipping snapshot '" << older.path
                << "': older than '" << (newer ? c : kept).path
                << "' for handle '" << c.pin->handle << "'\n";
      if (!newer) continue;
    }
    kept = std::move(c);
  }
  std::size_t restored = 0;
  for (auto& [handle, c] : newest) {
    if (pins.adopt(std::move(c.pin))) {
      ++restored;
    } else {
      std::cerr << "gcr_serve: skipping snapshot '" << c.path
                << "': duplicate handle\n";
    }
  }
  return restored;
}

}  // namespace gcr::serve
