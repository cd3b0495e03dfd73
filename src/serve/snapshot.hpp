#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/route_types.hpp"
#include "geometry/geometry.hpp"
#include "serve/pinned_session.hpp"
#include "spatial/escape_lines.hpp"

/// \file snapshot.hpp
/// Pin persistence (SAVE, the save sweep, `--restore-dir`): the versioned
/// binary format, the compaction of a pin's live state into it, the
/// durable file publish and the directory restore.
///
/// A snapshot captures everything a restarted server needs to answer for a
/// pin without re-deriving it: the layout text (round-trip exact), the
/// *compacted* live view of the pin's ObstacleIndex and EscapeLineSet (the
/// expensive traced state — restoring re-derives only lookup tables, never
/// re-traces), the per-net commit records, and the per-net routed results
/// that back the route dumps.  Tombstones are compacted away at encode
/// time, so the blob is the canonical post-compaction state the file-level
/// docs promise.
///
/// Format (all integers little-endian):
///
/// ```text
/// magic    8 bytes  "GCRSNAP\n"
/// version  u32      1
/// size     u64      payload byte count (exactly the remaining bytes)
/// checksum u64      FNV-1a 64 over the payload, seeded with
///                   kSnapshotChecksumSeed
/// payload  …        fields in PinSnapshot order; strings are u64 length +
///                   bytes, maps/vectors are u64 count + entries
/// ```
///
/// The checksum seed is not the standard FNV-1a offset basis
/// (14695981039346656037) but that number with its last digit dropped.
/// Every snapshot on disk was written with it, so it is part of the format:
/// "correcting" it would make every existing file fail its checksum.
///
/// Decoding is invalid-on-partial-read, mirroring the environment's
/// UpdateGuard contract: any truncation, trailing garbage, checksum
/// mismatch, or structural violation (a non-axis-parallel segment, a line
/// table whose size disagrees with the obstacle count, an out-of-range
/// commit record) throws std::runtime_error and yields *nothing* — the
/// caller registers a pin only after the whole blob decoded, so a corrupt
/// file leaves the session absent, never half-restored.

namespace gcr::serve {

inline constexpr char kSnapshotMagic[8] = {'G', 'C', 'R', 'S',
                                           'N', 'A', 'P', '\n'};
inline constexpr std::uint32_t kSnapshotVersion = 1;
/// The header checksum's FNV-1a seed (see the format block).
inline constexpr std::uint64_t kSnapshotChecksumSeed = 1469598103934665603ull;

/// The serializable state of one pinned session.  `routes` entries carry
/// ok/wirelength/segments — exactly what the route dump renders; per-
/// connection search statistics are diagnostics of the original run and
/// are not preserved.
struct PinSnapshot {
  std::string handle;
  std::string base_key;
  std::string layout_text;  ///< io::write_layout_string (round-trip exact)
  std::size_t base_obstacles = 0;
  geom::Rect boundary;
  std::vector<geom::Rect> obstacles;       ///< live, compacted order
  std::vector<spatial::EscapeLine> lines;  ///< 4 + 4 * obstacles.size()
  std::map<std::size_t, std::vector<std::size_t>> committed;
  std::map<std::size_t, route::NetRoute> routes;
};

/// Renders the framed binary blob.
[[nodiscard]] std::string encode_snapshot(const PinSnapshot& snap);

/// Parses and validates a blob.  Throws std::runtime_error on any
/// corruption (see file comment); never returns a partial snapshot.
[[nodiscard]] PinSnapshot decode_snapshot(const std::string& blob);

/// Writes \p pin's compacted live state to `dir/name` durably: a `.tmp`
/// file is written and fsync()ed, renamed over the target, and the rename
/// is synced through the directory, so a crash leaves the old snapshot or
/// the new one.  Returns the blob size.  Throws std::runtime_error with the
/// reason: \p name is not a plain file name, the pin's tables are out of
/// step, or the file system failed.  The caller holds the pin's ticket turn.
std::uint64_t save_snapshot(const std::string& dir, const std::string& name,
                            const PinnedSession& pin);

/// Registers every decodable snapshot in \p dir with \p pins as an unowned
/// pin.  When several files carry one handle, the newest (last write time,
/// then path) wins and the older ones are skipped with a stderr warning,
/// as are an unreadable directory, a corrupt file and a handle already
/// registered.  Rebuilds lookup tables only — never an environment.
/// Returns how many pins were registered.
std::size_t restore_snapshots(const std::string& dir, PinRegistry& pins);

}  // namespace gcr::serve
