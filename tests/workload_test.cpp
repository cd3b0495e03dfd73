// Tests for the synthetic workload generators: every generated layout must
// satisfy the paper's placement restrictions for every seed (parameterized
// sweep), the figure replicas must have their designed properties, and
// generation must be *portably* deterministic — the serving layer's GEN
// verb promises that an identical seed materializes a byte-identical
// layout (and therefore the same content-addressed session key) on every
// platform, which golden hashes of the serialized text pin down.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/netlist_router.hpp"
#include "io/fnv1a.hpp"
#include "io/text_format.hpp"
#include "workload/figures.hpp"
#include "workload/floorplan.hpp"
#include "workload/netgen.hpp"
#include "workload/padring.hpp"
#include "workload/rng.hpp"

namespace {

using namespace gcr;

class FloorplanSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FloorplanSeedSweep, GeneratedPlacementIsAlwaysValid) {
  workload::FloorplanOptions opts;
  opts.seed = GetParam();
  opts.cell_count = 24;
  layout::Layout lay = workload::random_floorplan(opts);
  EXPECT_EQ(lay.cells().size(), 24u);
  EXPECT_TRUE(lay.valid()) << "seed " << GetParam() << ": "
                           << lay.validate().front().detail;

  workload::PinGenOptions pins;
  pins.seed = GetParam() * 13 + 1;
  workload::sprinkle_pins(lay, pins);
  workload::NetGenOptions nets;
  nets.seed = GetParam() * 17 + 3;
  nets.net_count = 16;
  workload::generate_nets(lay, nets);
  EXPECT_TRUE(lay.valid()) << "seed " << GetParam() << " after pins/nets: "
                           << lay.validate().front().detail;
  EXPECT_EQ(lay.nets().size(), 16u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloorplanSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233));

class FloorplanSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FloorplanSizeSweep, ScalesAcrossCellCounts) {
  workload::FloorplanOptions opts;
  opts.cell_count = GetParam();
  opts.seed = 99;
  const layout::Layout lay = workload::random_floorplan(opts);
  EXPECT_EQ(lay.cells().size(), GetParam());
  EXPECT_TRUE(lay.valid());
}

INSTANTIATE_TEST_SUITE_P(Sizes, FloorplanSizeSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128));

TEST(Floorplan, Deterministic) {
  workload::FloorplanOptions opts;
  opts.seed = 7;
  const auto a = workload::random_floorplan(opts);
  const auto b = workload::random_floorplan(opts);
  ASSERT_EQ(a.cells().size(), b.cells().size());
  for (std::size_t i = 0; i < a.cells().size(); ++i) {
    EXPECT_EQ(a.cells()[i].outline(), b.cells()[i].outline());
  }
}

TEST(Floorplan, RespectsRequestedSeparation) {
  workload::FloorplanOptions opts;
  opts.min_separation = 16;
  opts.cell_count = 12;
  opts.seed = 5;
  const auto lay = workload::random_floorplan(opts);
  for (std::size_t i = 0; i < lay.cells().size(); ++i) {
    for (std::size_t j = i + 1; j < lay.cells().size(); ++j) {
      EXPECT_GE(lay.cells()[i].outline().separation(lay.cells()[j].outline()),
                16);
    }
  }
}

TEST(NetGen, PinsLandOnCellBoundaries) {
  workload::FloorplanOptions opts;
  opts.seed = 3;
  layout::Layout lay = workload::random_floorplan(opts);
  workload::sprinkle_pins(lay);
  for (const auto& cell : lay.cells()) {
    for (const auto& term : cell.terminals()) {
      ASSERT_FALSE(term.pins.empty());
      for (const auto& pin : term.pins) {
        EXPECT_TRUE(cell.outline().on_boundary(pin.pos))
            << cell.name() << " pin " << pin.pos;
      }
    }
  }
}

TEST(NetGen, NetsUseDistinctCells) {
  workload::FloorplanOptions opts;
  opts.seed = 3;
  layout::Layout lay = workload::random_floorplan(opts);
  workload::sprinkle_pins(lay);
  workload::generate_nets(lay);
  for (const auto& net : lay.nets()) {
    std::vector<std::uint32_t> cells;
    for (const auto& ref : net.terminals()) cells.push_back(ref.cell.value);
    std::sort(cells.begin(), cells.end());
    EXPECT_EQ(std::adjacent_find(cells.begin(), cells.end()), cells.end())
        << net.name() << " repeats a cell";
  }
}

TEST(Figures, Figure1IsValidAndRoutable) {
  const auto q = workload::figure1_layout();
  EXPECT_TRUE(q.layout.valid());
  const spatial::ObstacleIndex idx(q.layout.boundary(), q.layout.obstacles());
  EXPECT_TRUE(idx.routable(q.s));
  EXPECT_TRUE(idx.routable(q.d));
}

TEST(Figures, InvertedCornerHasTieGeometry) {
  const auto q = workload::inverted_corner_layout();
  EXPECT_TRUE(q.layout.valid());
  // Manhattan distance equals the obstacle-avoiding optimum: the block only
  // grazes the bounding box, so several 80-length routes exist.
  EXPECT_EQ(manhattan(q.s, q.d), 80);
}

class MazeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MazeSweep, CombMazeValidAndSerpentine) {
  const auto q = workload::comb_maze(GetParam());
  ASSERT_TRUE(q.layout.valid()) << q.layout.validate().front().detail;
  const spatial::ObstacleIndex idx(q.layout.boundary(), q.layout.obstacles());
  ASSERT_TRUE(idx.routable(q.s));
  ASSERT_TRUE(idx.routable(q.d));
  const spatial::EscapeLineSet lines(idx);
  const route::GridlessRouter router(idx, lines);
  const auto r = router.route(q.s, q.d);
  ASSERT_TRUE(r.found);
  // The serpentine forces a detour well beyond the Manhattan distance, and
  // it grows with the tooth count.
  EXPECT_GT(r.length, manhattan(q.s, q.d) +
                          static_cast<geom::Cost>(GetParam()) * 50);
}

TEST_P(MazeSweep, SpiralMazeValidAndSerpentine) {
  const auto q = workload::spiral_maze(GetParam());
  ASSERT_TRUE(q.layout.valid()) << q.layout.validate().front().detail;
  const spatial::ObstacleIndex idx(q.layout.boundary(), q.layout.obstacles());
  ASSERT_TRUE(idx.routable(q.s));
  ASSERT_TRUE(idx.routable(q.d));
  const spatial::EscapeLineSet lines(idx);
  const route::GridlessRouter router(idx, lines);
  const auto r = router.route(q.s, q.d);
  ASSERT_TRUE(r.found);
  EXPECT_GT(r.length, manhattan(q.s, q.d));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MazeSweep, ::testing::Values(2, 3, 4, 6));

TEST(PadRing, PadsOnBoundaryAndNetsRoutable) {
  workload::FloorplanOptions fp;
  fp.seed = 9;
  fp.cell_count = 9;
  fp.boundary = geom::Rect{0, 0, 512, 512};
  layout::Layout lay = workload::random_floorplan(fp);
  workload::sprinkle_pins(lay);

  workload::PadRingOptions pr;
  pr.pads_per_side = 3;
  const std::size_t nets = workload::add_pad_ring(lay, pr);
  EXPECT_EQ(lay.pads().size(), 12u);
  EXPECT_EQ(nets, 12u);  // connected_pct = 100
  for (const auto& pad : lay.pads()) {
    EXPECT_TRUE(lay.boundary().on_boundary(pad.pins[0].pos))
        << pad.name << " " << pad.pins[0].pos;
  }
  ASSERT_TRUE(lay.valid()) << lay.validate().front().detail;

  const route::NetlistRouter router(lay);
  const auto result = router.route_all();
  EXPECT_EQ(result.failed, 0u);
}

TEST(PadRing, ConnectedFractionRespected) {
  workload::FloorplanOptions fp;
  fp.seed = 10;
  layout::Layout lay = workload::random_floorplan(fp);
  workload::sprinkle_pins(lay);
  workload::PadRingOptions pr;
  pr.pads_per_side = 8;
  pr.connected_pct = 0;
  EXPECT_EQ(workload::add_pad_ring(lay, pr), 0u);
  EXPECT_EQ(lay.pads().size(), 32u);
  EXPECT_TRUE(lay.nets().empty());
}

TEST(PadRing, MultiTerminalPadNets) {
  workload::FloorplanOptions fp;
  fp.seed = 11;
  layout::Layout lay = workload::random_floorplan(fp);
  workload::sprinkle_pins(lay);
  workload::PadRingOptions pr;
  pr.pads_per_side = 2;
  pr.extra_terminals = 2;
  workload::add_pad_ring(lay, pr);
  for (const auto& net : lay.nets()) {
    EXPECT_EQ(net.terminals().size(), 4u);  // pad + 1 + 2 extras
  }
  EXPECT_TRUE(lay.valid());
}

TEST(PadRing, NoCoreTerminalsNoNets) {
  workload::FloorplanOptions fp;
  fp.seed = 12;
  layout::Layout lay = workload::random_floorplan(fp);  // no pins sprinkled
  EXPECT_EQ(workload::add_pad_ring(lay, {}), 0u);
}

// ------------------------------------------------- portable determinism

TEST(PortableRng, BoundedDrawStaysInRangeAndIsSeedStable) {
  std::mt19937_64 rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(workload::bounded_u64(rng, 7), 7u);
  }
  EXPECT_EQ(workload::bounded_u64(rng, 0), 0u);
  EXPECT_EQ(workload::bounded_u64(rng, 1), 0u);
  // Identical seeds give identical draw sequences.
  std::mt19937_64 a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(workload::bounded_u64(a, 1000), workload::bounded_u64(b, 1000));
  }
}

TEST(PortableRng, UniformIntIsInclusiveAndSignedSafe) {
  std::mt19937_64 rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = workload::uniform_int(rng, -2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(workload::uniform_int(rng, 5, 5), 5);
}

TEST(PortableRng, UniformIntSurvivesExtremeRanges) {
  // Unsigned values above INT64_MAX and full-width spans used to collapse
  // to lo via signed-cast overflow (and span+1 wrapping to 0).
  std::mt19937_64 rng(9);
  const std::uint64_t big_lo = 1ull << 63;
  bool moved = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t v =
        workload::uniform_int(rng, big_lo, big_lo + 1000);
    EXPECT_GE(v, big_lo);
    EXPECT_LE(v, big_lo + 1000);
    moved |= v != big_lo;
  }
  EXPECT_TRUE(moved);

  // Full 64-bit span: every draw is just the engine output.
  std::mt19937_64 a(13), b(13);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(workload::uniform_int(
                  a, std::uint64_t{0},
                  std::numeric_limits<std::uint64_t>::max()),
              b());
  }

  // Full signed span exercises the same wrap-free path.
  std::mt19937_64 c(17);
  (void)workload::uniform_int(c, std::numeric_limits<std::int64_t>::min(),
                              std::numeric_limits<std::int64_t>::max());
}

TEST(PortableRng, ShuffleIsAPermutationAndSeedStable) {
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::mt19937_64 rng(11);
  workload::portable_shuffle(v.begin(), v.end(), rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> want(50);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(sorted, want);

  std::vector<int> w(50);
  std::iota(w.begin(), w.end(), 0);
  std::mt19937_64 rng2(11);
  workload::portable_shuffle(w.begin(), w.end(), rng2);
  EXPECT_EQ(v, w);
}

/// FNV-1a 64 over the serialized layout, seeded with 1469598103934665603
/// (the standard offset basis with its last digit dropped; the goldens
/// below were recorded with it).  Not the serve layer's content key, which
/// uses the standard basis.
std::uint64_t text_hash(const std::string& s) {
  return io::fnv1a(s, 1469598103934665603ull);
}

TEST(Determinism, GeneratedLayoutsMatchGoldenHashes) {
  // These goldens pin the byte-exact serialized output of each generator.
  // mt19937_64 is fully specified and the samplers in workload/rng.hpp
  // avoid every implementation-defined distribution, so the values must
  // hold on any platform and standard library.  A mismatch means a
  // generator changed behaviour: deliberate changes must bump these
  // constants (and accept that cached GEN session keys roll over).
  const std::string standard = io::write_layout_string(
      workload::standard_workload(12, 512, 20, 42));
  EXPECT_EQ(standard.size(), 2232u);
  EXPECT_EQ(text_hash(standard), 0x36a0e016607eb360ull);

  workload::FloorplanOptions fp;
  fp.cell_count = 10;
  fp.seed = 9;
  const std::string floorplan =
      io::write_layout_string(workload::random_floorplan(fp));
  EXPECT_EQ(floorplan.size(), 293u);
  EXPECT_EQ(text_hash(floorplan), 0x9e137c54357a5796ull);

  layout::Layout ring = workload::standard_workload(8, 512, 10, 23);
  workload::PadRingOptions pr;
  pr.seed = 26;
  workload::add_pad_ring(ring, pr);
  const std::string padring = io::write_layout_string(ring);
  EXPECT_EQ(padring.size(), 1795u);
  EXPECT_EQ(text_hash(padring), 0xe0f870f064d90c95ull);
}

TEST(Determinism, RepeatedGenerationIsByteIdentical) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1000ull}) {
    EXPECT_EQ(io::write_layout_string(
                  workload::standard_workload(10, 512, 14, seed)),
              io::write_layout_string(
                  workload::standard_workload(10, 512, 14, seed)))
        << "seed " << seed;
  }
}

}  // namespace
