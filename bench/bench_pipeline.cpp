// E15 — pipeline stages: dormant engines run against committed routes.
//
// Every stage is a pure function of (layout, committed routes, options), so
// its protocol-ready output — meta fields and framed body — is byte-stable
// across machines.  The table below prints, per seed and stage, the body
// size and an FNV-1a hash of meta+body: the cheapest possible end-to-end
// regression surface for four engines at once (detail tracks, congestion
// passes, verifier verdicts, SVG rendering).  CI diffs the JSON dump
// against a committed baseline, so a stage whose output drifts fails the
// build instead of silently invalidating every cached result in the fleet.
//
// Set GCR_PIPELINE_STAGES_OUT=<path> to write the same table as JSON.
// Regenerate the baseline after an *intentional* engine change by running
// ./build/bench_pipeline --benchmark_filter=NONE with that variable set to
// bench/baselines/bench_pipeline_stages.json.
//
// The BM_ timings answer the serving question: what does a stage verb cost
// on a warm session (run_stage from scratch) versus a stage-cache hit
// (one map lookup + LRU touch)?

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/netlist_router.hpp"
#include "core/search_environment.hpp"
#include "io/fnv1a.hpp"
#include "pipeline/route_state.hpp"
#include "pipeline/stage.hpp"
#include "pipeline/stage_cache.hpp"
#include "pipeline/stage_runner.hpp"

namespace {

using namespace gcr;

// Fixed corpus: the stage outputs are the regression surface, so the seeds
// must not float.  Extent/net counts match the serve-path tests.
constexpr std::size_t kCells = 12;
constexpr geom::Coord kExtent = 512;
constexpr std::size_t kNets = 24;
constexpr std::uint64_t kSeeds[] = {11, 29, 47};

constexpr pipeline::StageKind kKinds[] = {
    pipeline::StageKind::kDetail, pipeline::StageKind::kCongest,
    pipeline::StageKind::kVerify, pipeline::StageKind::kSvg};

/// A layout with its environment and committed (full-ROUTE) routes — the
/// exact inputs the serving path hands run_stage.
struct Session {
  layout::Layout lay;
  route::SearchEnvironment env;
  route::NetlistResult routes;
  std::string routes_fp;

  explicit Session(std::uint64_t seed)
      : lay(bench::make_workload(kCells, kExtent, kNets, seed)),
        env(lay),
        routes(route::NetlistRouter(lay).route_all()),
        routes_fp(pipeline::fingerprint_routes(routes)) {}
};

pipeline::StageResult run_kind(const Session& s, pipeline::StageKind kind) {
  pipeline::StageOptions opts;
  opts.kind = kind;
  const pipeline::StageOutcome out =
      pipeline::run_stage({s.lay, s.env, s.routes, nullptr, {}}, opts);
  if (!out.result) {
    std::fprintf(stderr, "bench_pipeline: stage %s did not produce a result\n",
                 std::string(pipeline::to_string(kind)).c_str());
    std::exit(1);
  }
  return *out.result;
}

struct StageRow {
  pipeline::StageKind kind;
  std::size_t body_bytes;
  std::uint64_t hash;  ///< FNV-1a over meta, then body
};

struct SeedRow {
  std::uint64_t seed;
  std::string routes_fp;
  std::vector<StageRow> stages;
};

SeedRow run_seed(std::uint64_t seed) {
  const Session s(seed);
  SeedRow row{seed, s.routes_fp, {}};
  for (const pipeline::StageKind kind : kKinds) {
    const pipeline::StageResult res = run_kind(s, kind);
    row.stages.push_back(
        {kind, res.body.size(), io::fnv1a(res.body, io::fnv1a(res.meta))});
  }
  return row;
}

void write_stages_json(const char* path, const std::vector<SeedRow>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_pipeline: cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f,
               "{\n  \"workload\": {\"cells\": %zu, \"extent\": %lld, "
               "\"nets\": %zu},\n  \"seeds\": [\n",
               kCells, static_cast<long long>(kExtent), kNets);
  for (std::size_t s = 0; s < rows.size(); ++s) {
    std::fprintf(f, "    {\"seed\": %llu, \"routes_fp\": \"%s\", \"stages\": [",
                 static_cast<unsigned long long>(rows[s].seed),
                 rows[s].routes_fp.c_str());
    for (std::size_t i = 0; i < rows[s].stages.size(); ++i) {
      const StageRow& st = rows[s].stages[i];
      std::fprintf(f, "%s{\"stage\": \"%s\", \"body_bytes\": %zu, "
                      "\"hash\": \"%016llx\"}",
                   i == 0 ? "" : ", ",
                   std::string(pipeline::to_string(st.kind)).c_str(),
                   st.body_bytes, static_cast<unsigned long long>(st.hash));
    }
    std::fprintf(f, "]}%s\n", s + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

void print_table() {
  std::puts("E15 — pipeline stages over committed routes (DETAIL / CONGEST /"
            " VERIFY / SVG)");
  bench::rule('-', 78);
  std::printf("  workload: %zu cells, %lld extent, %zu nets\n", kCells,
              static_cast<long long>(kExtent), kNets);

  std::vector<SeedRow> rows;
  for (const std::uint64_t seed : kSeeds) {
    rows.push_back(run_seed(seed));
    const SeedRow& row = rows.back();
    std::printf("  seed %-4llu routes %s\n",
                static_cast<unsigned long long>(row.seed),
                row.routes_fp.c_str());
    for (const StageRow& st : row.stages) {
      std::printf("    %-8s %7zu bytes  %016llx\n",
                  std::string(pipeline::to_string(st.kind)).c_str(),
                  st.body_bytes, static_cast<unsigned long long>(st.hash));
    }
  }
  std::puts("  (hash is FNV-1a over the stage's meta fields then body;"
            " byte-stable by design)");
  bench::rule('-', 78);

  if (const char* out = std::getenv("GCR_PIPELINE_STAGES_OUT")) {
    write_stages_json(out, rows);
    std::printf("  stage JSON written to %s\n", out);
  }
}

void BM_StageRun(benchmark::State& state) {
  // One stage executed from scratch on a warm session — the cache-miss cost
  // of a DETAIL/CONGEST/VERIFY/SVG verb after the routes are committed.
  const pipeline::StageKind kind =
      kKinds[static_cast<std::size_t>(state.range(0))];
  const Session s(kSeeds[0]);
  pipeline::StageOptions opts;
  opts.kind = kind;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pipeline::run_stage({s.lay, s.env, s.routes, nullptr, {}}, opts));
  }
  state.SetLabel(std::string(pipeline::to_string(kind)));
}
BENCHMARK(BM_StageRun)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_StageCacheHit(benchmark::State& state) {
  // The repeated-verb price: a content-addressed lookup plus an LRU touch.
  const Session s(kSeeds[0]);
  pipeline::StageOptions opts;
  pipeline::StageCache cache(8);
  const std::string key = pipeline::StageCache::key_for(
      "benchsession", s.routes_fp, opts.fingerprint());
  cache.insert(key, std::make_shared<pipeline::StageResult>(
                        run_kind(s, pipeline::StageKind::kDetail)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find(key));
  }
}
BENCHMARK(BM_StageCacheHit);

void BM_RouteFingerprint(benchmark::State& state) {
  // The per-commit invalidation cost: fingerprinting the committed geometry
  // is what REROUTE/OPTIMIZE pay to re-key every cached stage.
  const Session s(kSeeds[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline::fingerprint_routes(s.routes));
  }
}
BENCHMARK(BM_RouteFingerprint);

}  // namespace

GCR_BENCH_MAIN(print_table)
