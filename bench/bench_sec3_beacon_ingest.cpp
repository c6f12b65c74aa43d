// E14 (§3 "big data platform"): beacon-ingest throughput of the A2I
// telemetry pipeline at realistic group cardinalities.
//
// The paper's AppP collects "user experience for tens of millions of
// sessions each day" and aggregates it by attribute tuples before it ever
// crosses the A2I boundary. This bench pins the cost of that ingest path:
// beacons/s into the interned dense-id WindowedAggregator
// (telemetry/interner.hpp + group_table.hpp) at 1k / 16k / 128k distinct
// (ISP, CDN, server) groups, plus the windowed snapshot/query paths the
// controller reads. Results land in BENCH_sec3_beacon_ingest.json (see
// json_main.hpp) so the numbers are tracked run over run.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "json_main.hpp"
#include "sim/rng.hpp"
#include "telemetry/aggregator.hpp"

namespace {

using namespace eona;
using telemetry::Dim;
using telemetry::Dimensions;
using telemetry::SessionRecord;

constexpr Dim kMask = Dim::kIsp | Dim::kCdn | Dim::kServer;

// ---------------------------------------------------------------------------
// Workload: a deterministic beacon stream scattering over exactly `groups`
// distinct (ISP, CDN, server) tuples (groups = isps x 4 x 16, power of two)
// with monotonically advancing timestamps (10k beacons/s of sim time) --
// the arrival pattern the collector actually sees.
// ---------------------------------------------------------------------------

class BeaconStream {
 public:
  explicit BeaconStream(std::uint32_t groups) : groups_(groups) {
    sim::Rng rng(42);
    metrics_.resize(kBatch);
    for (auto& m : metrics_) {
      m.buffering_ratio = rng.uniform(0, 0.3);
      m.avg_bitrate = rng.uniform(2e5, 6e6);
      m.join_time = rng.uniform(0, 10);
      m.engagement = rng.uniform(0, 1);
      m.bytes_delivered = rng.uniform(1e5, 1e8);
    }
  }

  SessionRecord next() {
    std::uint32_t g = (static_cast<std::uint32_t>(n_) * 2654435761u) &
                      (groups_ - 1);
    SessionRecord r;
    r.session = SessionId(n_);
    r.dims.isp = IspId(g >> 6);
    r.dims.cdn = CdnId((g >> 4) & 3);
    r.dims.server = ServerId(g & 15);
    r.metrics = metrics_[n_ & (kBatch - 1)];
    r.timestamp = static_cast<double>(n_) * 1e-4;
    ++n_;
    return r;
  }

  [[nodiscard]] TimePoint time() const { return static_cast<double>(n_) * 1e-4; }

 private:
  static constexpr std::size_t kBatch = 4096;
  std::uint32_t groups_;
  std::uint64_t n_ = 0;
  std::vector<telemetry::SessionMetrics> metrics_;
};

void prefill(telemetry::WindowedAggregator& agg, BeaconStream& stream,
             std::uint32_t groups) {
  for (std::uint32_t i = 0; i < 4 * groups; ++i) agg.ingest(stream.next());
}

// --- ingest -----------------------------------------------------------------

void BM_WindowedIngest(benchmark::State& state) {
  auto groups = static_cast<std::uint32_t>(state.range(0));
  BeaconStream stream(groups);
  telemetry::WindowedAggregator agg(kMask, 60.0, 6);
  prefill(agg, stream, groups);
  for (auto _ : state) agg.ingest(stream.next());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// --- the pipeline: ingest plus the per-control-tick reads -------------------
// What the AppP actually does with the windowed aggregates: every control
// epoch it ingests one beacon per active session (beacon period == control
// period) and then reads several full snapshots (A2I report build at two
// projections, per-CDN buffering, primary-QoE check) plus point queries.
// Sustained beacons/s through that loop is the pipeline's ingest
// throughput; the incremental window keeps the reads O(groups) per tick.

void BM_WindowedPipelineTick(benchmark::State& state) {
  auto groups = static_cast<std::uint32_t>(state.range(0));
  BeaconStream stream(groups);
  telemetry::WindowedAggregator agg(kMask, 60.0, 6);
  prefill(agg, stream, groups);
  Dimensions probe;
  probe.isp = IspId(1);
  probe.cdn = CdnId(1);
  probe.server = ServerId(1);
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < groups; ++i) agg.ingest(stream.next());
    TimePoint now = stream.time();
    for (int s = 0; s < 4; ++s) benchmark::DoNotOptimize(agg.snapshot(now));
    benchmark::DoNotOptimize(agg.query(probe, now));
    benchmark::DoNotOptimize(agg.query(probe, now));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          groups);
}

#define EONA_INGEST_ARGS \
  ArgNames({"groups"})->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17)

BENCHMARK(BM_WindowedIngest)->EONA_INGEST_ARGS;
BENCHMARK(BM_WindowedPipelineTick)->EONA_INGEST_ARGS;

}  // namespace

EONA_BENCHMARK_JSON_MAIN("BENCH_sec3_beacon_ingest.json")
