// E14 (§3 "big data platform"): beacon-ingest throughput of the A2I
// telemetry pipeline at realistic group cardinalities.
//
// The paper's AppP collects "user experience for tens of millions of
// sessions each day" and aggregates it by attribute tuples before it ever
// crosses the A2I boundary. This bench pins the cost of that ingest path:
// beacons/s into the interned dense-id WindowedAggregator
// (telemetry/interner.hpp + aggregator.hpp) at 4 / 1k / 16k / 128k distinct
// (ISP, CDN, server) groups, plus the windowed snapshot reads the
// controller makes each control tick. Results land in
// BENCH_sec3_beacon_ingest.json (see json_main.hpp) so the numbers are
// tracked run over run.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "json_main.hpp"
#include "sim/rng.hpp"
#include "telemetry/aggregator.hpp"

namespace {

using namespace eona;
using telemetry::Dim;
using telemetry::SessionRecord;

constexpr Dim kMask = Dim::kIsp | Dim::kCdn | Dim::kServer;

// The AppP's defaults (AppPConfig): a 60 s QoE window in 6 slices, read
// once per 10 s control period.
constexpr Duration kWindow = 60.0;
constexpr std::size_t kBuckets = 6;
constexpr Duration kControlPeriod = 10.0;

// ---------------------------------------------------------------------------
// Workload: a deterministic beacon stream scattering over exactly `groups`
// distinct (ISP, CDN, server) tuples (`groups` a power of two: 16 servers x
// 4 CDNs per ISP, fewer servers below 64 groups) with timestamps advancing
// `spacing` seconds per beacon -- time-ordered, the arrival pattern the
// collector actually sees.
// ---------------------------------------------------------------------------

class BeaconStream {
 public:
  BeaconStream(std::uint32_t groups, Duration spacing)
      : groups_(groups), spacing_(spacing) {
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
    r.timestamp = time();
    ++n_;
    return r;
  }

  [[nodiscard]] TimePoint time() const {
    return static_cast<double>(n_) * spacing_;
  }

 private:
  static constexpr std::size_t kBatch = 4096;
  std::uint32_t groups_;
  Duration spacing_;
  std::uint64_t n_ = 0;
  std::vector<telemetry::SessionMetrics> metrics_;
};

void prefill(telemetry::WindowedAggregator& agg, BeaconStream& stream,
             std::uint64_t beacons) {
  for (std::uint64_t i = 0; i < beacons; ++i) agg.ingest(stream.next());
}

// --- ingest -----------------------------------------------------------------
// 10k beacons/s of simulated time, so consecutive beacons share a bucket.

void BM_WindowedIngest(benchmark::State& state) {
  auto groups = static_cast<std::uint32_t>(state.range(0));
  BeaconStream stream(groups, 1e-4);
  telemetry::WindowedAggregator agg(kMask, kWindow, kBuckets);
  prefill(agg, stream, 4ull * groups);
  for (auto _ : state) agg.ingest(stream.next());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// --- the pipeline: ingest plus the per-control-tick reads -------------------
// What the AppP actually does with a windowed aggregator: each control
// period it ingests one beacon per active session (beacon period == control
// period), spread over that period, and then reads the snapshot twice at
// the tick time -- once to build the A2I report, once for the primary-QoE
// check (a memo hit). The control period is one window slice, so every
// tick moves the window and the first read refolds it. Sustained beacons/s
// through that loop is the pipeline's ingest throughput.

void BM_WindowedPipelineTick(benchmark::State& state) {
  auto groups = static_cast<std::uint32_t>(state.range(0));
  BeaconStream stream(groups, kControlPeriod / groups);
  telemetry::WindowedAggregator agg(kMask, kWindow, kBuckets);
  prefill(agg, stream, kBuckets * groups);  // one full window
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < groups; ++i) agg.ingest(stream.next());
    TimePoint now = stream.time();
    for (int s = 0; s < 2; ++s) benchmark::DoNotOptimize(agg.snapshot(now));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          groups);
}

#define EONA_INGEST_ARGS \
  ArgNames({"groups"})->Arg(4)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17)

BENCHMARK(BM_WindowedIngest)->EONA_INGEST_ARGS;
BENCHMARK(BM_WindowedPipelineTick)->EONA_INGEST_ARGS;

}  // namespace

EONA_BENCHMARK_JSON_MAIN("BENCH_sec3_beacon_ingest.json")
