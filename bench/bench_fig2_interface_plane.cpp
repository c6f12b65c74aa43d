// E1 (Fig 1/2): cost of the EONA interface plane.
//
// The architecture figures claim a deployable message plane between AppPs
// and InfPs. This bench measures the per-report costs a provider pays per
// control epoch on that plane: looking-glass publish/query and policy
// application at realistic report sizes.
#include <benchmark/benchmark.h>

#include "json_main.hpp"
#include "eona/endpoint.hpp"
#include "sim/rng.hpp"

namespace {

using namespace eona;

core::A2IReport make_a2i(std::size_t groups, std::size_t forecasts) {
  sim::Rng rng(1);
  core::A2IReport report;
  report.from = ProviderId(0);
  report.generated_at = 100.0;
  for (std::size_t i = 0; i < groups; ++i) {
    core::QoeGroupReport g;
    g.isp = IspId(static_cast<std::uint32_t>(i % 16));
    g.cdn = CdnId(static_cast<std::uint32_t>(i % 4));
    g.mean_buffering_ratio = rng.uniform(0, 0.3);
    g.p90_buffering_ratio = rng.uniform(0, 0.6);
    g.mean_bitrate = rng.uniform(0, 6e6);
    g.mean_join_time = rng.uniform(0, 10);
    g.mean_engagement = rng.uniform(0, 1);
    g.sessions = static_cast<std::uint64_t>(rng.uniform_int(10, 100000));
    report.groups.push_back(g);
  }
  for (std::size_t i = 0; i < forecasts; ++i) {
    core::TrafficForecast f;
    f.isp = IspId(static_cast<std::uint32_t>(i % 16));
    f.cdn = CdnId(static_cast<std::uint32_t>(i % 4));
    f.expected_rate = rng.uniform(0, 1e9);
    report.forecasts.push_back(f);
  }
  return report;
}

void BM_LookingGlassPublish(benchmark::State& state) {
  core::A2IEndpoint glass(ProviderId(0));
  auto peers = static_cast<std::size_t>(state.range(0));
  for (std::size_t p = 0; p < peers; ++p)
    glass.authorize(ProviderId(static_cast<std::uint32_t>(p + 1)), "tok");
  auto report = make_a2i(256, 64);
  TimePoint now = 0.0;
  for (auto _ : state) {
    glass.publish(report, now);
    now += 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(peers));
}
BENCHMARK(BM_LookingGlassPublish)->Arg(1)->Arg(8)->Arg(64);

void BM_LookingGlassQuery(benchmark::State& state) {
  core::A2IEndpoint glass(ProviderId(0));
  glass.authorize(ProviderId(1), "tok");
  glass.publish(make_a2i(256, 64), 0.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(glass.query(ProviderId(1), "tok", 1.0));
}
BENCHMARK(BM_LookingGlassQuery);

void BM_PolicyApplication(benchmark::State& state) {
  core::A2IPolicy policy;
  policy.k_anonymity = 50;
  auto report = make_a2i(static_cast<std::size_t>(state.range(0)), 16);
  for (auto _ : state) benchmark::DoNotOptimize(policy.apply(report));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PolicyApplication)->Arg(256)->Arg(4096);

}  // namespace

EONA_BENCHMARK_JSON_MAIN("BENCH_fig2_interface_plane.json")
