// E9 (§5 "scalability"): "a typical AppP can collect user experience for
// tens of millions of sessions each day, and such large volumes of data can
// cause serious scalability challenges for the control logic of InfPs".
//
// Microbenches of every stage of the pipeline that volume flows through:
// windowed beacon aggregation, quantile sketch updates, the max-min rate
// solver, the incremental/batched data plane under flash-crowd churn, and
// the fluid transfer plane. items/s here extrapolates directly to
// sessions/day. Results are also written to BENCH_sec5_scalability.json
// (see json_main.hpp) so the perf trajectory is tracked run over run.
#include <benchmark/benchmark.h>

#include "json_main.hpp"
#include "net/transfer.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/p2_quantile.hpp"
#include "sim/rng.hpp"

namespace {

using namespace eona;

telemetry::SessionRecord random_record(sim::Rng& rng, int isps, int cdns,
                                       TimePoint t) {
  telemetry::SessionRecord r;
  r.session = SessionId(rng.next_u64());
  r.dims.isp = IspId(static_cast<std::uint32_t>(rng.uniform_int(0, isps - 1)));
  r.dims.cdn = CdnId(static_cast<std::uint32_t>(rng.uniform_int(0, cdns - 1)));
  r.dims.server =
      ServerId(static_cast<std::uint32_t>(rng.uniform_int(0, 31)));
  r.metrics.buffering_ratio = rng.uniform(0, 0.3);
  r.metrics.avg_bitrate = rng.uniform(2e5, 6e6);
  r.metrics.join_time = rng.uniform(0, 10);
  r.metrics.engagement = rng.uniform(0, 1);
  r.metrics.bytes_delivered = rng.uniform(1e5, 1e8);
  r.timestamp = t;
  return r;
}

void BM_WindowedIngest(benchmark::State& state) {
  sim::Rng rng(2);
  telemetry::WindowedAggregator agg(
      telemetry::Dim::kIsp | telemetry::Dim::kCdn, 60.0, 6);
  std::vector<telemetry::SessionRecord> batch;
  for (int i = 0; i < 4096; ++i)
    batch.push_back(random_record(rng, 64, 4, rng.uniform(0, 600)));
  std::size_t i = 0;
  for (auto _ : state) agg.ingest(batch[i++ & 4095]);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WindowedIngest);

void BM_WindowedSnapshot(benchmark::State& state) {
  sim::Rng rng(3);
  telemetry::WindowedAggregator agg(
      telemetry::Dim::kIsp | telemetry::Dim::kCdn, 60.0, 6);
  auto isps = static_cast<int>(state.range(0));
  for (int i = 0; i < 100000; ++i)
    agg.ingest(random_record(rng, isps, 4, rng.uniform(540, 600)));
  for (auto _ : state) benchmark::DoNotOptimize(agg.snapshot(600.0));
}
BENCHMARK(BM_WindowedSnapshot)->Arg(16)->Arg(256);

void BM_P2QuantileUpdate(benchmark::State& state) {
  sim::Rng rng(4);
  telemetry::P2Quantile q(0.9);
  std::vector<double> values(4096);
  for (auto& v : values) v = rng.uniform(0, 1);
  std::size_t i = 0;
  for (auto _ : state) q.add(values[i++ & 4095]);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_P2QuantileUpdate);

/// Max-min solver cost vs flow count on a shared-backbone topology: the
/// per-change cost of the fluid network model.
void BM_MaxMinRecompute(benchmark::State& state) {
  net::Topology topo;
  NodeId prev = topo.add_node(net::NodeKind::kRouter, "n0");
  std::vector<LinkId> links;
  for (int i = 1; i < 12; ++i) {
    NodeId next = topo.add_node(net::NodeKind::kRouter, "n");
    links.push_back(topo.add_link(prev, next, mbps(100), 0.001));
    prev = next;
  }
  sim::Rng rng(6);
  std::vector<net::FlowSpec> flows;
  auto count = static_cast<std::size_t>(state.range(0));
  for (std::size_t f = 0; f < count; ++f) {
    auto start = static_cast<std::size_t>(rng.uniform_int(0, 9));
    auto end = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(start) + 1, 11));
    net::Path path(links.begin() + static_cast<long>(start),
                   links.begin() + static_cast<long>(end));
    flows.push_back(net::FlowSpec{
        path, rng.bernoulli(0.5)
                  ? std::numeric_limits<double>::infinity()
                  : mbps(rng.uniform(0.5, 20))});
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(net::max_min_allocation(topo, flows));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MaxMinRecompute)->Arg(10)->Arg(100)->Arg(1000);

/// Flash-crowd churn on the live data plane: a burst of K flow arrivals
/// followed by K departures on a shared bottleneck, with a handful of
/// long-lived elastic flows riding along. batched=1 is the production path
/// (one Network::Batch per burst, incremental dirty-component re-solve);
/// batched=0 is the per-mutation from-scratch baseline (every add/remove
/// re-solves the whole network). items/s counts mutations absorbed by the
/// data plane.
void BM_FlashCrowdChurn(benchmark::State& state) {
  const auto crowd = static_cast<std::size_t>(state.range(0));
  const bool batched = state.range(1) == 1;

  net::Topology topo;
  NodeId client = topo.add_node(net::NodeKind::kClientPop, "clients");
  NodeId edge = topo.add_node(net::NodeKind::kRouter, "isp-edge");
  NodeId srv1 = topo.add_node(net::NodeKind::kCdnServer, "cdn1");
  NodeId srv2 = topo.add_node(net::NodeKind::kCdnServer, "cdn2");
  LinkId access = topo.add_link(edge, client, mbps(200), 0.005);
  LinkId peer1 = topo.add_link(srv1, edge, gbps(1), 0.008);
  LinkId peer2 = topo.add_link(srv2, edge, gbps(1), 0.008);

  net::Network network(topo, batched
                                 ? net::Network::RecomputeMode::kIncremental
                                 : net::Network::RecomputeMode::kFullSolve);
  // Long-lived sessions sharing the bottleneck with the crowd.
  for (int i = 0; i < 16; ++i)
    network.add_flow(i % 2 == 0 ? net::Path{peer1, access}
                                : net::Path{peer2, access});
  BitsPerSecond per_flow = mbps(150) / static_cast<double>(crowd);

  std::vector<FlowId> ids;
  ids.reserve(crowd);
  for (auto _ : state) {
    ids.clear();
    if (batched) {
      {
        net::Network::Batch arrival(network);
        for (std::size_t i = 0; i < crowd; ++i)
          ids.push_back(network.add_flow({access}, per_flow));
      }
      {
        net::Network::Batch departure(network);
        for (FlowId f : ids) network.remove_flow(f);
      }
    } else {
      for (std::size_t i = 0; i < crowd; ++i)
        ids.push_back(network.add_flow({access}, per_flow));
      for (FlowId f : ids) network.remove_flow(f);
    }
    benchmark::DoNotOptimize(network.link_allocated(access));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(crowd));
  state.counters["recomputes"] =
      static_cast<double>(network.recompute_count());
}
BENCHMARK(BM_FlashCrowdChurn)
    ->ArgNames({"K", "batched"})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Unit(benchmark::kMicrosecond);

/// Localized churn across many independent sectors: mutations touch one
/// sector at a time, so the incremental path re-solves only that sector's
/// component while the from-scratch baseline pays for all of them on every
/// change. This isolates the dirty-component win from the batching win.
void BM_SectorLocalChurn(benchmark::State& state) {
  const bool incremental = state.range(0) == 1;
  constexpr std::size_t kSectors = 64;
  constexpr std::size_t kFlowsPerSector = 16;

  net::Topology topo;
  NodeId core = topo.add_node(net::NodeKind::kRouter, "core");
  std::vector<LinkId> sectors;
  for (std::size_t s = 0; s < kSectors; ++s) {
    NodeId tower = topo.add_node(net::NodeKind::kClientPop, "sector");
    sectors.push_back(topo.add_link(core, tower, mbps(50), 0.015));
  }

  net::Network network(topo, incremental
                                 ? net::Network::RecomputeMode::kIncremental
                                 : net::Network::RecomputeMode::kFullSolve);
  for (std::size_t s = 0; s < kSectors; ++s)
    for (std::size_t f = 0; f < kFlowsPerSector; ++f)
      network.add_flow({sectors[s]});

  sim::Rng rng(8);
  std::size_t sector = 0;
  for (auto _ : state) {
    sector = (sector + 1) % kSectors;
    FlowId f = network.add_flow({sectors[sector]},
                                mbps(rng.uniform(0.5, 5)));
    network.remove_flow(f);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_SectorLocalChurn)
    ->ArgNames({"incremental"})
    ->Arg(0)
    ->Arg(1);

/// End-to-end fluid transfer plane: chunk-sized transfers arriving and
/// completing on a shared bottleneck (events/s of the emulator itself).
void BM_TransferPlane(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    net::Topology topo;
    NodeId a = topo.add_node(net::NodeKind::kRouter, "a");
    NodeId b = topo.add_node(net::NodeKind::kRouter, "b");
    LinkId ab = topo.add_link(a, b, mbps(100), 0.001);
    sim::Scheduler sched;
    net::Network network(topo);
    net::TransferManager transfers(sched, network);
    sim::Rng rng(7);
    auto count = static_cast<int>(state.range(0));
    int completed = 0;
    for (int i = 0; i < count; ++i) {
      sched.schedule_at(rng.uniform(0, 10), [&, ab] {
        transfers.start({ab}, megabits(rng.uniform(1, 10)),
                        [&](net::TransferId) { ++completed; });
      });
    }
    state.ResumeTiming();
    sched.run_all();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TransferPlane)->Arg(100)->Arg(500)->Unit(benchmark::kMillisecond);

}  // namespace

EONA_BENCHMARK_JSON_MAIN("BENCH_sec5_scalability.json")
