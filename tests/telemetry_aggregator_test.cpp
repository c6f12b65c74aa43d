// Tests for the aggregation pipeline: dimension projection, windowed
// expiry, and the beacon collector.
#include "telemetry/aggregator.hpp"

#include <gtest/gtest.h>

#include "telemetry/collector.hpp"

namespace eona::telemetry {
namespace {

SessionRecord make_record(std::uint64_t session, IspId isp, CdnId cdn,
                          ServerId server, double buffering, TimePoint t,
                          Bits bits = 1e6) {
  SessionRecord r;
  r.session = SessionId(session);
  r.dims.isp = isp;
  r.dims.cdn = cdn;
  r.dims.server = server;
  r.metrics.buffering_ratio = buffering;
  r.metrics.bytes_delivered = bits;
  r.timestamp = t;
  return r;
}

/// The windowed aggregate of `cdn`'s group in the snapshot at `now`; empty
/// when the group has no beacons in the window.
MetricAggregate cdn_window(const WindowedAggregator& agg, CdnId cdn,
                           TimePoint now) {
  for (const auto& [dims, merged] : agg.snapshot(now))
    if (dims.cdn == cdn) return merged;
  return {};
}

TEST(Dimensions, ProjectionKeepsOnlyMaskedColumns) {
  Dimensions dims;
  dims.isp = IspId(1);
  dims.cdn = CdnId(2);
  dims.server = ServerId(3);
  dims.region = 4;
  Dimensions key = project(dims, Dim::kIsp | Dim::kCdn);
  EXPECT_EQ(key.isp, IspId(1));
  EXPECT_EQ(key.cdn, CdnId(2));
  EXPECT_FALSE(key.server.valid());
  EXPECT_EQ(key.region, 0u);
}

TEST(WindowedAggregator, QueriesCoverOnlyTheTrailingWindow) {
  WindowedAggregator agg(Dim::kCdn, /*window=*/60.0, /*buckets=*/6);
  agg.ingest(make_record(1, IspId(0), CdnId(0), ServerId{}, 0.9, 5.0));
  agg.ingest(make_record(2, IspId(0), CdnId(0), ServerId{}, 0.1, 100.0));
  // At t=110, only the second record is within the last 60 s.
  MetricAggregate recent = cdn_window(agg, CdnId(0), 110.0);
  EXPECT_EQ(recent.records, 1u);
  EXPECT_NEAR(recent.buffering_ratio.mean(), 0.1, 1e-12);
}

TEST(WindowedAggregator, BucketsExpireAsTimeAdvances) {
  WindowedAggregator agg(Dim::kCdn, 30.0, 3);
  agg.ingest(make_record(1, IspId(0), CdnId(0), ServerId{}, 0.5, 0.0));
  EXPECT_EQ(cdn_window(agg, CdnId(0), 5.0).records, 1u);
  EXPECT_EQ(cdn_window(agg, CdnId(0), 29.0).records, 1u);
  EXPECT_TRUE(agg.snapshot(200.0).empty());
}

TEST(WindowedAggregator, BucketReuseClearsOldData) {
  WindowedAggregator agg(Dim::kCdn, 30.0, 3);  // 10 s buckets
  agg.ingest(make_record(1, IspId(0), CdnId(0), ServerId{}, 0.9, 0.0));
  // 40 s later the same ring slot is reused; the old record must be gone.
  agg.ingest(make_record(2, IspId(0), CdnId(0), ServerId{}, 0.1, 31.0));
  MetricAggregate result = cdn_window(agg, CdnId(0), 35.0);
  EXPECT_EQ(result.records, 1u);
  EXPECT_NEAR(result.buffering_ratio.mean(), 0.1, 1e-12);
}

TEST(WindowedAggregator, SnapshotMergesAcrossBuckets) {
  WindowedAggregator agg(Dim::kCdn, 60.0, 6);
  agg.ingest(make_record(1, IspId(0), CdnId(0), ServerId{}, 0.2, 1.0, 100.0));
  agg.ingest(make_record(2, IspId(0), CdnId(0), ServerId{}, 0.4, 25.0, 300.0));
  agg.ingest(make_record(3, IspId(0), CdnId(1), ServerId{}, 0.6, 30.0));
  auto snapshot = agg.snapshot(40.0);
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].second.records, 2u);
  EXPECT_NEAR(snapshot[0].second.total_bits, 400.0, 1e-12);
}

TEST(BeaconCollector, FansOutToSinksInOrder) {
  BeaconCollector collector;
  std::vector<int> order;
  collector.add_sink([&](const SessionRecord&) { order.push_back(1); });
  collector.add_sink([&](const SessionRecord&) { order.push_back(2); });
  collector.report(make_record(1, IspId(0), CdnId(0), ServerId{}, 0.0, 0.0,
                               5e6));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(collector.beacon_count(), 1u);
}

}  // namespace
}  // namespace eona::telemetry
