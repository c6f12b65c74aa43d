// ColumnStore unit tests: ingest, the typed query surface (filters,
// group-by projection, every aggregate), window semantics, and the
// dump/replay round trip eona_lab --store / query rides on.
#include "telemetry/column_store.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "telemetry/store_replay.hpp"

namespace eona::telemetry {
namespace {

Dimensions dims(std::uint32_t isp, std::uint32_t cdn, std::uint32_t server,
                std::uint32_t region = 0) {
  Dimensions d;
  d.isp = IspId(isp);
  d.cdn = CdnId(cdn);
  d.server = ServerId(server);
  d.region = region;
  return d;
}

TEST(ColumnStore, InternAssignsDenseStableIds) {
  ColumnStore store;
  EXPECT_EQ(store.intern_metric("a"), 0u);
  EXPECT_EQ(store.intern_metric("b"), 1u);
  EXPECT_EQ(store.intern_metric("a"), 0u);
  EXPECT_EQ(store.find_metric("b"), 1u);
  EXPECT_EQ(store.find_metric("missing"), kNoMetric);
  EXPECT_EQ(store.metric_names().size(), 2u);
}

TEST(ColumnStore, InternSurvivesNameVectorGrowth) {
  // The id map must not dangle into reallocated name storage.
  ColumnStore store;
  for (int i = 0; i < 200; ++i)
    store.intern_metric("metric_" + std::to_string(i));
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(store.find_metric("metric_" + std::to_string(i)),
              static_cast<MetricId>(i));
}

TEST(ColumnStore, CountSumMeanOverOneGroup) {
  ColumnStore store;
  for (int i = 1; i <= 4; ++i)
    store.append(static_cast<double>(i), dims(0, 1, 2), "m", 7, i * 1.5);
  EXPECT_EQ(store.row_count(), 4u);

  StoreQuery q;
  q.metric = "m";
  q.agg = Agg::kCount;
  auto out = store.run(q);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rows, 4u);
  EXPECT_EQ(out[0].value, 4.0);

  q.agg = Agg::kSum;
  EXPECT_EQ(store.run(q)[0].value, 1.5 + 3.0 + 4.5 + 6.0);
  q.agg = Agg::kMean;
  EXPECT_EQ(store.run(q)[0].value, (1.5 + 3.0 + 4.5 + 6.0) / 4.0);
}

TEST(ColumnStore, PercentilesAreExactOrderStatistics) {
  ColumnStore store;
  // 11 values 0..10: lower nearest-rank p50 = index 5, p90 = index 9.
  for (int i = 0; i <= 10; ++i)
    store.append(1.0, dims(0, 0, 0), "m", 0, static_cast<double>(i));
  StoreQuery q;
  q.metric = "m";
  q.agg = Agg::kP50;
  EXPECT_EQ(store.run(q)[0].value, 5.0);
  q.agg = Agg::kP90;
  EXPECT_EQ(store.run(q)[0].value, 9.0);
}

TEST(ColumnStore, WindowIsHalfOpen) {
  ColumnStore store;
  for (double t : {10.0, 20.0, 30.0})
    store.append(t, dims(0, 0, 0), "m", 0, t);
  StoreQuery q;
  q.metric = "m";
  q.t0 = 10.0;
  q.t1 = 30.0;  // [10, 30): keeps 10 and 20, drops 30
  q.agg = Agg::kSum;
  auto out = store.run(q);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rows, 2u);
  EXPECT_EQ(out[0].value, 30.0);
}

TEST(ColumnStore, WindowSpanningSegmentsFoldsInTimeOrder) {
  ColumnStore store(60.0);  // rows below land in three segments
  for (double t : {10.0, 70.0, 130.0})
    store.append(t, dims(0, 0, 0), "m", 0, 1.0);
  StoreQuery q;
  q.metric = "m";
  q.agg = Agg::kCount;
  EXPECT_EQ(store.run(q)[0].rows, 3u);
  EXPECT_EQ(store.segment_count(), 3u);
}

TEST(ColumnStore, FiltersMatchExactAttributeValues) {
  ColumnStore store;
  store.append(1.0, dims(1, 2, 3, 4), "m", 10, 100.0);
  store.append(2.0, dims(1, 9, 3, 4), "m", 11, 200.0);
  store.append(3.0, dims(5, 2, 3, 4), "m", 10, 400.0);

  StoreQuery q;
  q.metric = "m";
  q.agg = Agg::kSum;
  q.isp = IspId(1);
  EXPECT_EQ(store.run(q)[0].value, 300.0);
  q.cdn = CdnId(2);
  EXPECT_EQ(store.run(q)[0].value, 100.0);

  StoreQuery by_entity;
  by_entity.metric = "m";
  by_entity.agg = Agg::kSum;
  by_entity.entity = 10;
  EXPECT_EQ(store.run(by_entity)[0].value, 500.0);
}

TEST(ColumnStore, GroupByProjectsAndSortsCanonically) {
  ColumnStore store;
  // Insert out of dimension order; results must come back sorted.
  store.append(1.0, dims(2, 0, 0), "m", 0, 20.0);
  store.append(2.0, dims(1, 0, 0), "m", 0, 10.0);
  store.append(3.0, dims(2, 1, 0), "m", 0, 5.0);

  StoreQuery q;
  q.metric = "m";
  q.group_by = Dim::kIsp;
  q.agg = Agg::kSum;
  auto out = store.run(q);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key.isp, IspId(1));
  EXPECT_EQ(out[0].value, 10.0);
  EXPECT_EQ(out[1].key.isp, IspId(2));
  EXPECT_EQ(out[1].value, 25.0);  // both cdn groups fold into isp 2
  // Projected-away attributes come back as wildcards.
  EXPECT_EQ(out[0].key.cdn, CdnId());
}

TEST(ColumnStore, ConsecutiveQueriesDoNotLeakSlotState) {
  ColumnStore store;
  store.append(1.0, dims(1, 0, 0), "m", 0, 1.0);
  store.append(2.0, dims(2, 0, 0), "m", 0, 2.0);
  StoreQuery q;
  q.metric = "m";
  q.group_by = Dim::kIsp;
  q.agg = Agg::kSum;
  auto first = store.run(q);
  auto second = store.run(q);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].key, second[i].key);
    EXPECT_EQ(first[i].value, second[i].value);
  }
}

TEST(ColumnStore, UnknownMetricAndEmptyWindowReturnNothing) {
  ColumnStore store;
  store.append(1.0, dims(0, 0, 0), "m", 0, 1.0);
  StoreQuery q;
  q.metric = "other";
  EXPECT_TRUE(store.run(q).empty());
  q.metric = "m";
  q.t0 = 5.0;
  q.t1 = 5.0;  // empty [t0, t1)
  EXPECT_TRUE(store.run(q).empty());
}

TEST(ColumnStore, DumpReplayRoundTripIsByteIdentical) {
  ColumnStore store;
  // Awkward doubles: denormal-ish, many digits, negative zero.
  store.append(0.1 + 0.2, dims(1, 2, 3, 4), "m", 5, 1.0 / 3.0);
  store.append(61.5, dims(1, 2, 3, 4), "other", 6, -0.0);
  store.append(-5.0, Dimensions{}, "m", 0, 1e-300);

  std::string dump = store.dump_rows();
  ColumnStore reloaded;
  EXPECT_EQ(replay_jsonl(reloaded, dump), 3u);
  EXPECT_EQ(reloaded.dump_rows(), dump);

  StoreQuery q;
  q.metric = "m";
  q.agg = Agg::kSum;
  auto a = store.run(q);
  auto b = reloaded.run(q);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].value, b[0].value);
}

TEST(ColumnStore, DumpIsPartitionMajorInAppendOrder) {
  ColumnStore store(60.0);
  // Metrics interleave within each partition; the second partition is
  // written to first and returned to after the first partition opens.
  store.append(61.0, dims(1, 2, 3, 4), "b", 5, 0.5);
  store.append(1.0, dims(0, 0, 0), "a", 1, 1.0);
  store.append(2.0, dims(1, 2, 3, 4), "b", 2, 2.0);
  store.append(62.0, dims(0, 0, 0), "a", 6, 6.25);
  store.append(3.0, Dimensions{}, "a", 3, -3.0);
  store.append(63.0, dims(0, 0, 0), "c", 7, 7.0);
  EXPECT_EQ(
      store.dump_rows(),
      "{\"t\":1,\"isp\":0,\"cdn\":0,\"server\":0,\"region\":0,\"entity\":1,"
      "\"metric\":\"a\",\"value\":1}\n"
      "{\"t\":2,\"isp\":1,\"cdn\":2,\"server\":3,\"region\":4,\"entity\":2,"
      "\"metric\":\"b\",\"value\":2}\n"
      "{\"t\":3,\"isp\":4294967295,\"cdn\":4294967295,\"server\":4294967295,"
      "\"region\":0,\"entity\":3,\"metric\":\"a\",\"value\":-3}\n"
      "{\"t\":61,\"isp\":1,\"cdn\":2,\"server\":3,\"region\":4,\"entity\":5,"
      "\"metric\":\"b\",\"value\":0.5}\n"
      "{\"t\":62,\"isp\":0,\"cdn\":0,\"server\":0,\"region\":0,\"entity\":6,"
      "\"metric\":\"a\",\"value\":6.25}\n"
      "{\"t\":63,\"isp\":0,\"cdn\":0,\"server\":0,\"region\":0,\"entity\":7,"
      "\"metric\":\"c\",\"value\":7}\n");
}

TEST(ColumnStore, WindowUsesStoredTimesNotPartitionBounds) {
  // With a 0.1 s span, t = 1.7 lands in partition floor(1.7 / 0.1) = 17,
  // whose lower bound 17 * 0.1 = 1.7000000000000002 lies above it.
  ColumnStore store(0.1);
  const double lower = 17 * 0.1;
  ASSERT_LT(1.7, lower);
  store.append(1.65, dims(0, 0, 0), "m", 0, 1.0);
  store.append(1.7, dims(0, 0, 0), "m", 0, 10.0);
  store.append(1.75, dims(0, 0, 0), "m", 0, 100.0);
  ASSERT_EQ(store.segment_count(), 2u);

  StoreQuery q;
  q.metric = "m";
  q.agg = Agg::kSum;
  q.t0 = lower;  // partition 17 is not wholly inside [t0, inf)
  auto out = store.run(q);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rows, 1u);
  EXPECT_EQ(out[0].value, 100.0);

  q.t0 = -std::numeric_limits<double>::infinity();
  q.t1 = lower;  // partition 17 still holds a row below t1
  out = store.run(q);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rows, 2u);
  EXPECT_EQ(out[0].value, 11.0);
}

TEST(ColumnStore, AppendsReturningToASealedPartitionStayQueryable) {
  ColumnStore store(60.0);
  store.append(10.0, dims(1, 0, 0), "m", 0, 1.0);
  store.append(20.0, dims(2, 0, 0), "m", 0, 2.0);
  store.append(70.0, dims(1, 0, 0), "m", 0, 4.0);  // seals partition 0

  StoreQuery q;
  q.metric = "m";
  q.agg = Agg::kSum;
  q.t0 = 5.0;
  q.t1 = 40.0;
  auto out = store.run(q);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rows, 2u);
  EXPECT_EQ(out[0].value, 3.0);

  // Back into partition 0, past and before its earlier time range.
  store.append(30.0, dims(2, 0, 0), "m", 0, 8.0);
  store.append(5.0, dims(1, 0, 0), "m", 0, 16.0);
  store.append(80.0, dims(2, 0, 0), "m", 0, 32.0);
  EXPECT_EQ(store.segment_count(), 2u);
  out = store.run(q);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rows, 4u);
  EXPECT_EQ(out[0].value, 1.0 + 2.0 + 8.0 + 16.0);

  q.t0 = 25.0;  // only the returned row at t = 30 is in [25, 40)
  out = store.run(q);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 8.0);
  q.t0 = 0.0;
  q.t1 = 8.0;  // only the returned row at t = 5 is in [0, 8)
  out = store.run(q);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 16.0);

  // Full history in canonical order: partition 0 in append order, then 1.
  StoreQuery all;
  all.metric = "m";
  all.group_by = Dim::kIsp;
  all.agg = Agg::kP50;
  out = store.run(all);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rows, 3u);   // isp 1: 1, 16, 4
  EXPECT_EQ(out[0].value, 4.0);
  EXPECT_EQ(out[1].rows, 3u);   // isp 2: 2, 8, 32
  EXPECT_EQ(out[1].value, 8.0);
  std::string dump = store.dump_rows();
  std::vector<double> order;
  for (std::size_t at = dump.find("\"t\":"); at != std::string::npos;
       at = dump.find("\"t\":", at + 1))
    order.push_back(std::stod(dump.substr(at + 4)));
  EXPECT_EQ(order, (std::vector<double>{10, 20, 30, 5, 70, 80}));
}

TEST(ColumnStore, MetricAbsentFromSomeSegmentsReadsOnlyItsOwnRows) {
  ColumnStore store(60.0);
  for (const char* name : {"a", "b", "c"}) store.intern_metric(name);
  store.append(10.0, dims(0, 0, 0), "a", 0, 1.0);    // partition 0: a only
  store.append(70.0, dims(0, 0, 0), "c", 0, 10.0);   // partition 1: c, a
  store.append(75.0, dims(0, 0, 0), "a", 0, 2.0);
  store.append(130.0, dims(0, 0, 0), "b", 0, 100.0);  // partition 2: b

  StoreQuery q;
  q.agg = Agg::kSum;
  for (auto [name, rows, sum] : {std::tuple{"a", 2u, 3.0},
                                 std::tuple{"b", 1u, 100.0},
                                 std::tuple{"c", 1u, 10.0}}) {
    q.metric = name;
    auto out = store.run(q);
    ASSERT_EQ(out.size(), 1u) << name;
    EXPECT_EQ(out[0].rows, rows) << name;
    EXPECT_EQ(out[0].value, sum) << name;
  }
  q.metric = "b";
  q.t1 = 120.0;  // b has no rows before partition 2
  EXPECT_TRUE(store.run(q).empty());
  store.intern_metric("d");
  q.metric = "d";  // interned, never appended
  q.t1 = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(store.run(q).empty());
}

TEST(ColumnStore, EntityFilterKeepsOnlyThatEntityOfTheQueriedMetric) {
  ColumnStore store(60.0);
  // Entity 7 carries rows of both metrics; entity 8 only of "m".
  store.append(10.0, dims(1, 0, 0), "m", 7, 1.0);
  store.append(11.0, dims(1, 0, 0), "n", 7, 1000.0);
  store.append(12.0, dims(2, 0, 0), "m", 8, 10.0);
  store.append(70.0, dims(2, 0, 0), "m", 7, 100.0);
  store.append(71.0, dims(1, 0, 0), "n", 7, 2000.0);
  store.append(72.0, dims(1, 0, 0), "m", 8, 10000.0);

  StoreQuery q;
  q.metric = "m";
  q.entity = 7;
  q.group_by = Dim::kIsp;
  q.agg = Agg::kSum;
  auto out = store.run(q);  // every segment wholly inside the window
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key.isp, IspId(1));
  EXPECT_EQ(out[0].value, 1.0);
  EXPECT_EQ(out[1].key.isp, IspId(2));
  EXPECT_EQ(out[1].value, 100.0);

  q.t0 = 11.0;  // partition 0 straddles t0: per-row times are tested
  out = store.run(q);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key.isp, IspId(2));
  EXPECT_EQ(out[0].value, 100.0);
}

TEST(ColumnStore, ReplaySkipsUnmappedLines) {
  ColumnStore store;
  EXPECT_FALSE(replay_jsonl_line(store, "{\"type\":\"log\",\"msg\":\"x\"}"));
  EXPECT_FALSE(replay_jsonl_line(store, ""));
  EXPECT_EQ(store.row_count(), 0u);
}

TEST(ColumnStore, ReplayMapsTraceEventsThroughRecorder) {
  ColumnStore store;
  EXPECT_TRUE(replay_jsonl_line(
      store,
      "{\"t\":3.5,\"type\":\"link_sample\",\"link\":2,"
      "\"utilization\":0.75,\"rate\":45000000,\"capacity\":60000000}"));
  EXPECT_EQ(store.row_count(), 2u);  // link_rate + link_util
  StoreQuery q;
  q.metric = "link_util";
  q.entity = 2;
  auto out = store.run(q);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, 0.75);
}

}  // namespace
}  // namespace eona::telemetry
