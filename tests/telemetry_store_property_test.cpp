// Property test pinning the ColumnStore determinism contract: for any query
// plan, the store's columnar fold is bit-identical to a naive row-scan
// oracle that walks the same rows in canonical order (ascending time
// partition, append order within a partition) with plain left-to-right
// double accumulation. 120 seeded random plans over a random row set; every
// aggregate value must match to the last bit, not within a tolerance. A
// long time-ordered stream over a few groups drives the two paths the small
// random set never reaches: the bracketed order statistic (groups of
// thousands of values) and the sorted-window cut (windows that cut
// partitions of time-ordered columns), with and without a late append.
#include "telemetry/column_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "telemetry/store_replay.hpp"

namespace eona::telemetry {
namespace {

constexpr double kSegmentSpan = 60.0;

struct Row {
  TimePoint t = 0.0;
  Dimensions dims;
  std::string metric;
  std::uint64_t entity = 0;
  double value = 0.0;
};

/// Naive reference: filter + project + aggregate by scanning `rows` in
/// canonical store order. Mirrors the store's lazy slot assignment (first
/// matching row materializes the group) and its exact percentile
/// convention, then sorts by the same canonical dimension order.
std::vector<StoreResultRow> oracle_run(std::vector<Row> rows,
                                       const StoreQuery& q) {
  std::vector<StoreResultRow> out;
  if (!(q.t0 < q.t1)) return out;

  // Canonical order: ascending partition; append order within. The input
  // vector is in append order, so a stable partition sort reproduces it.
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::floor(a.t / kSegmentSpan) < std::floor(b.t / kSegmentSpan);
  });

  struct Slot {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::vector<double> values;
  };
  std::unordered_map<Dimensions, std::size_t> slots;
  std::vector<Slot> accs;

  for (const Row& r : rows) {
    if (r.metric != q.metric) continue;
    if (r.t < q.t0 || r.t >= q.t1) continue;
    if (q.isp && r.dims.isp != *q.isp) continue;
    if (q.cdn && r.dims.cdn != *q.cdn) continue;
    if (q.server && r.dims.server != *q.server) continue;
    if (q.region && r.dims.region != *q.region) continue;
    if (q.entity && r.entity != *q.entity) continue;
    Dimensions key = project(r.dims, q.group_by);
    auto [it, inserted] = slots.try_emplace(key, accs.size());
    if (inserted) {
      accs.emplace_back();
      out.push_back(StoreResultRow{key, 0, 0.0});
    }
    Slot& s = accs[it->second];
    ++s.count;
    s.sum += r.value;
    s.values.push_back(r.value);
  }

  for (std::size_t i = 0; i < accs.size(); ++i) {
    Slot& s = accs[i];
    out[i].rows = s.count;
    switch (q.agg) {
      case Agg::kCount:
        out[i].value = static_cast<double>(s.count);
        break;
      case Agg::kSum:
        out[i].value = s.sum;
        break;
      case Agg::kMean:
        out[i].value = s.sum / static_cast<double>(s.count);
        break;
      case Agg::kP50:
      case Agg::kP90: {
        const double quant = q.agg == Agg::kP50 ? 0.5 : 0.9;
        const auto rank = static_cast<std::size_t>(
            quant * static_cast<double>(s.values.size() - 1));
        std::nth_element(s.values.begin(),
                         s.values.begin() + static_cast<std::ptrdiff_t>(rank),
                         s.values.end());
        out[i].value = s.values[rank];
        break;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const StoreResultRow& a, const StoreResultRow& b) {
              return dim_order(a.key, b.key);
            });
  return out;
}

const char* kMetrics[] = {"buffering", "bitrate", "link_rate", "sessions"};

std::vector<Row> random_rows(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> t_dist(0.0, 600.0);
  std::uniform_real_distribution<double> v_dist(-1e3, 1e3);
  std::uniform_int_distribution<std::uint32_t> small(0, 3);
  std::uniform_int_distribution<std::uint64_t> ent(0, 7);
  std::uniform_int_distribution<int> metric(0, 3);
  std::uniform_int_distribution<int> invalid(0, 9);
  std::vector<Row> rows(n);
  for (Row& r : rows) {
    r.t = t_dist(rng);
    // One in ten attributes stays the invalid sentinel -- rows without that
    // dimension (e.g. link samples have no CDN) are first-class.
    r.dims.isp = invalid(rng) == 0 ? IspId() : IspId(small(rng));
    r.dims.cdn = invalid(rng) == 0 ? CdnId() : CdnId(small(rng));
    r.dims.server = invalid(rng) == 0 ? ServerId() : ServerId(small(rng));
    r.dims.region = small(rng);
    r.metric = kMetrics[metric(rng)];
    r.entity = ent(rng);
    r.value = v_dist(rng);
  }
  return rows;
}

StoreQuery random_plan(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> metric(0, 4);  // 4 = unknown metric
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> mask(0, 15);
  std::uniform_int_distribution<int> agg(0, 4);
  std::uniform_int_distribution<std::uint32_t> small(0, 3);
  std::uniform_int_distribution<std::uint64_t> ent(0, 7);
  std::uniform_real_distribution<double> t_dist(-50.0, 650.0);

  StoreQuery q;
  int m = metric(rng);
  q.metric = m == 4 ? "no_such_metric" : kMetrics[m];
  if (coin(rng)) {
    double a = t_dist(rng), b = t_dist(rng);
    q.t0 = std::min(a, b);
    q.t1 = std::max(a, b);
  }
  if (coin(rng)) q.isp = IspId(small(rng));
  if (coin(rng)) q.cdn = CdnId(small(rng));
  if (coin(rng)) q.server = ServerId(small(rng));
  if (coin(rng)) q.region = small(rng);
  if (coin(rng)) q.entity = ent(rng);
  q.group_by = static_cast<Dim>(mask(rng));
  q.agg = static_cast<Agg>(agg(rng));
  return q;
}

/// Bitwise double equality: the contract is bit-identity, so -0.0 vs 0.0 or
/// differently-rounded sums must fail.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Asserts the store's answer equals the oracle's: same groups, same row
/// counts, same value bits.
void expect_same_answer(const std::vector<StoreResultRow>& got,
                        const std::vector<StoreResultRow>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << label << " row " << i;
    EXPECT_EQ(got[i].rows, want[i].rows) << label << " row " << i;
    EXPECT_TRUE(same_bits(got[i].value, want[i].value))
        << label << " row " << i << ": store " << got[i].value
        << " vs oracle " << want[i].value;
  }
}

TEST(ColumnStoreProperty, RandomPlansMatchRowScanOracleBitForBit) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<Row> rows = random_rows(rng, 2000);
    ColumnStore store(kSegmentSpan);
    for (const Row& r : rows)
      store.append(r.t, r.dims, r.metric, r.entity, r.value);

    StoreQuery plan = random_plan(rng);
    expect_same_answer(store.run(plan), oracle_run(rows, plan),
                       "seed " + std::to_string(seed));
  }
}

/// A time-ordered stream as the collector appends it: batches of 8 rows
/// share one time, times rise evenly over [0, horizon), and every row falls
/// in one of four dictionary groups (isp x cdn in {0, 1}). "buffering"
/// carries uniform values, "sessions" small integer counts with heavy ties.
std::vector<Row> ordered_rows(std::mt19937_64& rng, std::size_t n,
                              double horizon) {
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::uniform_int_distribution<std::uint32_t> bit(0, 1);
  std::uniform_int_distribution<int> count(0, 4);
  std::uniform_int_distribution<std::uint64_t> ent(0, 3);
  const double step = horizon * 8.0 / static_cast<double>(n);
  std::vector<Row> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    Row& r = rows[i];
    r.t = static_cast<double>(i / 8) * step;
    r.dims.isp = IspId(bit(rng));
    r.dims.cdn = CdnId(bit(rng));
    r.dims.server = ServerId(0);
    r.dims.region = 0;
    const bool counts = bit(rng) == 1;
    r.metric = counts ? "sessions" : "buffering";
    r.entity = ent(rng);
    r.value = counts ? count(rng) : uniform(rng);
  }
  return rows;
}

/// A p50 / p90 / mean / sum plan over a window inside [lo, hi) that cuts
/// partitions; one edge in four sits exactly on a stored time of `rows`,
/// one plan in eight reads the full history.
StoreQuery windowed_plan(std::mt19937_64& rng, const std::vector<Row>& rows,
                         double lo, double hi) {
  std::uniform_int_distribution<int> four(0, 3);
  std::uniform_int_distribution<int> eight(0, 7);
  std::uniform_real_distribution<double> t_dist(lo, hi);
  std::uniform_int_distribution<std::size_t> row(0, rows.size() - 1);
  constexpr Agg kAggs[] = {Agg::kP50, Agg::kP90, Agg::kMean, Agg::kSum};
  constexpr Dim kMasks[] = {Dim::kNone, Dim::kIsp, Dim::kCdn,
                            Dim::kIsp | Dim::kCdn};
  auto edge = [&] { return four(rng) == 0 ? rows[row(rng)].t : t_dist(rng); };

  StoreQuery q;
  q.metric = four(rng) < 2 ? "buffering" : "sessions";
  q.agg = kAggs[four(rng)];
  q.group_by = kMasks[four(rng)];
  if (eight(rng) != 0) {
    const double a = edge(), b = edge();
    q.t0 = std::min(a, b);
    q.t1 = std::max(a, b);
  }
  if (four(rng) == 0) q.isp = IspId(static_cast<std::uint32_t>(four(rng) % 2));
  if (four(rng) == 0) q.entity = static_cast<std::uint64_t>(four(rng));
  return q;
}

TEST(ColumnStoreProperty, LongTimeOrderedStreamMatchesOracleBitForBit) {
  std::mt19937_64 rng(17);
  const double horizon = 2000.0;
  std::vector<Row> rows = ordered_rows(rng, 200'000, horizon);
  ColumnStore store(kSegmentSpan);
  for (const Row& r : rows)
    store.append(r.t, r.dims, r.metric, r.entity, r.value);

  for (int trial = 0; trial < 40; ++trial) {
    const StoreQuery plan = windowed_plan(rng, rows, -10.0, horizon + 10.0);
    expect_same_answer(store.run(plan), oracle_run(rows, plan),
                       "trial " + std::to_string(trial) + " " + plan.metric +
                           " " + agg_name(plan.agg));
  }
}

// A row appended after later rows of its own partition and metric: that
// column is no longer time-ordered, so a window that cuts it must be folded
// with per-row time tests. A binary-searched cut would drop the late row
// from any window that holds it.
TEST(ColumnStoreProperty, OutOfOrderAppendStillAnswersWindowsExactly) {
  std::mt19937_64 rng(29);
  std::vector<Row> rows = ordered_rows(rng, 20'000, 600.0);
  const auto later = std::find_if(rows.begin(), rows.end(), [](const Row& r) {
    return r.t >= 170.0 && r.metric == "buffering";
  });
  ASSERT_NE(later, rows.end());
  Row late = *later;
  late.t = 125.5;  // partition [120, 180), below rows appended before it
  late.value = 0.5;
  rows.insert(later + 1, late);

  ColumnStore store(kSegmentSpan);
  for (const Row& r : rows)
    store.append(r.t, r.dims, r.metric, r.entity, r.value);

  StoreQuery count;
  count.metric = "buffering";
  count.agg = Agg::kCount;
  count.t0 = 125.0;
  count.t1 = 126.0;
  expect_same_answer(store.run(count), oracle_run(rows, count), "late row");

  for (int trial = 0; trial < 40; ++trial) {
    const StoreQuery plan = windowed_plan(rng, rows, 100.0, 200.0);
    expect_same_answer(store.run(plan), oracle_run(rows, plan),
                       "trial " + std::to_string(trial));
  }
}

TEST(ColumnStoreProperty, RepeatedQueriesAreIdempotent) {
  std::mt19937_64 rng(7);
  std::vector<Row> rows = random_rows(rng, 2000);
  ColumnStore store(kSegmentSpan);
  for (const Row& r : rows)
    store.append(r.t, r.dims, r.metric, r.entity, r.value);
  for (int trial = 0; trial < 20; ++trial) {
    StoreQuery plan = random_plan(rng);
    auto first = store.run(plan);
    auto second = store.run(plan);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i].key, second[i].key);
      EXPECT_EQ(first[i].rows, second[i].rows);
      EXPECT_TRUE(same_bits(first[i].value, second[i].value));
    }
  }
}

TEST(ColumnStoreProperty, DumpReplayPreservesEveryQueryAnswer) {
  std::mt19937_64 rng(13);
  std::vector<Row> rows = random_rows(rng, 1000);
  ColumnStore store(kSegmentSpan);
  for (const Row& r : rows)
    store.append(r.t, r.dims, r.metric, r.entity, r.value);

  std::string dump = store.dump_rows();
  ColumnStore reloaded(kSegmentSpan);
  ASSERT_EQ(replay_jsonl(reloaded, dump), rows.size());
  EXPECT_EQ(reloaded.dump_rows(), dump);

  for (int trial = 0; trial < 20; ++trial) {
    StoreQuery plan = random_plan(rng);
    auto a = store.run(plan);
    auto b = reloaded.run(plan);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].key, b[i].key);
      EXPECT_TRUE(same_bits(a[i].value, b[i].value));
    }
  }
}

}  // namespace
}  // namespace eona::telemetry
