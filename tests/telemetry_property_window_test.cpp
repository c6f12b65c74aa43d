// Property test: the WindowedAggregator's snapshot results are
// BIT-identical to a from-scratch oracle that re-merges every live bucket
// chronologically on every call.
//
// The oracle mirrors the canonical semantics documented in aggregator.hpp:
// a group's windowed aggregate is the left-fold, from a default
// MetricAggregate, of its per-bucket aggregates over live buckets in
// chronological order. The aggregator (flat per-bucket vectors, memoized
// snapshot) must reproduce exactly that, across randomized schedules of
// ingest bursts, time advances (including jumps that recycle several
// buckets), backdated records, and interleaved reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <tuple>
#include <type_traits>
#include <vector>

#include "sim/rng.hpp"
#include "telemetry/aggregator.hpp"

namespace eona::telemetry {
namespace {

constexpr Dim kMask = Dim::kIsp | Dim::kCdn;

/// From-scratch reference: plain per-bucket maps, full chronological merge
/// on every read. Deliberately the simplest possible implementation.
class OracleWindowed {
 public:
  OracleWindowed(Duration window, std::size_t buckets)
      : span_(window / static_cast<double>(buckets)), buckets_(buckets) {}

  void ingest(const SessionRecord& record) {
    std::int64_t idx =
        static_cast<std::int64_t>(record.timestamp / span_);
    // Mirror the ring's recycling: slot contents survive only while no
    // newer slice claimed the same slot.
    auto [it, inserted] = ring_.try_emplace(slot(idx));
    if (inserted || it->second.index != idx) {
      it->second.index = idx;
      it->second.groups.clear();
    }
    it->second.groups[project(record.dims, kMask)].add(record.metrics);
  }

  [[nodiscard]] MetricAggregate query(const Dimensions& dims,
                                      TimePoint now) const {
    Dimensions key = project(dims, kMask);
    MetricAggregate merged;
    for_each_live_chronological(now, [&](const BucketState& bucket) {
      auto it = bucket.groups.find(key);
      if (it != bucket.groups.end()) merged.merge(it->second);
    });
    return merged;
  }

  [[nodiscard]] std::vector<std::pair<Dimensions, MetricAggregate>> snapshot(
      TimePoint now) const {
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                        std::uint32_t>,
             Dimensions>
        seen;
    for_each_live_chronological(now, [&](const BucketState& bucket) {
      for (const auto& [dims, agg] : bucket.groups)
        seen.emplace(dim_tuple(dims), dims);
    });
    std::vector<std::pair<Dimensions, MetricAggregate>> result;
    for (const auto& [key, dims] : seen) {
      MetricAggregate merged = query(dims, now);
      if (merged.empty()) continue;
      result.emplace_back(dims, merged);
    }
    return result;
  }

 private:
  struct BucketState {
    std::int64_t index = -1;
    std::map<Dimensions, MetricAggregate,
             decltype([](const Dimensions& a, const Dimensions& b) {
               return dim_order(a, b);
             })>
        groups;
  };

  [[nodiscard]] std::int64_t slot(std::int64_t idx) const {
    return idx % static_cast<std::int64_t>(buckets_);
  }

  template <typename Fn>
  void for_each_live_chronological(TimePoint now, Fn&& fn) const {
    std::int64_t newest = static_cast<std::int64_t>(now / span_);
    std::int64_t oldest = newest - static_cast<std::int64_t>(buckets_) + 1;
    for (std::int64_t idx = oldest; idx <= newest; ++idx) {
      if (idx < 0) continue;
      auto it = ring_.find(slot(idx));
      if (it == ring_.end() || it->second.index != idx) continue;
      fn(it->second);
    }
  }

  Duration span_;
  std::size_t buckets_;
  std::map<std::int64_t, BucketState> ring_;
};

bool bit_equal(const MetricAggregate& a, const MetricAggregate& b) {
  static_assert(std::is_trivially_copyable_v<MetricAggregate>);
  return std::memcmp(&a, &b, sizeof(MetricAggregate)) == 0;
}

/// `dims`' group in the aggregator's snapshot at `now`, looked up the way
/// the oracle's query() projects it; empty when the window holds none.
MetricAggregate lookup(const WindowedAggregator& agg, const Dimensions& dims,
                       TimePoint now) {
  auto key = dim_tuple(project(dims, kMask));
  for (const auto& [group, merged] : agg.snapshot(now))
    if (dim_tuple(group) == key) return merged;
  return {};
}

void assert_snapshots_bit_equal(const WindowedAggregator& incremental,
                                const OracleWindowed& oracle, TimePoint now,
                                std::uint64_t seed) {
  const auto& inc_snap = incremental.snapshot(now);
  auto ora_snap = oracle.snapshot(now);
  ASSERT_EQ(inc_snap.size(), ora_snap.size())
      << "seed " << seed << " now " << now;
  for (std::size_t i = 0; i < inc_snap.size(); ++i) {
    ASSERT_EQ(dim_tuple(inc_snap[i].first), dim_tuple(ora_snap[i].first))
        << "seed " << seed << " now " << now;
    ASSERT_TRUE(bit_equal(inc_snap[i].second, ora_snap[i].second))
        << "seed " << seed << " now " << now << " group " << i;
  }
}

SessionRecord random_record(sim::Rng& rng, TimePoint t) {
  SessionRecord r;
  r.session = SessionId(static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)));
  r.dims.isp = IspId(static_cast<std::uint32_t>(rng.uniform_int(0, 7)));
  r.dims.cdn = CdnId(static_cast<std::uint32_t>(rng.uniform_int(0, 3)));
  r.dims.server = ServerId(static_cast<std::uint32_t>(rng.uniform_int(0, 15)));
  r.metrics.buffering_ratio = rng.uniform(0, 0.5);
  r.metrics.avg_bitrate = rng.uniform(1e5, 8e6);
  r.metrics.join_time = rng.uniform(0, 12);
  r.metrics.rebuffer_rate = rng.uniform(0, 2);
  r.metrics.page_load_time = rng.uniform(0, 5);
  r.metrics.ttfb = rng.uniform(0, 1);
  r.metrics.engagement = rng.uniform(0, 1);
  r.metrics.bytes_delivered = rng.uniform(1e4, 1e8);
  r.timestamp = t;
  return r;
}

/// One randomized schedule: bursts of beacons, random time advances (some
/// big enough to expire several buckets), occasional backdated records, and
/// reads after every step.
void run_schedule(std::uint64_t seed) {
  sim::Rng rng(seed);
  const Duration window = 60.0;
  const std::size_t buckets = 6;
  WindowedAggregator incremental(kMask, window, buckets);
  OracleWindowed oracle(window, buckets);

  TimePoint now = 0.0;
  std::vector<Dimensions> probes;
  for (int step = 0; step < 40; ++step) {
    // Advance time: usually a fraction of a bucket, sometimes far enough to
    // recycle most or all of the ring.
    double advance = rng.uniform(0, 1) < 0.15
                         ? rng.uniform(0, 2.5 * window)
                         : rng.uniform(0, 2.0 * window / buckets);
    now += advance;

    int burst = static_cast<int>(rng.uniform_int(0, 24));
    for (int i = 0; i < burst; ++i) {
      // Mostly current beacons, occasionally backdated into an older (maybe
      // already-expired) slice.
      TimePoint t = rng.uniform(0, 1) < 0.2
                        ? std::max(0.0, now - rng.uniform(0, 1.5 * window))
                        : now;
      SessionRecord r = random_record(rng, t);
      probes.push_back(r.dims);
      incremental.ingest(r);
      oracle.ingest(r);
    }

    // Interleave reads (including repeats at the same position, which hit
    // the memoized snapshot) with ingest.
    ASSERT_NO_FATAL_FAILURE(
        assert_snapshots_bit_equal(incremental, oracle, now, seed));
    auto inc_snap = incremental.snapshot(now);
    auto inc_again = incremental.snapshot(now);
    ASSERT_EQ(inc_again.size(), inc_snap.size());

    for (int q = 0; q < 4 && !probes.empty(); ++q) {
      const Dimensions& dims =
          probes[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(probes.size()) - 1))];
      ASSERT_TRUE(
          bit_equal(lookup(incremental, dims, now), oracle.query(dims, now)))
          << "seed " << seed;
    }
    // Unseen group stays empty on both sides.
    Dimensions unseen;
    unseen.isp = IspId(999);
    unseen.cdn = CdnId(999);
    ASSERT_TRUE(
        bit_equal(lookup(incremental, unseen, now), oracle.query(unseen, now)));
  }
}

TEST(WindowedAggregatorProperty, BitIdenticalToFromScratchMergeAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) run_schedule(seed);
}

TEST(WindowedAggregatorProperty, QueryAtEarlierPositionAfterLaterReads) {
  // Reads move the memoized window position forward and back again; each
  // must refold the window it names, and every recorded group must read
  // back from that snapshot as the oracle merges it.
  sim::Rng rng(7);
  WindowedAggregator incremental(kMask, 60.0, 6);
  OracleWindowed oracle(60.0, 6);
  std::vector<SessionRecord> records;
  for (int i = 0; i < 200; ++i) {
    SessionRecord r = random_record(rng, rng.uniform(0, 120.0));
    records.push_back(r);
    incremental.ingest(r);
    oracle.ingest(r);
  }
  for (TimePoint now : {120.0, 90.0, 125.0, 60.0, 130.0}) {
    ASSERT_NO_FATAL_FAILURE(
        assert_snapshots_bit_equal(incremental, oracle, now, 7));
    for (const auto& r : records) {
      ASSERT_TRUE(bit_equal(lookup(incremental, r.dims, now),
                            oracle.query(r.dims, now)))
          << "now " << now;
    }
  }
}

}  // namespace
}  // namespace eona::telemetry
