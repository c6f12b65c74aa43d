// Time-windowed group-by aggregation: the "big data platform" stand-in
// behind the AppP's A2I reports.
//
// WindowedAggregator interns dimension tuples into dense GroupIds once
// (interner.hpp) and keeps a ring of time buckets, each a flat vector of
// per-group aggregates indexed by GroupId, so the per-beacon ingest path is
// one packed-key hash plus an integer-indexed array update -- no per-beacon
// struct hashing or node allocation. The ring keeps reads to the recent
// past -- the freshness the A2I interface exports.
//
// Merge semantics (and the contract the property test pins against a
// from-scratch oracle, bit for bit): a group's windowed aggregate is the
// left-fold, starting from a default MetricAggregate, of its per-bucket
// aggregates over live buckets in chronological order. snapshot() performs
// exactly that fold; expiry is dropping a bucket from the fold, never
// floating-point subtraction, which could not be bit-identical.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "telemetry/aggregate.hpp"
#include "telemetry/interner.hpp"
#include "telemetry/session_record.hpp"

namespace eona::telemetry {

/// Time-windowed group-by: a ring of per-group bucket vectors covering the
/// trailing window (see file header). Buckets older than the window are
/// recycled lazily as time advances.
class WindowedAggregator {
 public:
  /// `window` trailing seconds of data retained, in `buckets` equal slices.
  WindowedAggregator(Dim mask, Duration window, std::size_t buckets)
      : interner_(mask),
        bucket_span_(window / static_cast<double>(buckets)),
        ring_(buckets) {
    EONA_EXPECTS(window > 0.0);
    EONA_EXPECTS(buckets >= 2);
  }

  void ingest(const SessionRecord& record) {
    GroupId id = interner_.intern(record.dims);
    std::vector<MetricAggregate>& groups =
        bucket_for(index_of(record.timestamp));
    if (groups.size() <= id) groups.resize(id + 1);
    groups[id].add(record.metrics);
    snap_newest_ = kNoSnapshot;
  }

  /// All groups seen in the window ending at `now`, deterministically
  /// ordered. Returns a reference to an internally memoized vector: valid
  /// until the next ingest() or a read at a different window position. The
  /// controller reads several snapshots per control tick at one position,
  /// so repeat calls are O(1) instead of refolding the window.
  [[nodiscard]] const std::vector<std::pair<Dimensions, MetricAggregate>>&
  snapshot(TimePoint now) const {
    std::int64_t newest = index_of(now);
    if (snap_newest_ == newest) return snap_;
    snap_newest_ = newest;
    std::vector<MetricAggregate> merged(interner_.size());
    std::int64_t oldest = newest - static_cast<std::int64_t>(ring_.size()) + 1;
    for (std::int64_t idx = std::max<std::int64_t>(oldest, 0); idx <= newest;
         ++idx) {
      const Bucket& bucket = slot_of(idx);
      if (bucket.index != idx) continue;
      for (std::size_t id = 0; id < bucket.groups.size(); ++id)
        merged[id].merge(bucket.groups[id]);
    }
    refresh_order();
    snap_.clear();
    for (GroupId id : order_)
      if (!merged[id].empty())
        snap_.emplace_back(interner_.dims_of(id), merged[id]);
    return snap_;
  }

 private:
  static constexpr std::int64_t kNoSnapshot =
      std::numeric_limits<std::int64_t>::min();

  struct Bucket {
    std::int64_t index = -1;  ///< which bucket_span_-slice of time this holds
    std::vector<MetricAggregate> groups;  ///< indexed by GroupId
  };

  [[nodiscard]] std::int64_t index_of(TimePoint t) const {
    return static_cast<std::int64_t>(t / bucket_span_);
  }

  [[nodiscard]] const Bucket& slot_of(std::int64_t idx) const {
    return ring_[static_cast<std::size_t>(idx) % ring_.size()];
  }

  std::vector<MetricAggregate>& bucket_for(std::int64_t idx) {
    Bucket& bucket = ring_[static_cast<std::size_t>(idx) % ring_.size()];
    if (bucket.index != idx) {  // recycle an expired slot
      bucket.index = idx;
      bucket.groups.clear();
    }
    return bucket.groups;
  }

  /// Keep the deterministic dims-sorted emit order cached; it only changes
  /// when a new group is interned.
  void refresh_order() const {
    if (order_.size() == interner_.size()) return;
    for (auto id = static_cast<GroupId>(order_.size());
         id < interner_.size(); ++id)
      order_.push_back(id);
    std::sort(order_.begin(), order_.end(), [this](GroupId a, GroupId b) {
      return dim_order(interner_.dims_of(a), interner_.dims_of(b));
    });
  }

  DimensionInterner interner_;
  Duration bucket_span_;
  std::vector<Bucket> ring_;

  mutable std::vector<GroupId> order_;  ///< dims-sorted ids
  mutable std::vector<std::pair<Dimensions, MetricAggregate>>
      snap_;  ///< memoized snapshot for window position snap_newest_
  mutable std::int64_t snap_newest_ = kNoSnapshot;
};

}  // namespace eona::telemetry
