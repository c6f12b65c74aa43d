// Time-windowed group-by aggregation: the "big data platform" stand-in
// behind the AppP's A2I reports.
//
// WindowedAggregator interns dimension tuples into dense GroupIds once
// (interner.hpp) and keeps its per-group state in sharded flat tables keyed
// by those ids (group_table.hpp), so the per-beacon ingest path is one
// packed-key hash plus integer-indexed array updates -- no per-beacon
// struct hashing or node allocation. A rotating time-bucket ring keeps
// queries to the recent past -- the freshness the A2I interface exports --
// and the window merge is maintained incrementally: a per-group prefix
// aggregate over all live buckets except the newest is cached and refolded
// only when the window position moves, so query() is O(1) and snapshot() is
// O(groups) amortized instead of O(buckets x groups) per call.
//
// Canonical merge semantics (and the contract the property test pins
// against a from-scratch oracle, bit for bit): a group's windowed aggregate
// is the left-fold, starting from a default MetricAggregate, of its
// per-bucket aggregates over live buckets in chronological order. The
// incremental path reproduces exactly that fold -- the cached prefix is the
// fold over all but the newest bucket and the newest bucket's aggregate is
// merged last -- rather than approximating expiry by floating-point
// subtraction, which could never be bit-identical.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "telemetry/aggregate.hpp"
#include "telemetry/group_table.hpp"
#include "telemetry/interner.hpp"
#include "telemetry/session_record.hpp"

namespace eona::telemetry {

/// Time-windowed group-by: a ring of bucket tables covering the trailing
/// window, with an incrementally maintained per-group merge (see file
/// header). Buckets older than the window are recycled lazily as time
/// advances.
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
    std::int64_t idx = index_of(record.timestamp);
    Bucket& bucket = bucket_for(idx);
    bucket.groups.at(id).add(record.metrics);
    // Appends to the newest cached bucket leave the prefix fold intact;
    // anything else (older bucket, or a bucket beyond the cached window
    // position) changes what the fold must cover. A materialized snapshot
    // is stale either way.
    if (idx != cached_newest_) cache_valid_ = false;
    snap_valid_ = false;
  }

  /// Merged aggregate for `dims`' group over the window ending at `now`.
  /// Empty aggregate when the group produced no beacons in the window.
  [[nodiscard]] MetricAggregate query(const Dimensions& dims,
                                      TimePoint now) const {
    refresh_cache(index_of(now));
    GroupId id = interner_.find(dims);
    if (id == kNoGroup) return {};
    return merged_of(id, bucket_at(cached_newest_));
  }

  /// All groups seen in the window ending at `now`, deterministically
  /// ordered. Returns a reference to an internally memoized vector: valid
  /// until the next ingest() or a read at a different window position. The
  /// controller reads several snapshots per control tick at one position,
  /// so repeat calls are O(1) instead of re-copying O(groups) state.
  [[nodiscard]] const std::vector<std::pair<Dimensions, MetricAggregate>>&
  snapshot(TimePoint now) const {
    refresh_cache(index_of(now));
    if (snap_valid_) return snap_;
    refresh_order();
    snap_.clear();
    // Pre-reserve from the live buckets' group counts: an upper bound on
    // (and usually close to) the number of distinct groups in the window.
    std::size_t live_entries = 0;
    for (const Bucket& bucket : ring_)
      if (bucket_live(bucket.index)) live_entries += bucket.groups.size();
    snap_.reserve(std::min(live_entries, order_.size()));
    const Bucket* newest = bucket_at(cached_newest_);
    for (GroupId id : order_) {
      MetricAggregate merged = merged_of(id, newest);
      if (merged.empty()) continue;
      snap_.emplace_back(interner_.dims_of(id), merged);
    }
    snap_valid_ = true;
    return snap_;
  }

  [[nodiscard]] Duration window() const {
    return bucket_span_ * static_cast<double>(ring_.size());
  }

 private:
  struct Bucket {
    std::int64_t index = -1;  ///< which bucket_span_-slice of time this holds
    ShardedGroupTable<MetricAggregate> groups;
  };

  [[nodiscard]] std::int64_t index_of(TimePoint t) const {
    return static_cast<std::int64_t>(t / bucket_span_);
  }

  Bucket& bucket_for(std::int64_t idx) {
    Bucket& bucket = ring_[static_cast<std::size_t>(idx) % ring_.size()];
    if (bucket.index != idx) {  // recycle an expired slot
      bucket.index = idx;
      bucket.groups.clear();
    }
    return bucket;
  }

  /// Is the bucket holding slice `idx` live for the cached window position?
  [[nodiscard]] bool bucket_live(std::int64_t idx) const {
    if (idx < 0) return false;
    std::int64_t oldest =
        cached_newest_ - static_cast<std::int64_t>(ring_.size()) + 1;
    return idx >= oldest && idx <= cached_newest_;
  }

  /// The bucket currently holding slice `idx`, or nullptr.
  [[nodiscard]] const Bucket* bucket_at(std::int64_t idx) const {
    if (idx < 0) return nullptr;
    const Bucket& bucket = ring_[static_cast<std::size_t>(idx) % ring_.size()];
    return bucket.index == idx ? &bucket : nullptr;
  }

  using GroupTable = ShardedGroupTable<MetricAggregate>;
  static constexpr std::size_t kShards = GroupTable::kShards;

  /// Rebuild the per-group prefix fold for the window ending at bucket
  /// `newest`. O(buckets x groups), paid once per window position instead
  /// of on every query/snapshot. The fold runs shard-by-shard so each pass
  /// writes one compact slice of the prefix instead of scattering over the
  /// whole group range; a group lives in exactly one shard, so its buckets
  /// are still merged in chronological order -- exactly the order the
  /// canonical from-scratch merge uses.
  void refresh_cache(std::int64_t newest) const {
    if (cache_valid_ && cached_newest_ == newest) return;
    cached_newest_ = newest;
    cache_valid_ = true;
    snap_valid_ = false;
    ++epoch_;
    std::int64_t oldest =
        newest - static_cast<std::int64_t>(ring_.size()) + 1;
    std::size_t per_shard = interner_.size() / kShards + 1;
    for (std::size_t s = 0; s < kShards; ++s) {
      PrefixShard& pre = prefix_[s];
      if (pre.agg.size() < per_shard) {
        pre.agg.resize(per_shard);
        pre.stamp.resize(per_shard, 0);
      }
      for (std::int64_t idx = oldest; idx < newest; ++idx) {
        const Bucket* bucket = bucket_at(idx);
        if (bucket == nullptr) continue;
        for (const GroupTable::Entry& e : bucket->groups.shard_entries(s)) {
          std::size_t local = e.group / kShards;
          // Epoch stamps let every rebuild start from logically-empty slots
          // without re-zeroing the whole array; the first contribution is
          // an assignment (== merge into empty), later ones merge.
          if (pre.stamp[local] != epoch_) {
            pre.stamp[local] = epoch_;
            pre.agg[local] = e.value;
          } else {
            pre.agg[local].merge(e.value);
          }
        }
      }
    }
  }

  /// Canonical windowed aggregate of one group at the cached position:
  /// prefix fold, then the newest bucket's contribution last.
  [[nodiscard]] MetricAggregate merged_of(GroupId id,
                                          const Bucket* newest) const {
    const PrefixShard& pre = prefix_[id % kShards];
    std::size_t local = id / kShards;
    MetricAggregate merged;
    if (local < pre.agg.size() && pre.stamp[local] == epoch_)
      merged = pre.agg[local];
    if (newest != nullptr) {
      if (const MetricAggregate* agg = newest->groups.find(id))
        merged.merge(*agg);
    }
    return merged;
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

  // Incremental window state (const query paths maintain it lazily).
  struct PrefixShard {
    std::vector<MetricAggregate> agg;   ///< indexed by id / kShards
    std::vector<std::uint64_t> stamp;   ///< epoch that last wrote each slot
  };
  mutable std::array<PrefixShard, kShards> prefix_;
  mutable std::uint64_t epoch_ = 0;
  mutable std::vector<GroupId> order_;           ///< dims-sorted ids
  mutable std::vector<std::pair<Dimensions, MetricAggregate>>
      snap_;  ///< memoized snapshot for the current window contents
  mutable std::int64_t cached_newest_ =
      std::numeric_limits<std::int64_t>::min();
  mutable bool cache_valid_ = false;
  mutable bool snap_valid_ = false;
};

}  // namespace eona::telemetry
