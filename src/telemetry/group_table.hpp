// Sharded flat storage keyed by dense GroupId.
//
// Because GroupIds are dense (the interner hands them out 0,1,2,...), a
// "table" needs no hashing at all: a shard is picked by the id's low bits
// and a direct-index slot array maps the id to a slot in that shard's
// contiguous entry vector. Lookup and insert are a couple of arithmetic ops
// and two array indexes -- the integer-indexed array update the ingest path
// is built around. Shards bound slot-array growth spikes and give a natural
// unit for future parallel merging; entries stay contiguous per shard so
// iteration is cache-friendly.
//
// Used by WindowedAggregator's ring buckets, each sparse (only the groups
// seen in that time slice), which is why present-entry iteration and
// O(present) clearing matter.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "telemetry/interner.hpp"

namespace eona::telemetry {

/// Sharded GroupId -> V table with O(1) find-or-insert, O(present)
/// iteration and clear, and stable references between rehash-free inserts.
template <typename V, std::size_t Shards = 16>
class ShardedGroupTable {
  static_assert((Shards & (Shards - 1)) == 0, "shard count is a power of two");

 public:
  struct Entry {
    GroupId group;
    V value{};
  };

  /// Value slot for `id`, default-constructed on first touch.
  V& at(GroupId id) {
    Shard& shard = shards_[id & (Shards - 1)];
    std::size_t local = id / Shards;
    if (local >= shard.slot.size()) shard.slot.resize(local + 1, kEmpty);
    std::int32_t& slot = shard.slot[local];
    if (slot == kEmpty) {
      slot = static_cast<std::int32_t>(shard.entries.size());
      shard.entries.push_back(Entry{id, V{}});
      ++size_;
    }
    return shard.entries[static_cast<std::size_t>(slot)].value;
  }

  /// Value for `id` when present, nullptr otherwise.
  [[nodiscard]] const V* find(GroupId id) const {
    if (id == kNoGroup) return nullptr;
    const Shard& shard = shards_[id & (Shards - 1)];
    std::size_t local = id / Shards;
    if (local >= shard.slot.size() || shard.slot[local] == kEmpty)
      return nullptr;
    return &shard.entries[static_cast<std::size_t>(shard.slot[local])].value;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  static constexpr std::size_t kShards = Shards;

  /// Present entries of one shard (ids congruent to `s` mod Shards), in
  /// insertion order. Lets mergers walk shard-compact id ranges.
  [[nodiscard]] const std::vector<Entry>& shard_entries(std::size_t s) const {
    return shards_[s].entries;
  }

  /// Drop all entries; touches only slots that were actually occupied, so
  /// recycling a sparse window bucket costs O(present), not O(groups).
  void clear() {
    for (Shard& shard : shards_) {
      for (const Entry& e : shard.entries)
        shard.slot[e.group / Shards] = kEmpty;
      shard.entries.clear();
    }
    size_ = 0;
  }

  /// Reserve entry capacity spread across shards (merge pre-sizing).
  void reserve(std::size_t groups) {
    for (Shard& shard : shards_) shard.entries.reserve(groups / Shards + 1);
  }

 private:
  static constexpr std::int32_t kEmpty = -1;
  struct Shard {
    std::vector<std::int32_t> slot;  ///< local index -> entry slot or kEmpty
    std::vector<Entry> entries;      ///< contiguous present entries
  };

  std::array<Shard, Shards> shards_;
  std::size_t size_ = 0;
};

}  // namespace eona::telemetry
