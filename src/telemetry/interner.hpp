// Dimension interning: the ingest-side key compression of the telemetry
// pipeline.
//
// A DimensionInterner maps each distinct projected `Dimensions` tuple to a
// dense GroupId exactly once. Hot-path cost per beacon is one hash of a
// packed 16-byte key plus a linear probe of a flat open-addressing table --
// no node allocation, no bucket chasing, no equality on a padded struct.
// Everything downstream (the window's per-bucket vectors, the column store's
// group column) then works on small dense integers instead of re-hashing
// full structs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "telemetry/session_record.hpp"

namespace eona::telemetry {

/// Dense identifier of one distinct (projected) dimension tuple.
using GroupId = std::uint32_t;
inline constexpr GroupId kNoGroup = 0xFFFFFFFFu;

/// Open-addressing interner from projected Dimensions to dense GroupId.
/// Ids are assigned 0,1,2,... in first-seen order and never change, so they
/// index flat arrays everywhere else in the pipeline.
class DimensionInterner {
 public:
  explicit DimensionInterner(Dim mask) : mask_(mask) { rehash(kMinCapacity); }

  [[nodiscard]] std::size_t size() const { return dims_.size(); }

  /// Id for `dims` (projected through the mask), interning on first sight.
  GroupId intern(const Dimensions& dims) {
    Dimensions key = project(dims, mask_);
    PackedDimensions packed = pack(key);
    std::size_t slot = probe(packed);
    if (slots_[slot].id != kNoGroup) return slots_[slot].id;
    auto id = static_cast<GroupId>(dims_.size());
    slots_[slot] = Slot{packed, id};
    dims_.push_back(key);
    if (dims_.size() * kLoadDen >= slots_.size() * kLoadNum)
      rehash(slots_.size() * 2);
    return id;
  }

  /// Id for `dims` if already interned; kNoGroup otherwise. Does not mutate,
  /// so const query paths can use it.
  [[nodiscard]] GroupId find(const Dimensions& dims) const {
    PackedDimensions packed = pack(project(dims, mask_));
    std::size_t slot = probe(packed);
    return slots_[slot].id;
  }

  /// The projected tuple a dense id stands for.
  [[nodiscard]] const Dimensions& dims_of(GroupId id) const {
    EONA_EXPECTS(id < dims_.size());
    return dims_[id];
  }

 private:
  struct Slot {
    PackedDimensions key;
    GroupId id = kNoGroup;
  };

  // Power of two. Small, because the table doubles as it fills and an
  // AppP's two QoE windows (isp x cdn and isp x cdn x server, one AppP per
  // sector) hold a handful of groups each. Against 64 slots (1.5 KB per
  // interner up front), on a 4-CPU x86-64 host: the sparse benchmark's
  // 1000 sectors peak at 92.9 instead of 95.4 MiB, and the store
  // benchmark's set-up sample (64 stores built into memory that queries
  // have left cold) reads 12-45% faster (medians over 10 seeds).
  static constexpr std::size_t kMinCapacity = 8;
  static constexpr std::size_t kLoadNum = 7;       // grow above 7/10 load
  static constexpr std::size_t kLoadDen = 10;

  static std::uint64_t mix(PackedDimensions p) {
    std::uint64_t x = p.lo ^ (p.hi * 0x9E3779B97F4A7C15ull);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  /// Slot holding `packed`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(PackedDimensions packed) const {
    std::size_t index = mix(packed) & (slots_.size() - 1);
    while (slots_[index].id != kNoGroup && !(slots_[index].key == packed))
      index = (index + 1) & (slots_.size() - 1);
    return index;
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    for (const Slot& s : old)
      if (s.id != kNoGroup) slots_[probe(s.key)] = s;
  }

  Dim mask_;
  std::vector<Slot> slots_;
  std::vector<Dimensions> dims_;  ///< reverse map, indexed by GroupId
};

}  // namespace eona::telemetry
