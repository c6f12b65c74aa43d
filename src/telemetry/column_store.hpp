// In-memory columnar telemetry store: the queryable half of the measurement
// plane (ROADMAP item 3; SONoMA's "measurement as a service" framing).
//
// Rows arrive in narrow/long form -- (time, dimensions, metric, entity,
// value) -- from the A2I tuple stream and the event bus (see
// store_recorder.hpp). Ingest dictionary-encodes the dimension tuple through
// the same DimensionInterner the aggregation pipeline uses, interns metric
// names to dense ids, and appends to time-partitioned segments. Queries
// filter on any attribute, group by any Dim mask, and aggregate
// count/sum/mean/p50/p90 over a half-open time window.
//
// Layout: each time partition holds one column group per metric -- t,
// group, entity and value, each in append order -- so a query reads only
// its own metric's rows and tests no per-row metric id. Each column group
// records the min and max t it actually holds: a group outside [t0, t1) is
// skipped, and one wholly inside drops the per-row time compare. The
// stored times are used, never the partition bounds, because floor(t/span)
// can put a row just below p*span into partition p. The partition also
// keeps its per-row metric-id sequence, which only dump_rows() reads, so
// the dump interleaves metrics in append order. When an append first opens
// a partition later than any seen so far, the previous last partition is
// sealed: any column with more than 1/16 growth slack is shrunk to fit,
// once, and the new partition's columns are reserved for the sealed one's
// row counts plus 1/32. Appends that return to a sealed partition regrow
// it amortised; sealed history carries at most 1/16 slack.
//
// Sorted-window cut: each column group keeps one `sorted` flag, cleared
// for good by any append whose time is below one already in the group. A
// sorted group that a window only partly covers folds just its index range
// [lower_bound(t0), lower_bound(t1)), with no per-row time compare; an
// unsorted one tests every row. Times must be finite (append() checks).
//
// Determinism contract (pinned by tests/telemetry_store_property_test.cpp):
// a query folds rows in canonical order -- segments in ascending partition
// index, append order within a segment -- with plain left-to-right double
// accumulation. The sorted-window cut folds exactly the rows a per-row time
// test would keep, in the same order. A naive row-scan over the same rows in
// the same order is therefore bit-identical, which is exactly how the
// property test's oracle checks the store. Percentiles are exact lower
// nearest-rank order statistics from telemetry/nearest_rank.hpp, the kernel
// scenarios/common.hpp's QoeSummary also uses. Whether it answers from the
// counts of a tied run at the bracket's low end, selects from a
// sample-bracketed band or falls back to nth_element over all the values,
// it returns the value nth_element would, so percentiles are insensitive to
// fold order by construction; the one latitude, shared with nth_element, is
// the sign of a -0.0 / +0.0 tie at the rank. run() keeps its scratch (slot
// map, per-group slots, accumulators, value vectors, selection buffers) in
// one block that the first query makes and later queries reuse, so it is
// not reentrant: one store must not run two queries at once, from any
// thread. dump_rows() writes every row partition-major, in append order
// within a partition.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/contracts.hpp"
#include "common/units.hpp"
#include "telemetry/interner.hpp"
#include "telemetry/nearest_rank.hpp"
#include "telemetry/session_record.hpp"

namespace eona::telemetry {

/// Dense identifier of one interned metric name.
using MetricId = std::uint32_t;
inline constexpr MetricId kNoMetric = 0xFFFFFFFFu;

/// All four attribute columns; the store's dictionary interns full tuples
/// and queries project them per group-by mask.
inline constexpr Dim kAllDims = Dim::kIsp | Dim::kCdn | Dim::kServer |
                                Dim::kRegion;

/// Aggregate functions the query API supports.
enum class Agg : std::uint8_t { kCount, kSum, kMean, kP50, kP90 };

[[nodiscard]] inline const char* agg_name(Agg agg) {
  switch (agg) {
    case Agg::kCount: return "count";
    case Agg::kSum: return "sum";
    case Agg::kMean: return "mean";
    case Agg::kP50: return "p50";
    case Agg::kP90: return "p90";
  }
  return "?";
}

/// One query plan: which metric, over which window, filtered how, grouped
/// how, aggregated how. Unset filters are wildcards; a set filter matches
/// rows whose attribute equals the filter value exactly (an invalid id
/// filter matches rows where that attribute is unknown).
struct StoreQuery {
  std::string metric;
  TimePoint t0 = -std::numeric_limits<double>::infinity();
  TimePoint t1 = std::numeric_limits<double>::infinity();  ///< window [t0,t1)
  std::optional<IspId> isp;
  std::optional<CdnId> cdn;
  std::optional<ServerId> server;
  std::optional<std::uint32_t> region;
  std::optional<std::uint64_t> entity;
  Dim group_by = Dim::kNone;
  Agg agg = Agg::kMean;
};

/// One result row: the projected group key, how many rows matched, and the
/// aggregate value over them.
struct StoreResultRow {
  Dimensions key;
  std::uint64_t rows = 0;
  double value = 0.0;
};

/// The columnar store proper. Single-writer, append-only; queries are const
/// but share the store's query scratch, so they run one at a time.
class ColumnStore {
 public:
  /// `segment_span` is the width of one time partition in seconds; rows at
  /// time t land in partition floor(t / segment_span).
  explicit ColumnStore(Duration segment_span = 60.0)
      : segment_span_(segment_span), dict_(kAllDims) {
    EONA_EXPECTS(segment_span > 0.0);
  }

  // --- ingest ---------------------------------------------------------

  /// Interns `name`, assigning a dense id on first sight. Hot ingest loops
  /// should intern once and use the MetricId overload of append().
  MetricId intern_metric(std::string_view name) {
    auto it = metric_ids_.find(name);
    if (it != metric_ids_.end()) return it->second;
    auto id = static_cast<MetricId>(metric_names_.size());
    metric_names_.emplace_back(name);
    metric_ids_.emplace(metric_names_.back(), id);
    return id;
  }

  /// Transparent string hashing so find_metric(string_view) avoids a
  /// temporary std::string per lookup.
  struct MetricNameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// Id for `name` if already interned; kNoMetric otherwise.
  [[nodiscard]] MetricId find_metric(std::string_view name) const {
    auto it = metric_ids_.find(name);
    return it == metric_ids_.end() ? kNoMetric : it->second;
  }

  [[nodiscard]] const std::vector<std::string>& metric_names() const {
    return metric_names_;
  }

  /// Appends one row. `entity` is the subject's raw id (link, session,
  /// provider, ...) for point lookups that dimensions do not cover.
  void append(TimePoint t, const Dimensions& dims, MetricId metric,
              std::uint64_t entity, double value) {
    EONA_EXPECTS(metric < metric_names_.size());
    EONA_EXPECTS(std::isfinite(t));
    Segment& seg = segment_for(t);
    if (metric >= seg.by_metric.size()) seg.by_metric.resize(metric + 1);
    Columns& col = seg.by_metric[metric];
    if (t < col.t_max) col.sorted = false;
    col.t.push_back(t);
    col.group.push_back(dict_.intern(dims));
    col.entity.push_back(entity);
    col.value.push_back(value);
    col.t_min = std::min(col.t_min, t);
    col.t_max = std::max(col.t_max, t);
    seg.metric.push_back(metric);
    ++rows_;
  }

  void append(TimePoint t, const Dimensions& dims, std::string_view metric,
              std::uint64_t entity, double value) {
    append(t, dims, intern_metric(metric), entity, value);
  }

  // --- introspection --------------------------------------------------

  [[nodiscard]] std::uint64_t row_count() const { return rows_; }
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] std::size_t group_count() const { return dict_.size(); }
  [[nodiscard]] Duration segment_span() const { return segment_span_; }
  [[nodiscard]] const DimensionInterner& dictionary() const { return dict_; }

  // --- query ----------------------------------------------------------

  /// Runs one query plan. Results hold only groups with at least one
  /// matching row, sorted by the canonical dimension order, so output is
  /// deterministic and diff-friendly. Not reentrant: the query scratch is
  /// shared, so one store must not run two queries at once.
  [[nodiscard]] std::vector<StoreResultRow> run(const StoreQuery& q) const {
    std::vector<StoreResultRow> out;
    MetricId metric = find_metric(q.metric);
    if (metric == kNoMetric || !(q.t0 < q.t1)) return out;
    if (!scratch_) scratch_ = std::make_unique<QueryScratch>();
    QueryScratch& s = *scratch_;
    s.out_slots.clear();
    s.accs.clear();

    // Dictionary-side filter: one pass over distinct groups instead of
    // per-row tuple compares.
    plan_groups(q, s);

    const bool wants_values = q.agg == Agg::kP50 || q.agg == Agg::kP90;

    // Folds rows [begin, end) of one column group in append order;
    // `time_test` is false when every row in the range is inside the window.
    auto fold = [&](const Columns& col, std::size_t begin, std::size_t end,
                    auto time_test, auto entity_test) {
      for (std::size_t i = begin; i < end; ++i) {
        if constexpr (decltype(time_test)::value) {
          if (col.t[i] < q.t0 || col.t[i] >= q.t1) continue;
        }
        GroupId& slot = s.group_slots[col.group[i]];
        if (slot == kFiltered) continue;
        if constexpr (decltype(entity_test)::value) {
          if (col.entity[i] != *q.entity) continue;
        }
        // First row of this projected group: materialize an accumulator.
        if (slot == kNoGroup)
          slot = assign_out(
              s, project(dict_.dims_of(col.group[i]), q.group_by),
              wants_values, out);
        Acc& acc = s.accs[slot];
        ++acc.count;
        acc.sum += col.value[i];
        if (wants_values) s.slot_values[slot].push_back(col.value[i]);
      }
    };

    // Canonical fold order: ascending partition, append order within. A
    // time-ordered group partly inside the window folds only the index
    // range the window cuts from it, in the same order.
    auto fold_all = [&](auto entity_test) {
      for (const auto& [part, seg] : segments_) {
        (void)part;
        if (metric >= seg.by_metric.size()) continue;
        const Columns& col = seg.by_metric[metric];
        const std::size_t n = col.t.size();
        if (n == 0 || col.t_max < q.t0 || col.t_min >= q.t1) continue;
        if (col.t_min >= q.t0 && col.t_max < q.t1) {
          fold(col, 0, n, std::false_type{}, entity_test);
        } else if (col.sorted) {
          const auto first = col.t.begin();
          const auto begin = std::lower_bound(first, col.t.end(), q.t0);
          const auto end = std::lower_bound(begin, col.t.end(), q.t1);
          fold(col, static_cast<std::size_t>(begin - first),
               static_cast<std::size_t>(end - first), std::false_type{},
               entity_test);
        } else {
          fold(col, 0, n, std::true_type{}, entity_test);
        }
      }
    };
    if (q.entity)
      fold_all(std::true_type{});
    else
      fold_all(std::false_type{});

    for (std::size_t slot = 0; slot < s.accs.size(); ++slot) {
      out[slot].rows = s.accs[slot].count;
      out[slot].value = finish(s, q.agg, slot);
    }
    std::sort(out.begin(), out.end(),
              [](const StoreResultRow& a, const StoreResultRow& b) {
                return dim_order(a.key, b.key);
              });
    return out;
  }

  // --- dump / load ----------------------------------------------------

  /// Appends every row as one JSONL line, in canonical (partition-major,
  /// append) order. Reloading a dump with store_replay.hpp's replay_jsonl()
  /// reproduces a store whose dump and query output are byte-identical to
  /// the original (doubles are printed in round-trip "%.17g" form).
  void dump_rows(std::string& out) const {
    char buf[64];
    std::vector<std::size_t> next;  // per-metric read cursor
    for (const auto& [part, seg] : segments_) {
      (void)part;
      next.assign(seg.by_metric.size(), 0);
      for (const MetricId metric : seg.metric) {
        const Columns& col = seg.by_metric[metric];
        const std::size_t i = next[metric]++;
        out += "{\"t\":";
        std::snprintf(buf, sizeof(buf), "%.17g", col.t[i]);
        out += buf;
        const Dimensions& d = dict_.dims_of(col.group[i]);
        append_u32_field(out, "isp", d.isp.value());
        append_u32_field(out, "cdn", d.cdn.value());
        append_u32_field(out, "server", d.server.value());
        append_u32_field(out, "region", d.region);
        out += ",\"entity\":";
        out += std::to_string(col.entity[i]);
        out += ",\"metric\":\"";
        out += metric_names_[metric];
        out += "\",\"value\":";
        std::snprintf(buf, sizeof(buf), "%.17g", col.value[i]);
        out += buf;
        out += "}\n";
      }
    }
  }

  [[nodiscard]] std::string dump_rows() const {
    std::string out;
    dump_rows(out);
    return out;
  }

 private:
  /// One metric's rows within one partition, in append order, and the
  /// range of times they actually hold.
  struct Columns {
    std::vector<TimePoint> t;
    std::vector<GroupId> group;
    std::vector<std::uint64_t> entity;
    std::vector<double> value;
    TimePoint t_min = std::numeric_limits<double>::infinity();
    TimePoint t_max = -std::numeric_limits<double>::infinity();
    bool sorted = true;  ///< t is non-decreasing in append order

    void seal() {
      seal_column(t);
      seal_column(group);
      seal_column(entity);
      seal_column(value);
    }
    void presize(std::size_t rows) {
      presize_column(t, rows);
      presize_column(group, rows);
      presize_column(entity, rows);
      presize_column(value, rows);
    }
  };

  /// One time partition: its column groups indexed by MetricId, and the
  /// metric of every row in append order (read only by dump_rows()).
  struct Segment {
    std::vector<Columns> by_metric;
    std::vector<MetricId> metric;

    void seal() {
      for (Columns& col : by_metric) col.seal();
      seal_column(metric);
    }
    /// Sizes every column for as many rows as `sealed` holds.
    void presize_like(const Segment& sealed) {
      by_metric.resize(sealed.by_metric.size());
      for (std::size_t m = 0; m < by_metric.size(); ++m)
        by_metric[m].presize(sealed.by_metric[m].t.size());
      presize_column(metric, sealed.metric.size());
    }
  };

  /// A sealed column keeps at most 1/16 of its length as growth slack.
  template <typename T>
  static void seal_column(std::vector<T>& column) {
    if (column.capacity() - column.size() > column.size() / 16)
      column.shrink_to_fit();
  }

  /// Room for `rows` plus 1/32 for jitter in a steady stream's rate.
  template <typename T>
  static void presize_column(std::vector<T>& column, std::size_t rows) {
    column.reserve(rows + rows / 32);
  }

  struct Acc {
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  /// Scratch for run(), made by the first query and kept so later ones
  /// reuse its capacity instead of allocating: projected key -> output
  /// slot; per dictionary group its output slot (or kFiltered / kNoGroup);
  /// per output slot its accumulator and, for percentiles, its values; the
  /// selection buffers.
  struct QueryScratch {
    std::unordered_map<Dimensions, GroupId> out_slots;
    std::vector<GroupId> group_slots;
    std::vector<Acc> accs;
    std::vector<std::vector<double>> slot_values;
    RankScratch rank;
  };

  /// group_slots entry of a dictionary group the query's filters reject.
  static constexpr GroupId kFiltered = kNoGroup - 1;

  [[nodiscard]] std::int64_t partition_of(TimePoint t) const {
    return static_cast<std::int64_t>(std::floor(t / segment_span_));
  }

  Segment& segment_for(TimePoint t) {
    const std::int64_t part = partition_of(t);
    if (last_segment_ != nullptr && last_partition_ == part)
      return *last_segment_;
    // Opening a partition past every other one seals the previous last
    // partition and sizes the new one like it: a steady stream fills each
    // column to about the same length, so it rarely reallocates and needs
    // no shrinking at seal. The last partition only ever moves forward, so
    // no segment is sealed or presized twice.
    const Segment* sealed = nullptr;
    if (!segments_.empty() && part > segments_.rbegin()->first) {
      Segment& last = segments_.rbegin()->second;
      last.seal();
      sealed = &last;
    }
    last_partition_ = part;
    last_segment_ = &segments_[part];
    if (sealed != nullptr) last_segment_->presize_like(*sealed);
    return *last_segment_;
  }

  /// Marks every dictionary group kFiltered or, if it passes the filters,
  /// kNoGroup (output slot not yet assigned).
  void plan_groups(const StoreQuery& q, QueryScratch& s) const {
    s.group_slots.resize(dict_.size());
    for (GroupId g = 0; g < s.group_slots.size(); ++g) {
      const Dimensions& d = dict_.dims_of(g);
      const bool pass = (!q.isp || d.isp == *q.isp) &&
                        (!q.cdn || d.cdn == *q.cdn) &&
                        (!q.server || d.server == *q.server) &&
                        (!q.region || d.region == *q.region);
      s.group_slots[g] = pass ? kNoGroup : kFiltered;
    }
  }

  /// Output slot for a projected key, materialized on first sight and
  /// shared between dictionary groups that project to the same key. Slot
  /// value vectors are reused across queries, cleared but not shrunk.
  static GroupId assign_out(QueryScratch& s, const Dimensions& projected,
                            bool wants_values,
                            std::vector<StoreResultRow>& out) {
    auto it = s.out_slots.find(projected);
    if (it != s.out_slots.end()) return it->second;
    auto slot = static_cast<GroupId>(s.accs.size());
    s.out_slots.emplace(projected, slot);
    s.accs.emplace_back();
    if (wants_values) {
      if (s.slot_values.size() <= slot) s.slot_values.emplace_back();
      s.slot_values[slot].clear();
    }
    out.push_back(StoreResultRow{projected, 0, 0.0});
    return slot;
  }

  [[nodiscard]] static double finish(QueryScratch& s, Agg agg,
                                     std::size_t slot) {
    const Acc& acc = s.accs[slot];
    switch (agg) {
      case Agg::kCount: return static_cast<double>(acc.count);
      case Agg::kSum: return acc.sum;
      case Agg::kMean: return acc.sum / static_cast<double>(acc.count);
      case Agg::kP50: return nearest_rank(s.slot_values[slot], 0.5, s.rank);
      case Agg::kP90: return nearest_rank(s.slot_values[slot], 0.9, s.rank);
    }
    return 0.0;
  }

  static void append_u32_field(std::string& out, const char* key,
                               std::uint32_t value) {
    out += ",\"";
    out += key;
    out += "\":";
    out += std::to_string(value);
  }

  Duration segment_span_;
  DimensionInterner dict_;
  std::map<std::int64_t, Segment> segments_;  ///< partition -> columns
  std::int64_t last_partition_ = 0;
  Segment* last_segment_ = nullptr;  ///< one-entry cache for the hot append
  std::vector<std::string> metric_names_;
  std::unordered_map<std::string, MetricId, MetricNameHash, std::equal_to<>>
      metric_ids_;
  std::uint64_t rows_ = 0;
  /// Made by the first run(), so a store that is only written and dumped
  /// never carries it. Held by value it adds 168 bytes to every store, and
  /// the store benchmark's set-up sample (64 stores built into memory that
  /// queries have left cold) read ~0.3 us a store slower on a 4-CPU x86-64
  /// host (medians over 10 seeds, for either interner table size).
  mutable std::unique_ptr<QueryScratch> scratch_;
};

}  // namespace eona::telemetry
