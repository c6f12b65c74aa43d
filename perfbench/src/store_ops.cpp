#include "store_ops.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>

namespace perfbench {

namespace tm = eona::telemetry;

namespace {

/// splitmix64: counter-free stream seeded by the workload seed.
std::uint64_t mix(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

tm::Dimensions dims_of(std::uint32_t p) {
  tm::Dimensions d;
  d.isp = eona::IspId(p & 3);
  d.cdn = eona::CdnId((p >> 2) & 3);
  d.server = eona::ServerId((p >> 4) & 7);
  d.region = (p >> 7) & 15;
  return d;
}
std::uint32_t entity_of(std::uint32_t p) { return (p >> 11) & 31; }
std::uint32_t metric_of(std::uint32_t p) { return (p >> 16) & 7; }

double nearest_rank(std::vector<double>& v, double q) {
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

/// Tick query number `i`, asked in tick `k`: the last `window` seconds
/// before `now`, cycling filtered-mean, grouped-p90, filtered-grouped-mean,
/// grouped-p90.
tm::StoreQuery tick_query(std::size_t i, std::size_t k, double now,
                          double window) {
  tm::StoreQuery s;
  s.t0 = now - window;
  s.t1 = now;
  const auto sel = static_cast<std::uint32_t>(k % 4);
  switch (i % 4) {
    case 0:
      s.metric = "a2i_mean_buffering";
      s.isp = eona::IspId(sel);
      s.agg = tm::Agg::kMean;
      break;
    case 1:
      s.metric = "a2i_mean_bitrate";
      s.group_by = tm::Dim::kIsp | tm::Dim::kCdn;
      s.agg = tm::Agg::kP90;
      break;
    case 2:
      s.metric = "link_rate";
      s.cdn = eona::CdnId(sel);
      s.group_by = tm::Dim::kServer;
      s.agg = tm::Agg::kMean;
      break;
    default:
      s.metric = "a2i_sessions";
      s.group_by = tm::Dim::kRegion;
      s.agg = tm::Agg::kP90;
      break;
  }
  return s;
}

/// Scan query `j`: full history, grouped by isp x cdn; cycles through the
/// metrics, first with mean, then with p90.
tm::StoreQuery scan_query(std::size_t j) {
  const std::size_t metrics = store_metrics().size();
  tm::StoreQuery s;
  s.metric = store_metrics()[j % metrics];
  s.group_by = tm::Dim::kIsp | tm::Dim::kCdn;
  s.agg = (j / metrics) % 2 == 0 ? tm::Agg::kMean : tm::Agg::kP90;
  return s;
}

void digest_answer(std::uint64_t& h,
                   const std::vector<tm::StoreResultRow>& rows) {
  for (const tm::StoreResultRow& r : rows) {
    h = fnv1a(std::to_string(r.key.isp.value()) + ',' +
                  std::to_string(r.key.cdn.value()) + ',' +
                  std::to_string(r.key.server.value()) + ',' +
                  std::to_string(r.key.region) + ' ' +
                  std::to_string(r.rows) + ' ' + exact(r.value) + '\n',
              h);
  }
  h = fnv1a("|", h);
}

double median(std::vector<double> v) {
  return nearest_rank(v, 0.5);
}

}  // namespace

const std::vector<std::string>& store_metrics() {
  static const std::vector<std::string> names = {
      "a2i_mean_buffering", "a2i_mean_bitrate", "a2i_sessions",
      "link_rate",          "link_util",        "a2i_mean_engagement"};
  return names;
}

Rows generate_rows(std::uint64_t seed, std::size_t n, double horizon) {
  Rows rows;
  rows.t.resize(n);
  rows.value.resize(n);
  rows.packed.resize(n);
  std::uint64_t state = seed;
  const auto metrics = static_cast<std::uint64_t>(store_metrics().size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = mix(state);
    rows.t[i] = static_cast<double>(i) * horizon / static_cast<double>(n);
    rows.value[i] = static_cast<double>((r >> 16) & 0xFFFF) / 65536.0;
    // Cardinalities as in bench_sec3_store: 4 isps x 4 cdns x 8 servers x
    // 16 regions, 32 entities; the metric comes from the high bits so it
    // does not correlate with the dimension bits.
    const auto dims = static_cast<std::uint32_t>(r & 0x7FF);
    const auto entity = static_cast<std::uint32_t>((r >> 11) & 31);
    const auto metric = static_cast<std::uint32_t>((r >> 32) % metrics);
    rows.packed[i] = dims | (entity << 11) | (metric << 16);
  }
  return rows;
}

std::vector<tm::MetricId> intern_metrics(tm::ColumnStore& store) {
  std::vector<tm::MetricId> ids;
  for (const std::string& name : store_metrics())
    ids.push_back(store.intern_metric(name));
  return ids;
}

void append_rows(tm::ColumnStore& store, const Rows& rows,
                 const std::vector<tm::MetricId>& ids, std::size_t begin,
                 std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t p = rows.packed[i];
    store.append(rows.t[i], dims_of(p), ids[metric_of(p)], entity_of(p),
                 rows.value[i]);
  }
}

std::vector<tm::StoreResultRow> oracle_answer(const Rows& rows,
                                              std::size_t end,
                                              const tm::StoreQuery& q) {
  const auto& names = store_metrics();
  const auto it = std::find(names.begin(), names.end(), q.metric);
  if (it == names.end() || !(q.t0 < q.t1)) return {};
  const auto metric = static_cast<std::uint32_t>(it - names.begin());
  // Rows are time-ordered: the window is one contiguous index range.
  const auto lo = static_cast<std::size_t>(
      std::lower_bound(rows.t.begin(), rows.t.begin() + static_cast<std::ptrdiff_t>(end), q.t0) -
      rows.t.begin());
  const auto hi = static_cast<std::size_t>(
      std::lower_bound(rows.t.begin(), rows.t.begin() + static_cast<std::ptrdiff_t>(end), q.t1) -
      rows.t.begin());

  struct Group {
    std::uint64_t count = 0;
    double sum = 0.0;
    std::vector<double> values;
  };
  // Keyed by the store's canonical (isp, cdn, server, region) order, so
  // the answer comes out sorted the way ColumnStore::run sorts it.
  std::map<decltype(tm::dim_tuple(tm::Dimensions{})),
           std::pair<tm::Dimensions, Group>>
      groups;
  for (std::size_t i = lo; i < hi; ++i) {
    const std::uint32_t p = rows.packed[i];
    if (metric_of(p) != metric) continue;
    const tm::Dimensions d = dims_of(p);
    if (q.isp && d.isp != *q.isp) continue;
    if (q.cdn && d.cdn != *q.cdn) continue;
    if (q.server && d.server != *q.server) continue;
    if (q.region && d.region != *q.region) continue;
    if (q.entity && entity_of(p) != *q.entity) continue;
    const tm::Dimensions key = tm::project(d, q.group_by);
    auto& [k, g] = groups[tm::dim_tuple(key)];
    k = key;
    ++g.count;
    g.sum += rows.value[i];
    g.values.push_back(rows.value[i]);
  }
  std::vector<tm::StoreResultRow> out;
  for (auto& [tuple, entry] : groups) {
    auto& [key, g] = entry;
    double v = 0.0;
    switch (q.agg) {
      case tm::Agg::kCount: v = static_cast<double>(g.count); break;
      case tm::Agg::kSum: v = g.sum; break;
      case tm::Agg::kMean: v = g.sum / static_cast<double>(g.count); break;
      case tm::Agg::kP50: v = nearest_rank(g.values, 0.5); break;
      case tm::Agg::kP90: v = nearest_rank(g.values, 0.9); break;
    }
    out.push_back(tm::StoreResultRow{key, g.count, v});
  }
  return out;
}

std::string answer_mismatch(const std::vector<tm::StoreResultRow>& got,
                            const std::vector<tm::StoreResultRow>& want) {
  if (got.size() != want.size())
    return "groups " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i].key == want[i].key)) return "group key " + std::to_string(i);
    if (got[i].rows != want[i].rows)
      return "group " + std::to_string(i) + " rows " +
             std::to_string(got[i].rows) + " != " +
             std::to_string(want[i].rows);
    // Bit-exact: the store folds in the same order as the scan.
    if (got[i].value != want[i].value)
      return "group " + std::to_string(i) + " value " + exact(got[i].value) +
             " != " + exact(want[i].value);
  }
  return "";
}

JsonLine run_store(const StoreOp& op, bool traced) {
  // The row copy is the benchmark's own data: its resident size is taken
  // out of the memory figures below.
  const std::uint64_t rss_pre = rss_bytes();
  const Rows rows = generate_rows(op.seed, op.rows, op.horizon);
  const std::uint64_t rss0 = rss_bytes();
  const std::uint64_t row_copy = rss0 - std::min(rss0, rss_pre);
  SpanRecorder rec;
  SpanRecorder* tracer = traced ? &rec : nullptr;
  const std::uint32_t append_span = rec.intern("telemetry.append");
  const std::uint32_t window_span = rec.intern("telemetry.window_query");
  const std::uint32_t scan_span = rec.intern("telemetry.scan_query");

  // Set-up: construction plus metric interning. The store the workload
  // uses is built once; on its own that is a few microseconds, too short
  // to time steadily. So a sample times `setup_batch` back-to-back builds
  // of throwaway stores, one sample before the first tick and one after
  // every tick, and setup_s is the median per build.
  std::vector<double> setup_samples;
  auto sample_setup = [&] {
    std::vector<std::unique_ptr<tm::ColumnStore>> built;
    built.reserve(op.setup_batch);
    const Clock::time_point a = Clock::now();
    for (std::size_t i = 0; i < op.setup_batch; ++i) {
      built.push_back(std::make_unique<tm::ColumnStore>(60.0));
      (void)intern_metrics(*built.back());
    }
    setup_samples.push_back(seconds_between(a, Clock::now()) /
                            static_cast<double>(op.setup_batch));
  };
  const Clock::time_point setup_start = Clock::now();
  const auto store = std::make_unique<tm::ColumnStore>(60.0);
  const std::vector<tm::MetricId> ids = intern_metrics(*store);
  const double store_setup_s = seconds_between(setup_start, Clock::now());
  sample_setup();

  double ingest_s = 0.0;
  double query_s = 0.0;
  std::vector<double> tick_us;
  std::vector<double> scan_ms;
  std::uint64_t queries = 0;
  std::uint64_t rows_matched = 0;
  std::uint64_t digest = fnv1a("");

  // Answers to check against the oracle once the run is over.
  struct Pending {
    tm::StoreQuery query;
    std::size_t appended;
    std::vector<tm::StoreResultRow> got;
  };
  std::vector<Pending> pending;

  // Runs and times one query; keeps its answer for the oracle when asked.
  auto ask = [&](const tm::StoreQuery& q, std::uint32_t span, bool check,
                 std::size_t appended) -> double {
    const Clock::time_point a = Clock::now();
    std::vector<tm::StoreResultRow> got;
    {
      ScopedSpan s(tracer, span);
      got = store->run(q);
    }
    const double dt = seconds_between(a, Clock::now());
    query_s += dt;
    ++queries;
    for (const auto& r : got) rows_matched += r.rows;
    digest_answer(digest, got);
    if (check) pending.push_back({q, appended, std::move(got)});
    return dt;
  };

  const auto ticks = static_cast<std::size_t>(op.horizon / op.tick);
  pending.reserve(ticks * op.tick_queries +
                  ticks / op.scan_every / op.scan_check_every + 1);
  std::size_t next = 0;
  std::size_t scans = 0;
  for (std::size_t k = 0; k < ticks; ++k) {
    const double now = static_cast<double>(k + 1) * op.tick;
    std::size_t end = next;
    while (end < rows.t.size() && rows.t[end] < now) ++end;
    {
      const Clock::time_point a = Clock::now();
      ScopedSpan s(tracer, append_span);
      append_rows(*store, rows, ids, next, end);
      ingest_s += seconds_between(a, Clock::now());
    }
    next = end;
    for (std::size_t q = 0; q < op.tick_queries; ++q)
      tick_us.push_back(
          ask(tick_query(tick_us.size(), k, now, op.window), window_span,
              true, next) *
          1e6);
    if ((k + 1) % op.scan_every == 0) {
      const bool check = scans % op.scan_check_every == 0;
      scan_ms.push_back(ask(scan_query(scans), scan_span, check, next) * 1e3);
      ++scans;
    }
    sample_setup();
  }
  const std::uint64_t peak = peak_rss_bytes();

  std::uint64_t failed = 0;
  std::string first_error;
  for (const Pending& p : pending) {
    const std::string why =
        answer_mismatch(p.got, oracle_answer(rows, p.appended, p.query));
    if (why.empty()) continue;
    ++failed;
    if (first_error.empty())
      first_error = p.query.metric + " [" + exact(p.query.t0) + "," +
                    exact(p.query.t1) + "): " + why;
  }

  const double setup_s = median(setup_samples);
  JsonLine j;
  j.flag("ok", true)
      .count("rows", store->row_count())
      .num("setup_s", setup_s)
      .num("ingest_s", ingest_s)
      .num("query_s", query_s)
      .num("wall_s", store_setup_s + ingest_s + query_s)
      .count("rss_before_bytes", rss0 - row_copy)
      .count("peak_rss_bytes", peak - std::min(peak, row_copy))
      .count("row_copy_bytes", row_copy)
      .count("queries", queries)
      .count("failed", failed)
      .str("first_error", first_error)
      .str("digest", std::to_string(digest));
  if (traced) {
    const auto spans = rec.fold();
    auto total_s = [&](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() ? 0.0 : it->second.total_s;
    };
    j.num("telemetry.append_s", total_s("telemetry.append"))
        .count("telemetry.rows", store->row_count())
        .count("telemetry.segments", store->segment_count())
        .count("telemetry.groups", store->group_count())
        .num("telemetry.window_query_s", total_s("telemetry.window_query"))
        .num("telemetry.scan_query_s", total_s("telemetry.scan_query"))
        .count("telemetry.rows_matched", rows_matched)
        .list("tick_query_us", tick_us)
        .list("scan_query_ms", scan_ms);
  }
  return j;
}

}  // namespace perfbench
