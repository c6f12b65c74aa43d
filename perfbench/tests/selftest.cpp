// Self-test of the benchmark's own C++ code: span self-time arithmetic and
// the store oracle gate. Build target perfbench_selftest; exits non-zero on
// the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "probe.hpp"
#include "store_ops.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void span_self_time() {
  perfbench::SpanRecorder rec;
  const auto round = rec.intern("round");
  const auto run = rec.intern("run");
  const auto spawn = rec.intern("spawn");
  // round [0, 100] holds run [10, 60] (which holds spawn [20, 30]) and
  // run [70, 90]; times in ns.
  auto r = rec.begin_at(round, 0);
  auto a = rec.begin_at(run, 10);
  auto s = rec.begin_at(spawn, 20);
  rec.end_at(s, 30);
  rec.end_at(a, 60);
  auto b = rec.begin_at(run, 70);
  rec.end_at(b, 90);
  rec.end_at(r, 100);
  const auto totals = rec.fold();
  check(totals.at("round").count == 1, "one round span");
  check(near(totals.at("round").total_s, 100e-9), "round total");
  check(near(totals.at("round").self_s, 30e-9), "round self = 100 - 50 - 20");
  check(totals.at("run").count == 2, "two run spans");
  check(near(totals.at("run").total_s, 70e-9), "run total = 50 + 20");
  check(near(totals.at("run").self_s, 60e-9), "run self = 70 - 10");
  check(near(totals.at("spawn").self_s, 10e-9), "leaf self = total");
  check(rec.spans()[static_cast<std::size_t>(s)].parent == a,
        "parent is the innermost open span");
}

void span_overlapping_children() {
  // Children given explicit times may overlap or straggle past the parent;
  // the covered time is their union clipped to the parent.
  perfbench::SpanRecorder rec;
  const auto p = rec.intern("p");
  const auto c = rec.intern("c");
  auto outer = rec.begin_at(p, 0);
  auto k1 = rec.begin_at(c, 1);
  rec.end_at(k1, 3);
  auto k2 = rec.begin_at(c, 2);
  rec.end_at(k2, 5);
  auto k3 = rec.begin_at(c, 8);
  rec.end_at(k3, 12);
  rec.end_at(outer, 10);
  // covered = [1, 5] + [8, 10] = 6 -> self = 10 - 6 = 4 ns.
  check(near(rec.fold().at("p").self_s, 4e-9), "union of children");
}

void span_misuse_throws() {
  perfbench::SpanRecorder rec;
  const auto n = rec.intern("n");
  auto a = rec.begin_at(n, 0);
  rec.begin_at(n, 1);
  bool threw = false;
  try {
    rec.end_at(a, 2);
  } catch (const std::logic_error&) {
    threw = true;
  }
  check(threw, "closing an outer span first throws");
}

void store_oracle_gate() {
  using namespace eona::telemetry;
  const perfbench::Rows rows = perfbench::generate_rows(7, 20000, 600.0);
  ColumnStore store(60.0);
  perfbench::append_rows(store, rows, perfbench::intern_metrics(store), 0,
                         rows.t.size());
  StoreQuery q;
  q.metric = "link_rate";
  q.t0 = 120.0;
  q.t1 = 300.0;
  q.group_by = Dim::kIsp | Dim::kCdn;
  for (Agg agg : {Agg::kMean, Agg::kP90, Agg::kSum, Agg::kCount}) {
    q.agg = agg;
    auto got = store.run(q);
    auto want = perfbench::oracle_answer(rows, rows.t.size(), q);
    check(!got.empty(), "query matches rows");
    check(perfbench::answer_mismatch(got, want).empty(),
          "store equals the row-scan oracle");
    // An injected wrong answer must be caught.
    auto wrong = got;
    wrong[got.size() / 2].value = std::nextafter(wrong[got.size() / 2].value, 2.0);
    check(!perfbench::answer_mismatch(wrong, want).empty(),
          "a value one ulp off is a mismatch");
    wrong = got;
    wrong.back().rows += 1;
    check(!perfbench::answer_mismatch(wrong, want).empty(),
          "a wrong row count is a mismatch");
    wrong = got;
    wrong.pop_back();
    check(!perfbench::answer_mismatch(wrong, want).empty(),
          "a missing group is a mismatch");
  }
  // The oracle sees only rows appended so far.
  q.agg = Agg::kCount;
  q.t0 = 0.0;
  q.t1 = 1e9;
  auto partial = perfbench::oracle_answer(rows, 100, q);
  std::uint64_t n = 0;
  for (const auto& r : partial) n += r.rows;
  check(n <= 100 && n > 0, "oracle honours the appended prefix");
}

void store_oracle_full_history_p90() {
  // The scan queries: full history over many segments, grouped by
  // isp x cdn, p90 (and mean) of every metric.
  using namespace eona::telemetry;
  const perfbench::Rows rows = perfbench::generate_rows(11, 60000, 3600.0);
  ColumnStore store(60.0);
  perfbench::append_rows(store, rows, perfbench::intern_metrics(store), 0,
                         rows.t.size());
  check(store.segment_count() == 60, "rows span 60 segments");
  for (const std::string& metric : perfbench::store_metrics()) {
    for (Agg agg : {Agg::kP90, Agg::kMean}) {
      StoreQuery q;
      q.metric = metric;
      q.group_by = Dim::kIsp | Dim::kCdn;
      q.agg = agg;
      auto got = store.run(q);
      auto want = perfbench::oracle_answer(rows, rows.t.size(), q);
      check(got.size() == 16, "one group per isp x cdn");
      check(perfbench::answer_mismatch(got, want).empty(),
            "full-history scan equals the row-scan oracle");
      auto wrong = got;
      wrong.front().value = std::nextafter(wrong.front().value, -1.0);
      check(!perfbench::answer_mismatch(wrong, want).empty(),
            "a full-history value one ulp off is a mismatch");
    }
  }
}

}  // namespace

int main() {
  span_self_time();
  span_overlapping_children();
  span_misuse_throws();
  store_oracle_gate();
  store_oracle_full_history_p90();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
