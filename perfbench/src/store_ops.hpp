// The `store` operation: a ColumnStore fed with a seeded, time-ordered
// A2I-shaped row stream in 10 s ticks. After each tick a batch of windowed
// tick queries (the last 60 s, filtered or grouped, mean/p90) runs; every
// few ticks a full-history grouped scan query runs. Every tick-query answer
// and a fixed sample of scan answers are checked against a row scan over
// the benchmark's own copy of the rows, after the run, so neither the
// timed regions nor the peak memory include the checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probe.hpp"
#include "telemetry/column_store.hpp"

namespace perfbench {

struct StoreOp {
  std::uint64_t seed = 1;
  std::size_t rows = 4'000'000;
  double horizon = 3600.0;       ///< simulated seconds the rows span
  double tick = 10.0;            ///< ingest batch width
  double window = 60.0;          ///< tick-query look-back
  std::size_t tick_queries = 2;  ///< per tick
  std::size_t scan_every = 8;    ///< ticks between scan queries
  /// Oracle-check every n-th scan. Coprime with the 12-scan cycle of
  /// 6 metrics x (mean, p90), so the sample covers both aggregations and
  /// every metric.
  std::size_t scan_check_every = 5;
  std::size_t setup_batch = 64;  ///< constructions timed per set-up sample
};

/// The benchmark's copy of the generated rows, time-ordered. `packed`
/// holds isp:2 cdn:2 server:3 region:4 entity:5 metric:3 bits.
struct Rows {
  std::vector<double> t;
  std::vector<double> value;
  std::vector<std::uint32_t> packed;
};

[[nodiscard]] Rows generate_rows(std::uint64_t seed, std::size_t n,
                                 double horizon);

/// The metric names rows carry, indexed by the packed metric field.
[[nodiscard]] const std::vector<std::string>& store_metrics();

/// Interns store_metrics() into `store`; ids are indexed like the names.
std::vector<eona::telemetry::MetricId> intern_metrics(
    eona::telemetry::ColumnStore& store);

/// Appends rows [begin, end) of `rows` to `store`.
void append_rows(eona::telemetry::ColumnStore& store, const Rows& rows,
                 const std::vector<eona::telemetry::MetricId>& ids,
                 std::size_t begin, std::size_t end);

/// Row-scan oracle: the answer `q` must give over rows [0, end) of `rows`.
[[nodiscard]] std::vector<eona::telemetry::StoreResultRow> oracle_answer(
    const Rows& rows, std::size_t end, const eona::telemetry::StoreQuery& q);

/// Exact comparison; returns "" when equal, else what differs.
[[nodiscard]] std::string answer_mismatch(
    const std::vector<eona::telemetry::StoreResultRow>& got,
    const std::vector<eona::telemetry::StoreResultRow>& want);

[[nodiscard]] JsonLine run_store(const StoreOp& op, bool traced);

}  // namespace perfbench
