// Mergeable aggregate of session metrics: the unit the pipeline stores per
// group and per window bucket. Exact and O(1)-mergeable (Welford/Chan).
// Quantile sketches do not merge exactly, so none are kept here: the AppP
// approximates a window's p90 from its mean and deviation.
#pragma once

#include <cstdint>

#include "telemetry/session_record.hpp"
#include "telemetry/welford.hpp"

namespace eona::telemetry {

/// Streaming aggregate of SessionMetrics observations.
struct MetricAggregate {
  Welford buffering_ratio;
  Welford avg_bitrate;
  Welford join_time;
  Welford rebuffer_rate;
  Welford page_load_time;
  Welford ttfb;
  Welford engagement;
  double total_bits = 0.0;  ///< summed traffic volume (for A2I forecasts)
  std::uint64_t records = 0;

  void add(const SessionMetrics& m) {
    buffering_ratio.add(m.buffering_ratio);
    avg_bitrate.add(m.avg_bitrate);
    join_time.add(m.join_time);
    rebuffer_rate.add(m.rebuffer_rate);
    page_load_time.add(m.page_load_time);
    ttfb.add(m.ttfb);
    engagement.add(m.engagement);
    total_bits += m.bytes_delivered;
    ++records;
  }

  void merge(const MetricAggregate& other) {
    // add() feeds every field, so all seven Welfords share `records` as
    // their count: one aggregate-level emptiness check replaces seven
    // per-field guard pairs on the window fold, which also skips the empty
    // slots of groups a bucket never saw.
    if (other.records == 0) return;
    if (records == 0) {
      *this = other;
      return;
    }
    buffering_ratio.merge_nonempty(other.buffering_ratio);
    avg_bitrate.merge_nonempty(other.avg_bitrate);
    join_time.merge_nonempty(other.join_time);
    rebuffer_rate.merge_nonempty(other.rebuffer_rate);
    page_load_time.merge_nonempty(other.page_load_time);
    ttfb.merge_nonempty(other.ttfb);
    engagement.merge_nonempty(other.engagement);
    total_bits += other.total_bits;
    records += other.records;
  }

  [[nodiscard]] bool empty() const { return records == 0; }
};

}  // namespace eona::telemetry
