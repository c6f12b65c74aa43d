// Shared vocabulary for the experiment scenarios: control modes and QoE
// summaries computed from finished sessions. EONA wiring itself lives on
// the brokered exchange (eona/exchange.hpp, World::Builder::wire_tenant).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "app/session_pool.hpp"
#include "control/appp.hpp"
#include "control/energy.hpp"
#include "control/infp.hpp"
#include "eona/registry.hpp"
#include "telemetry/nearest_rank.hpp"

namespace eona::sim {
class TraceWriter;  // sim/trace.hpp; scenario configs carry an optional one
}  // namespace eona::sim

namespace eona::scenarios {

/// Which control world a scenario runs in.
enum class ControlMode {
  kBaseline,  ///< today's independent, information-starved loops
  kEona,      ///< EONA interfaces wired and consumed
  kOracle,    ///< hypothetical global controller (upper bound)
};

[[nodiscard]] inline const char* to_string(ControlMode mode) {
  switch (mode) {
    case ControlMode::kBaseline: return "baseline";
    case ControlMode::kEona: return "eona";
    case ControlMode::kOracle: return "oracle";
  }
  return "?";
}

/// Run-cost counters a scenario fills in when the caller passes a non-null
/// `perf` pointer in its config (the eona_lab --perf flag). Counters are
/// accumulated (+=) so one RunPerf can span several runs; wall-clock and
/// memory are measured by the caller, keeping scenario output independent
/// of the host machine.
struct RunPerf {
  std::uint64_t events = 0;  ///< scheduler events fired during the run

  // Phase breakdown for barrier-scheduled scenarios (scale). Non-barrier
  // scenarios leave these at zero. Wall-clock phase times are measured
  // inside the run loop (host-dependent), but land only here -- never in
  // the scenario's byte-stable result JSON.
  std::uint64_t barrier_rounds = 0;       ///< coupling rounds executed
  std::uint64_t sectors_dispatched = 0;   ///< sector advances run by the pool
  std::uint64_t sectors_elided = 0;       ///< quiescent sectors skipped
  std::uint64_t parallel_advance_ns = 0;  ///< wall time in sector advances
  std::uint64_t serial_barrier_ns = 0;    ///< wall time in the coordinator

  /// Fraction of phase-accounted wall time spent in the serial coordinator.
  [[nodiscard]] double serial_fraction() const {
    auto total =
        static_cast<double>(parallel_advance_ns + serial_barrier_ns);
    return total > 0.0 ? static_cast<double>(serial_barrier_ns) / total : 0.0;
  }

  // Broker counters (scenarios with an exchange; zero otherwise).
  std::uint64_t clamp_count = 0;     ///< egress-quota clamps at publish
  std::uint64_t rate_limited = 0;    ///< reports dropped by per-leg rate caps
  std::uint64_t epoch_rejected = 0;  ///< publishes fenced by crash/stale epoch

  /// Fold a run's broker counters in (call once per run, post-drain).
  void add_exchange(const core::Exchange& exchange) {
    clamp_count += exchange.clamp_count();
    rate_limited += exchange.total_delivery_stats().rate_limited;
    epoch_rejected += exchange.epoch_rejected();
  }
};

/// Aggregate experience over a set of finished sessions.
struct QoeSummary {
  std::size_t sessions = 0;
  double mean_buffering = 0.0;
  double p90_buffering = 0.0;
  double mean_bitrate = 0.0;   // bps
  double mean_join_time = 0.0;
  double mean_engagement = 0.0;
  std::uint64_t stalls = 0;
  std::uint64_t cdn_switches = 0;
  std::uint64_t server_switches = 0;

  /// Summarise sessions passing `keep` (default: all).
  template <typename Pred>
  static QoeSummary from(const std::vector<app::SessionSummary>& all,
                         Pred keep) {
    QoeSummary s;
    std::vector<double> buffering;
    for (const auto& session : all) {
      if (!keep(session)) continue;
      ++s.sessions;
      const auto& m = session.record.metrics;
      s.mean_buffering += m.buffering_ratio;
      s.mean_bitrate += m.avg_bitrate;
      s.mean_join_time += m.join_time;
      s.mean_engagement += m.engagement;
      s.stalls += session.stalls;
      s.cdn_switches += session.cdn_switches;
      s.server_switches += session.server_switches;
      buffering.push_back(m.buffering_ratio);
    }
    if (s.sessions == 0) return s;
    auto n = static_cast<double>(s.sessions);
    s.mean_buffering /= n;
    s.mean_bitrate /= n;
    s.mean_join_time /= n;
    s.mean_engagement /= n;
    // Lower nearest-rank p90, the store's percentile convention.
    s.p90_buffering = telemetry::nearest_rank(buffering, 0.9);
    return s;
  }

  static QoeSummary from(const std::vector<app::SessionSummary>& all) {
    return from(all, [](const app::SessionSummary&) { return true; });
  }
};

}  // namespace eona::scenarios
