// The `crowded` and `sparse` operations: one scale world per process.
//
// Timed: calls scenarios::run_scale with a RunPerf attached and measures
// wall time and memory around it.
// Traced: re-composes the same world from public calls, in the same order
// as scenarios/scale.cpp, with spans around each layer call and per-sector
// counters from event-bus subscriptions and accessors. It always advances
// sectors on one thread, so its result doubles as a thread-identity check
// against a timed run at any thread count.
#pragma once

#include <cstdint>
#include <string>

#include "probe.hpp"
#include "scenarios/scale.hpp"

namespace perfbench {

struct ScaleOp {
  std::uint64_t seed = 1;
  std::size_t sessions = 0;
  std::size_t sectors = 1;
  std::size_t threads = 1;
  double arrival_window = 0.0;  ///< 0 = scenario default
};

[[nodiscard]] eona::scenarios::ScaleConfig scale_config(const ScaleOp& op);

/// Canonical rendering of everything the scale result JSON carries, so two
/// runs are byte-identical exactly when their renderings are.
[[nodiscard]] std::string scale_canonical(
    const eona::scenarios::ScaleResult& result);

[[nodiscard]] JsonLine run_scale_timed(const ScaleOp& op);
[[nodiscard]] JsonLine run_scale_traced(const ScaleOp& op);

}  // namespace perfbench
