// Continuous conservation checks over a running World.
//
// The chaos engine mutates the data plane mid-run; the auditor proves the
// rest of the stack kept its invariants while that happened. It subscribes
// to the event bus (no polling loop of its own -- checks piggyback on the
// network's own recompute events) and verifies, on every rate recompute:
//
//  * capacity conservation -- per link, the sum of allocated flow rates
//    never exceeds the *effective* capacity (zero while the link is down)
//    by more than the rounding of that sum (see summation_slack);
//  * no dead-link throughput -- a flow whose path crosses a down link holds
//    rate exactly 0 until it is rerouted or aborted.
//
// When a brokered exchange is attached (watch_exchange), broker-survival
// invariants join the set: no report is ever accepted into a channel while
// the broker is crashed (i.e. under a stale epoch), every live bearer token
// maps to a durable link record whose trust-redacted policy the leg still
// carries (no redacted-attribute leaks across re-registration replay), and
// tenant egress shares sum to <= 1 whenever the egress reference is finite.
// These are re-checked on every fault event, every churn hook, and at
// finalize().
//
// Session-lifecycle conservation is checked at finalize(): every session
// the data plane stranded must have been resolved -- resumed on a live path
// or finished (aborted counts; silently lingering does not) -- and no live
// flow may still be routed over a down link. Scenario runners call
// finalize() after their scheduler drains; a violation at any point throws
// eona::Error, failing the run loudly instead of producing subtly wrong
// results.
//
// Lives in namespace eona::sim (like World) but compiles in the scenarios
// layer, the one place allowed to see every subsystem it audits.
#pragma once

#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "common/error.hpp"
#include "eona/exchange.hpp"
#include "net/network.hpp"
#include "sim/event_bus.hpp"
#include "sim/events.hpp"

namespace eona::sim {

/// Bus-subscribed invariant checker; see file header.
class InvariantAuditor {
 public:
  InvariantAuditor(EventBus& bus, const net::Network& network)
      : bus_(bus), network_(network) {
    bus.subscribe<RateRecomputeEvent>(
        [this](const RateRecomputeEvent& e) { on_recompute(e); });
    bus.subscribe<SessionStrandedEvent>([this](const SessionStrandedEvent& e) {
      stranded_.insert(e.session);
      ++stranded_events_;
    });
    bus.subscribe<SessionResumedEvent>([this](const SessionResumedEvent& e) {
      stranded_.erase(e.session);
      ++resumed_events_;
    });
    bus.subscribe<SessionFinishedEvent>(
        [this](const SessionFinishedEvent& e) { stranded_.erase(e.session); });
  }

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  /// Audit a brokered exchange alongside the data plane: structural checks
  /// (token/link/policy consistency, quota sums) run on every fault event
  /// and at finalize(), and any report accepted into a channel while the
  /// broker is crashed fails immediately -- the fence proof that nothing is
  /// delivered under a stale epoch.
  void watch_exchange(const core::Exchange* exchange) {
    if (exchange == nullptr || exchange_ != nullptr) {
      exchange_ = exchange;
      return;
    }
    exchange_ = exchange;
    bus_.subscribe<FaultEvent>([this](const FaultEvent&) { check_exchange(); });
    bus_.subscribe<ReportPublishedEvent>([this](const ReportPublishedEvent& e) {
      if (exchange_ != nullptr && exchange_->crashed())
        fail(std::string("report '") + e.kind +
             "' accepted into a channel while the broker is crashed");
    });
  }

  /// Structural exchange invariants; safe to call any time (no-op when no
  /// exchange is watched). Churn hooks call this after every mutation.
  void check_exchange() const {
    if (exchange_ == nullptr) return;
    ++exchange_checks_;
    std::string violation = exchange_->invariant_violation();
    if (!violation.empty()) fail(violation);
  }

  [[nodiscard]] std::uint64_t exchange_checks() const {
    return exchange_checks_;
  }

  /// End-of-run conservation: no flow still routed over a down link, and no
  /// stranded session left unresolved. Throws eona::Error on violation.
  void finalize() const {
    const net::Topology& topo = network_.topology();
    for (const net::Link& link : topo.links()) {
      if (network_.link_up(link.id)) continue;
      int flows = network_.link_flow_count(link.id);
      if (flows > 0)
        fail("finalize: " + std::to_string(flows) +
             " flow(s) still routed over down link " + link_name(link.id));
    }
    if (!stranded_.empty())
      fail("finalize: " + std::to_string(stranded_.size()) +
           " stranded session(s) never resumed nor finished (first: session " +
           std::to_string(stranded_.begin()->value()) + ")");
    check_exchange();
  }

  /// Recompute-time checks performed so far.
  [[nodiscard]] std::uint64_t check_count() const { return check_count_; }
  [[nodiscard]] std::uint64_t stranded_events() const {
    return stranded_events_;
  }
  [[nodiscard]] std::uint64_t resumed_events() const {
    return resumed_events_;
  }
  /// Sessions currently stranded (awaiting resume/finish).
  [[nodiscard]] std::size_t open_stranded() const { return stranded_.size(); }

 private:
  void on_recompute(const RateRecomputeEvent& e) {
    ++check_count_;
    const net::Topology& topo = network_.topology();
    for (const net::Link& link : topo.links()) {
      BitsPerSecond allocated = network_.link_allocated(link.id);
      BitsPerSecond cap = network_.link_capacity(link.id);  // effective
      if (allocated > cap + summation_slack(cap, link.id))
        fail("recompute " + std::to_string(e.recompute) + ": link " +
             link_name(link.id) + " allocated " + std::to_string(allocated) +
             " > effective capacity " + std::to_string(cap));
      if (!network_.link_up(link.id)) {
        for (FlowId fid : network_.flows_on(link.id)) {
          if (network_.rate(fid) > kEps)
            fail("recompute " + std::to_string(e.recompute) + ": flow " +
                 std::to_string(fid.value()) + " carries rate " +
                 std::to_string(network_.rate(fid)) + " over down link " +
                 link_name(link.id));
        }
      }
    }
  }

  [[nodiscard]] std::string link_name(LinkId id) const {
    const net::Link& link = network_.topology().link(id);
    return link.name.empty() ? std::to_string(id.value()) : link.name;
  }

  /// Rounding room for a link's allocated sum. The solver hands each of
  /// the link's n flows a share of at most `cap`, each rounded once per
  /// solver step (a subtraction and a division, <= u = 2^-53 relative
  /// each), and the network sums the n rates left to right (recursive
  /// summation: <= (n-1)*u*sum). Together that is at most about 2*n*u*cap
  /// = n * DBL_EPSILON * cap, so a sum within it is exact max-min shares
  /// seen through double rounding; anything larger is a real
  /// over-allocation.
  [[nodiscard]] double summation_slack(BitsPerSecond cap, LinkId id) const {
    return cap * network_.link_flow_count(id) *
           std::numeric_limits<double>::epsilon();
  }

  [[noreturn]] static void fail(const std::string& what) {
    throw Error("invariant violation: " + what);
  }

  static constexpr double kEps = 1e-6;  ///< bps a flow on a down link may show

  EventBus& bus_;
  const net::Network& network_;
  const core::Exchange* exchange_ = nullptr;
  std::set<SessionId> stranded_;  // ordered: deterministic first-violation id
  std::uint64_t check_count_ = 0;
  mutable std::uint64_t exchange_checks_ = 0;
  std::uint64_t stranded_events_ = 0;
  std::uint64_t resumed_events_ = 0;
};

}  // namespace eona::sim
