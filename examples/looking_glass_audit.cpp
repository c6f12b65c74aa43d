// Looking-glass walkthrough: the operational surface of the EONA plane.
//
// Shows what a provider actually serves and what a peer actually sees:
// the report's fields, per-peer policy narrowing, injected staleness, and
// the §5 trust auditor catching an InfP that shades the truth.
//
//   $ ./looking_glass_audit
#include <cstdio>

#include "eona/audit.hpp"
#include "eona/endpoint.hpp"
#include "eona/registry.hpp"

using namespace eona;

int main() {
  core::ProviderRegistry registry;
  ProviderId isp = registry.register_provider(core::ProviderKind::kInfP,
                                              "access-isp");
  ProviderId vod = registry.register_provider(core::ProviderKind::kAppP,
                                              "vod-appp");

  // --- the InfP's current report --------------------------------------------
  core::I2AReport report;
  report.from = isp;
  report.generated_at = 3600.0;
  core::PeeringStatus b;
  b.peering = PeeringId(0);
  b.isp = IspId(0);
  b.cdn = CdnId(0);
  b.capacity = mbps(45);
  b.utilization = 0.97;
  b.congested = true;
  b.selected = true;
  core::PeeringStatus c;
  c.peering = PeeringId(1);
  c.isp = IspId(0);
  c.cdn = CdnId(0);
  c.capacity = mbps(400);
  c.utilization = 0.08;
  report.peerings = {b, c};
  core::CongestionSignal signal;
  signal.isp = IspId(0);
  signal.scope = core::CongestionScope::kPeering;
  signal.peering = PeeringId(0);
  signal.severity = 0.85;
  report.congestion.push_back(signal);

  std::printf("--- the looking glass: I2A report from provider %u at "
              "t=%.0f ---\n",
              report.from.value(), report.generated_at);
  for (const auto& p : report.peerings)
    std::printf("  peering %u (isp=%u cdn=%u): capacity=%.0f Mbps "
                "utilization=%.2f%s%s\n",
                p.peering.value(), p.isp.value(), p.cdn.value(),
                p.capacity / 1e6, p.utilization,
                p.congested ? " congested" : "", p.selected ? " selected" : "");
  for (const auto& c : report.congestion)
    std::printf("  congestion: isp=%u scope=%s peering=%u severity=%.2f\n",
                c.isp.value(),
                c.scope == core::CongestionScope::kPeering ? "peering"
                : c.scope == core::CongestionScope::kAccess ? "access"
                                                            : "backbone",
                c.peering.value(), c.severity);
  std::printf("\n");

  // --- per-peer policy + staleness --------------------------------------------
  core::I2AEndpoint glass(isp);
  core::I2APolicy narrow;
  narrow.share_peering_capacity = false;  // this peer doesn't get capacities
  glass.authorize(vod, registry.mint_token(isp, vod), narrow,
                  /*delay=*/30.0);
  glass.publish(report, 3600.0);

  auto at_publish = glass.query(vod, registry.mint_token(isp, vod), 3605.0);
  std::printf("query 5 s after publish : %s (30 s staleness injected)\n",
              at_publish ? "report" : "nothing visible yet");
  auto later = glass.query(vod, registry.mint_token(isp, vod), 3640.0);
  std::printf("query 40 s after publish: %zu peerings, capacity field = %.0f "
              "(blinded by policy)\n\n",
              later->peerings.size(), later->peerings[0].capacity);

  // --- auditing a peer that shades the truth -----------------------------------
  std::printf("--- trust auditor: honest vs lying congestion claims ---\n");
  for (bool lying : {false, true}) {
    core::InterfaceAuditor auditor;
    for (int epoch = 0; epoch < 30; ++epoch) {
      bool truly_congested = epoch % 2 == 0;
      core::I2AReport claim;
      claim.from = isp;
      core::PeeringStatus p = b;
      p.congested = lying ? false : truly_congested;  // liar always denies
      claim.peerings = {p};

      core::CdnEvidence evidence;
      evidence.cdn = CdnId(0);
      evidence.intended_bitrate = mbps(3);
      evidence.sessions = 40;
      evidence.mean_bitrate = truly_congested ? mbps(0.8) : mbps(2.95);
      evidence.mean_buffering = truly_congested ? 0.12 : 0.001;
      auditor.audit(claim, {evidence});
    }
    std::printf("  %-7s peer: %llu/%llu claims contradicted, trust=%.3f%s\n",
                lying ? "lying" : "honest",
                static_cast<unsigned long long>(auditor.contradictions()),
                static_cast<unsigned long long>(auditor.claims_checked()),
                auditor.trust(), auditor.trusted() ? "" : "  << distrusted");
  }
  return 0;
}
