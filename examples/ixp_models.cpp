// IXP deployment models (Section 3.5, Figure 4): the traditional "big
// switch" versus exposing the IXP's internal multi-site topology as SCION
// ASes, plus the ISP connection models of Figure 2.
//
//   ./examples/ixp_models
//
// Prints (1) per-member-pair resilience for the two IXP fabrics and (2)
// availability / goodput / framing numbers for the three inter-ISP link
// deployment models.
#include <cstdio>

#include "scion/deployment.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"

using namespace scion;

int main(int argc, char** argv) {
  // The example takes no flags: any argument is a mistake (exit 2).
  const int usage =
      util::reject_unused(util::Flags{argc, argv}, "ixp_models");
  if (usage != 0) return usage;

  // --- IXP fabrics ----------------------------------------------------------
  svc::IxpConfig config;
  config.members = 6;
  config.sites = 4;
  config.links_per_site_pair = 2;
  config.member_homing = 2;

  const topo::Topology big =
      svc::build_ixp_fabric(svc::IxpModel::kBigSwitch, config);
  const topo::Topology exposed =
      svc::build_ixp_fabric(svc::IxpModel::kExposedTopology, config);

  std::printf("IXP with %zu members; enhanced model: %zu sites, %zu links "
              "per site pair, members homed onto %zu sites\n\n",
              config.members, config.sites, config.links_per_site_pair,
              config.member_homing);
  std::printf("min #failures disconnecting a member pair:\n");
  std::printf("  %-14s %-12s %-18s\n", "pair", "big switch", "exposed topology");
  util::OnlineStats big_stats, exposed_stats;
  for (topo::AsIndex a = 0; a < config.members; ++a) {
    for (topo::AsIndex b = a + 1; b < config.members; ++b) {
      const int cut_big = svc::ixp_member_min_cut(big, a, b);
      const int cut_exposed = svc::ixp_member_min_cut(exposed, a, b);
      big_stats.add(cut_big);
      exposed_stats.add(cut_exposed);
      if (a == 0) {
        std::printf("  %s-%-10s %-12d %-18d\n",
                    big.as_id(a).to_string().c_str(),
                    big.as_id(b).to_string().c_str(), cut_big, cut_exposed);
      }
    }
  }
  std::printf("  %-14s %-12.2f %-18.2f\n", "average", big_stats.mean(),
              exposed_stats.mean());
  std::printf("exposing the fabric multiplies member-pair resilience by "
              "%.1fx and lets endpoints pick per-application paths through "
              "the IXP\n\n",
              exposed_stats.mean() / big_stats.mean());

  // --- ISP connection models (Fig. 2) ----------------------------------------
  std::printf("inter-ISP connection models (10 Gbps port, 1%% fiber / 2%% IP "
              "underlay failure, 1500 B packets, hostile IP load 90%%):\n");
  std::printf("  %-22s %-14s %-14s %-16s\n", "model", "availability",
              "goodput Mbps", "bytes per pkt");
  for (const auto model : {svc::InterIspModel::kNativeCrossConnect,
                           svc::InterIspModel::kRouterOnAStick,
                           svc::InterIspModel::kRedundant}) {
    svc::DeployedLinkConfig link_config;
    link_config.model = model;
    link_config.capacity_mbps = 10'000;
    link_config.scion_min_share = 0.5;
    const svc::DeployedLink link{link_config};
    std::printf("  %-22s %-14.4f %-14.0f %-16zu\n", to_string(model),
                link.availability(0.01, 0.02),
                link.scion_goodput_mbps(8'000, 0.9),
                link.wire_bytes(util::Bytes{1500}).value());
  }
  std::printf("\nwithout a queuing discipline, hostile IP traffic crowds "
              "SCION out of a shared link entirely:\n");
  svc::DeployedLinkConfig unprotected;
  unprotected.model = svc::InterIspModel::kRouterOnAStick;
  unprotected.capacity_mbps = 10'000;
  unprotected.queuing_discipline = false;
  std::printf("  router-on-a-stick, no QD, IP load 100%%: goodput %.0f Mbps\n",
              svc::DeployedLink{unprotected}.scion_goodput_mbps(8'000, 1.0));
  return 0;
}
