// ISP and IXP deployment models (Sections 3.2-3.5, Figures 2 and 4).
//
// The ISP side quantifies the trade-offs of the three inter-ISP connection
// models: native cross-connect (Fig. 2a), Router-on-a-stick over an
// existing IP cross-connection (Fig. 2b, with a queuing discipline that
// guarantees SCION a minimum bandwidth share against hostile IP load), and
// the redundant combination (Fig. 2c).
//
// The IXP side builds the two interconnection fabrics of Section 3.5 — the
// "big switch" (one shared L2 fabric, transparent to SCION) and the
// enhanced model exposing the IXP's per-site internal topology as SCION
// ASes — so their member-to-member resilience and capacity can be compared
// with the same max-flow analysis the paper uses for Fig. 6.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/topology.hpp"

namespace scion::svc {

// ---------------------------------------------------------------------------
// ISP deployment models (Fig. 2)
// ---------------------------------------------------------------------------

enum class InterIspModel : std::uint8_t {
  kNativeCrossConnect,  // Fig. 2a: dedicated layer-2 cross-connection
  kRouterOnAStick,      // Fig. 2b: IP encapsulation over a shared link
  kRedundant,           // Fig. 2c: both, combined into one logical link
};

const char* to_string(InterIspModel m);

/// IP/GRE encapsulation a Router-on-a-stick hop adds around each SCION
/// packet (outer IPv4 header + GRE).
inline constexpr util::Bytes kIpEncapOverheadBytes{20 + 8};

struct DeployedLinkConfig {
  InterIspModel model{InterIspModel::kNativeCrossConnect};
  double capacity_mbps{10'000.0};
  /// Fraction of the shared link's bandwidth the queuing discipline
  /// guarantees to SCION traffic (Router-on-a-stick / redundant models).
  double scion_min_share{0.5};
  /// Whether a queuing discipline is configured at all; without one,
  /// hostile IP traffic can crowd SCION out entirely (the availability
  /// risk Section 3.3 warns about).
  bool queuing_discipline{true};
};

/// Static properties and simple quantitative models of one inter-ISP link
/// under a deployment model.
class DeployedLink {
 public:
  explicit DeployedLink(DeployedLinkConfig config) : config_{config} {}

  const DeployedLinkConfig& config() const { return config_; }

  /// Bytes on the wire for a SCION packet of `scion_packet_bytes`.
  util::Bytes wire_bytes(util::Bytes scion_packet_bytes) const;

  /// SCION goodput when `offered_scion_mbps` of SCION traffic competes
  /// with `hostile_ip_load` (fraction of capacity) of IP traffic on a
  /// shared link. Native links never share; with a queuing discipline
  /// SCION keeps at least `scion_min_share`; without one, IP load eats
  /// into SCION's share directly.
  double scion_goodput_mbps(double offered_scion_mbps,
                            double hostile_ip_load) const;

  /// Probability the logical link is usable given independent failure
  /// probabilities of the physical fiber and of the IP underlay device
  /// chain (the redundant model survives either single failure).
  double availability(double fiber_failure_prob,
                      double ip_underlay_failure_prob) const;

 private:
  DeployedLinkConfig config_;
};

// ---------------------------------------------------------------------------
// IXP fabrics (Fig. 4)
// ---------------------------------------------------------------------------

enum class IxpModel : std::uint8_t {
  kBigSwitch,        // one shared L2 fabric; bilateral peering over it
  kExposedTopology,  // per-site SCION ASes with redundant inter-site links
};

const char* to_string(IxpModel m);

struct IxpConfig {
  /// Member ASes connecting to the IXP.
  std::size_t members{6};
  /// IXP sites (enhanced model only); each becomes a SCION AS.
  std::size_t sites{4};
  /// Redundant links between adjacent sites (enhanced model).
  std::size_t links_per_site_pair{2};
  /// In the enhanced model, each member homes onto this many sites.
  std::size_t member_homing{2};
  std::uint64_t seed{13};
};

/// Builds the member+fabric topology for an IXP model. Members are ASes
/// 0..members-1; in the enhanced model sites follow as further ASes. Big
/// switch: every member pair is connected by one peering link (the shared
/// fabric is a single failure domain — links_between() of any pair is 1).
/// Enhanced: members attach to `member_homing` sites and sites form a ring
/// with `links_per_site_pair` parallel links, so member pairs gain
/// multi-path and failover through the fabric.
topo::Topology build_ixp_fabric(IxpModel model, const IxpConfig& config);

/// Min-cut between two members of the fabric (unit link capacities) — the
/// resilience/capacity measure used to compare the two models.
int ixp_member_min_cut(const topo::Topology& fabric, topo::AsIndex a,
                       topo::AsIndex b);

}  // namespace scion::svc
