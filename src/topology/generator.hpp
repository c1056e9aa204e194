// Synthetic topology generation (the CAIDA AS-rel-geo substitute).
//
// The paper's evaluation needs three topology families:
//   1. A full Internet-like AS graph with business relationships and
//      parallel inter-AS links (CAIDA AS-rel-geo, 12000 ASes) — used for
//      BGP/BGPsec simulation and as the source for pruning.
//   2. A core network: the n highest-degree ASes of (1), incrementally
//      pruned, all links treated as core links, grouped into ISDs
//      (paper: 2000 cores, 200 ISDs).
//   3. An intra-ISD hierarchy: a few core ASes plus their customer cone
//      (paper: 11 cores + 7017 customers), and a small SCIONLab-like core
//      topology (21 cores, average degree 2).
//
// The generator reproduces the structural properties those experiments
// depend on: a densely meshed top tier, preferential-attachment (power-law)
// provider degrees, valley-free hierarchy by construction (providers always
// joined earlier), peering among similar tiers, and degree-correlated link
// multiplicity (large neighbors interconnect at several PoPs).
#pragma once

#include <cstdint>

#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace scion::topo {

/// Parameters for the hierarchy generator (families 1 and 3 above).
struct HierarchyConfig {
  /// Total number of ASes, including roots.
  std::size_t n_ases{3000};
  /// Number of top-tier ("root") ASes, fully meshed with core links and
  /// marked as core ASes.
  std::size_t n_roots{12};
  /// Mean number of providers per arriving AS beyond the first
  /// (multi-homing); the count is 1 + a geometric-ish sample.
  double mean_extra_providers{0.8};
  /// Probability an arriving AS also creates one peering link to an AS of
  /// similar age.
  double peer_probability{0.3};
  /// ISD number used for every AS (re-assigned later for core networks).
  IsdId isd{1};
  std::uint64_t seed{1};
};

/// Generates a connected Internet-like hierarchy. Roots are core ASes
/// interconnected with core links; every other AS attaches to
/// preferentially-chosen earlier ASes with provider-customer links, plus
/// optional peering.
Topology generate_hierarchy(const HierarchyConfig& config);

/// Derives the core network for core-beaconing experiments: keeps the
/// `n_core` highest-degree ASes by incremental pruning (recomputing degrees
/// after each removal, as in Section 5.1), restricts to the largest
/// connected component, marks every AS core, and assigns ISD numbers in
/// `n_isds` round-robin groups. Link *types* (business relationships) are
/// preserved so the same subgraph can drive the BGP comparison; SCION runs
/// use with_all_core_links() on the result. Link indices are identical
/// between the two views, which the Fig. 6 analysis relies on.
Topology make_core_network(const Topology& internet, std::size_t n_core,
                           std::size_t n_isds);

/// Same ASes and links (same indices), every link relabelled as a core
/// link — the SCION view of a core network.
Topology with_all_core_links(const Topology& topo);

/// Parameters for the SCIONLab-like testbed topology (Appendix B):
/// `n_cores` core ASes with average neighbor degree ~2 (a tree plus a few
/// chords), single links.
struct ScionLabConfig {
  std::size_t n_cores{21};
  /// Extra chord edges as a fraction of n_cores (drives avg degree to ~2).
  double extra_edge_fraction{0.1};
  std::uint64_t seed{7};
};

Topology generate_scionlab(const ScionLabConfig& config);

/// A multi-ISD SCION world: per ISD a hierarchy (roots = the ISD core),
/// cores of different ISDs interconnected with core links (ring over ISDs
/// plus random chords). Used by the Table 1 control-plane workload, the
/// examples, and the data-plane tests.
struct MultiIsdConfig {
  std::size_t n_isds{3};
  std::size_t cores_per_isd{2};
  /// ASes per ISD, including its cores.
  std::size_t ases_per_isd{12};
  double mean_extra_providers{0.8};
  double peer_probability{0.3};
  std::uint64_t seed{11};
};

Topology generate_multi_isd(const MultiIsdConfig& config);

/// Convenience: an intra-ISD topology = hierarchy whose roots are the ISD
/// core. Paper scale: 11 cores, 7017 non-core ASes.
struct IsdConfig {
  std::size_t n_cores{11};
  std::size_t n_ases{1000};  // total, including cores
  IsdId isd{1};
  std::uint64_t seed{3};
};

Topology generate_isd(const IsdConfig& config);

}  // namespace scion::topo
