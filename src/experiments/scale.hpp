// Experiment scaling knobs.
//
// The paper's simulations run at Internet scale (12000-AS topology, 2000
// core ASes in 200 ISDs, a 7028-AS ISD). The default scale here is chosen
// so that the full bench suite completes on a laptop while preserving every
// qualitative result; `--paper` (or individual flags) raises the sizes
// towards the paper's.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "topology/generator.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace scion::exp {

struct Scale {
  // Full Internet-like topology (paper: 12000).
  std::size_t internet_ases{800};
  std::size_t n_tier1{8};
  // Core network derived by pruning (paper: 2000 cores, 200 ISDs). The
  // pruned core is dense (the top of the hierarchy), so baseline flooding
  // cost grows ~ cores x core-links; the default keeps the whole bench
  // suite laptop-sized.
  std::size_t core_ases{64};
  std::size_t core_isds{8};
  // Intra-ISD topology (paper: 11 cores + 7017 customers).
  std::size_t isd_ases{300};
  std::size_t isd_cores{11};
  // SCIONLab-like testbed (paper: 21 cores).
  std::size_t scionlab_cores{21};
  // RouteViews-style monitors (paper: 26).
  std::size_t monitors{10};
  // AS pairs sampled for the path-quality figures.
  std::size_t sampled_pairs{120};
  // Prefix-origin sample for the BGP simulation (memory bound).
  std::size_t bgp_sampled_origins{150};
  // Overhead measurement window (paper: 6 h), preceded by one PCB lifetime
  // of warm-up so both algorithms are measured in their periodic regime.
  util::Duration beaconing_duration{util::Duration::hours(6)};
  // Shorter horizon for the path-quality figures: the disseminated path
  // sets saturate once initial exploration completes.
  util::Duration quality_duration{util::Duration::hours(2)};
  // BGP churn measurement window.
  util::Duration bgp_churn_window{util::Duration::hours(1)};
  std::uint64_t seed{1};

  /// Resolves from --key=value flags. `--paper` selects the paper-scale
  /// preset before individual overrides apply.
  static Scale from_flags(const util::Flags& flags);

  /// The paper-scale preset (hours of runtime, tens of GB of memory).
  static Scale paper();
};

/// The full Internet-like topology for this scale.
topo::Topology build_internet(const Scale& scale);

/// The two views of the core network (same AS/link indices): `bgp_view`
/// keeps business relationships, `scion_view` has every link as a core link.
struct CoreNetworks {
  topo::Topology bgp_view;
  topo::Topology scion_view;
};
CoreNetworks build_core_networks(const Scale& scale,
                                 const topo::Topology& internet);

/// Heavy-tailed per-AS prefix counts (RouteViews substitute): large transit
/// ASes originate orders of magnitude more prefixes than stubs.
std::vector<std::uint32_t> prefix_counts(const topo::Topology& internet,
                                         std::uint64_t seed);

/// Monitor ASes: the `n` highest link-degree ASes (RouteViews peers are
/// large, well-connected networks).
std::vector<topo::AsIndex> pick_monitors(const topo::Topology& topo,
                                         std::size_t n);

/// Finds the AS with the same 48-bit AS number in another topology (ISD
/// renumbering preserves AS numbers), kInvalidAsIndex if pruned away.
topo::AsIndex find_by_as_number(const topo::Topology& topo,
                                std::uint64_t as_number);

using AsPairs = std::vector<std::pair<topo::AsIndex, topo::AsIndex>>;

/// Samples `want` DISTINCT unordered AS pairs (s < t) from `n` ASes.
///
/// Shared by the quality and resilience experiments, whose hand-rolled
/// rejection loops only rejected s == t and happily re-sampled the same
/// pair — at small scales the figures then averaged duplicate pairs with
/// extra weight. Three regimes, all deterministic in `rng`:
///   - want >= n*(n-1)/2: every pair, enumerated in (s, t) index order
///     (no sampling, no rng draws);
///   - dense requests (within ~1/3 of the population): Fisher-Yates
///     shuffle-truncate over the full enumeration, so no rejection loop can
///     stall;
///   - sparse requests: rejection sampling against an ordered set.
/// Returned pairs are in sampling order (callers' figures index by pair).
AsPairs sample_distinct_pairs(util::Rng& rng, std::size_t n, std::size_t want);

/// `draws` draws of an ordered pair (a, b) with replacement, keeping those
/// with a != b in draw order: a pair may come back more than once, and a
/// skipped draw still consumes its two rng values. The with-replacement
/// sampling of the grid search, the two ablations, `scion-mpr quality` and
/// the beaconing_comparison example, kept so their outputs stay as recorded.
AsPairs draw_pairs(util::Rng& rng, std::size_t n, std::size_t draws);

}  // namespace scion::exp
