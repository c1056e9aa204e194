// End-to-end path construction from path segments (Section 2.3).
//
// Hosts combine an up-path segment (traversed leaf-to-core), optionally a
// core-path segment, and a down-path segment (core-to-leaf). Shortcut paths
// avoid the core when the up- and down-segments share a non-core AS, and
// peering shortcuts cross a peering link advertised in both segments.
// Cryptographic protections (hop-field MAC chains, dataplane.hpp) ensure
// only these authorized combinations are forwardable.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "scion/segment.hpp"

namespace scion::svc {

struct EndToEndPath {
  enum class Kind : std::uint8_t {
    kUpCoreDown,  // three segments via the core
    kUpDown,      // up and down meet at the same core AS
    kShortcut,    // crossover at a shared non-core AS
    kPeering,     // crossover over a peering link
  };

  Kind kind{Kind::kUpCoreDown};
  /// Full AS sequence, src first.
  std::vector<topo::AsIndex> ases;
  /// links[i] connects ases[i] and ases[i+1].
  std::vector<topo::LinkIndex> links;

  /// The segments this path was combined from (up/core/down may be null
  /// depending on kind), shared with the path servers that returned them:
  /// a path stays usable after they drop the segments.
  SegmentRef up;
  SegmentRef core;
  SegmentRef down;
  /// For kShortcut/kPeering: index into up->ases / down->ases of the
  /// crossover ASes.
  std::size_t up_cut{0};
  std::size_t down_cut{0};
  /// For kPeering: the peering link crossed.
  std::optional<topo::LinkIndex> peer_link;

  std::size_t length() const { return links.size(); }
};

const char* to_string(EndToEndPath::Kind k);

struct CombineOptions {
  std::size_t max_paths{32};
};

/// Enumerates loop-free end-to-end paths from `src` to `dst`, shortest
/// first (ties in enumeration order), de-duplicated by link sequence, at
/// most `options.max_paths` of them. `up` segments must terminate at `src`,
/// `down` segments at `dst`; core segments are matched by their
/// terminal/origin core ASes. Candidates are ranked by their length before
/// any is built, so only the returned paths (and the looping or duplicate
/// candidates ranked before the last of them) are assembled.
std::vector<EndToEndPath> combine_segments(
    const topo::Topology& topology, topo::AsIndex src, topo::AsIndex dst,
    std::span<const SegmentRef> up, std::span<const SegmentRef> core,
    std::span<const SegmentRef> down, const CombineOptions& options = {});

}  // namespace scion::svc
