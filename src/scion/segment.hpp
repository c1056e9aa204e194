// Path segments (Section 2.2): the registered, terminated form of a PCB.
//
// Before an AS registers a path segment (or an endpoint uses it), the
// receiving AS appends a terminal entry (out_if = 0), so a segment's entry
// list covers every AS on it, origin first. Up- and down-path segments are
// the same object used in opposite directions; core segments connect two
// core ASes.
#pragma once

#include <memory>
#include <vector>

#include "core/beacon_store.hpp"
#include "core/pcb.hpp"
#include "topology/topology.hpp"

namespace scion::svc {

using ctrl::PcbRef;

/// A terminated path segment. `ases[0]` is the origin core AS and
/// `ases.back()` the AS that terminated (registered) it; `links[i]` connects
/// `ases[i]` and `ases[i+1]`.
struct PathSegment {
  PcbRef pcb;  // terminal-extended PCB (entries == ases)
  std::vector<topo::AsIndex> ases;
  std::vector<topo::LinkIndex> links;

  topo::AsIndex origin_as() const { return ases.front(); }
  topo::AsIndex terminal_as() const { return ases.back(); }
  std::size_t length() const { return links.size(); }
  util::Bytes wire_size() const { return pcb->wire_size(); }
  util::TimePoint expiry() const { return pcb->expiry(); }

  /// Stable identity (terminal-extended path key).
  std::uint64_t key() const { return pcb->path_key(); }
};

/// Segments are immutable once terminated, so path servers, lookup caches
/// and combined paths share one object instead of copying it.
using SegmentRef = std::shared_ptr<const PathSegment>;

/// Terminates a stored PCB at `owner`: appends the owner's AS entry (with
/// its peering links if `include_peers`) and resolves the AS sequence.
/// This is what a beacon server does right before registration.
SegmentRef make_segment(const topo::Topology& topology,
                        const ctrl::StoredPcb& stored, topo::AsIndex owner,
                        const crypto::SigningKey& sign_key,
                        const crypto::ForwardingKey& fwd_key,
                        bool include_peers = false);

}  // namespace scion::svc
