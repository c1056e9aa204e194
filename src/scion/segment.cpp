#include "scion/segment.hpp"

#include "util/check.hpp"


namespace scion::svc {

SegmentRef make_segment(const topo::Topology& topology,
                        const ctrl::StoredPcb& stored, topo::AsIndex owner,
                        const crypto::SigningKey& sign_key,
                        const crypto::ForwardingKey& fwd_key,
                        bool include_peers) {
  SCION_CHECK(stored.pcb && !stored.links.empty(),
              "segment conversion needs a resolved stored PCB");

  std::vector<ctrl::PeerEntry> peers;
  if (include_peers) {
    for (topo::LinkIndex l :
         topology.links_of_type(owner, topo::LinkType::kPeer)) {
      ctrl::PeerEntry p;
      p.peer_as = topology.as_id(topology.neighbor(l, owner));
      p.peer_if = topology.interface_of(l, owner);
      peers.push_back(p);
    }
  }

  const topo::IfId in_if = topology.interface_of(stored.links.back(), owner);
  auto seg = std::make_shared<PathSegment>();
  seg->pcb = std::make_shared<const ctrl::Pcb>(stored.pcb->extend_signed(
      topology.as_id(owner), in_if, topo::kNoInterface, std::move(peers),
      sign_key, fwd_key));
  seg->links = stored.links;
  seg->ases.reserve(seg->pcb->entries().size());
  for (const ctrl::AsEntry& e : seg->pcb->entries()) {
    const auto idx = topology.find(e.isd_as);
    SCION_CHECK(idx.has_value(), "segment AS missing from topology");
    seg->ases.push_back(*idx);
  }
  SCION_DCHECK(seg->ases.size() == seg->links.size() + 1,
               "segment must alternate AS, link, AS");
  SCION_DCHECK(seg->ases.back() == owner, "segment must end at its owner");
  return seg;
}

}  // namespace scion::svc
