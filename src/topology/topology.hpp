// AS-level multigraph with business relationships.
//
// The unit of link-disjointness throughout the evaluation is the *inter-AS
// link between two interfaces of neighboring ASes* (footnote 1 of the
// paper), so parallel links between an AS pair are first-class: each one has
// its own LinkIndex and its own interface id on both ends.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "topology/ids.hpp"

namespace scion::topo {

/// Business relationship carried by a link.
enum class LinkType : std::uint8_t {
  kCore,              // between core ASes (unordered)
  kProviderCustomer,  // a = provider, b = customer (ordered)
  kPeer,              // settlement-free peering (unordered)
};

const char* to_string(LinkType t);

/// One physical inter-AS link. For kProviderCustomer links, side `a` is the
/// provider and side `b` the customer; for the other types the order is
/// arbitrary but stable.
struct Link {
  AsIndex a{kInvalidAsIndex};
  AsIndex b{kInvalidAsIndex};
  IfId if_a{kNoInterface};
  IfId if_b{kNoInterface};
  LinkType type{LinkType::kCore};
};

/// Mutable AS-level topology.
class Topology {
 public:
  /// Adds an AS; ids must be unique. Returns its dense index.
  AsIndex add_as(IsdAsId id, bool is_core);

  /// Connects two existing, distinct ASes. Interface ids are assigned
  /// sequentially per AS (1-based). Returns the link's index.
  LinkIndex add_link(AsIndex a, AsIndex b, LinkType type);

  std::size_t as_count() const { return ases_.size(); }
  std::size_t link_count() const { return links_.size(); }

  IsdAsId as_id(AsIndex idx) const { return ases_[idx].id; }
  bool is_core(AsIndex idx) const { return ases_[idx].is_core; }

  /// Dense index for an IsdAsId, if present.
  std::optional<AsIndex> find(IsdAsId id) const;

  const Link& link(LinkIndex l) const { return links_[l]; }

  /// All link indices incident to an AS.
  std::span<const LinkIndex> links_of(AsIndex idx) const;

  /// The neighbor of `self` across link `l`.
  AsIndex neighbor(LinkIndex l, AsIndex self) const;

  /// The interface id `self` uses on link `l`.
  IfId interface_of(LinkIndex l, AsIndex self) const;

  /// All core AS indices.
  std::vector<AsIndex> core_ases() const;

  /// Links of a given type incident to `idx` where `idx` is on the provider
  /// side (for kProviderCustomer) or either side (other types).
  std::vector<LinkIndex> links_of_type(AsIndex idx, LinkType type) const;

  /// Customer links of `idx` (provider-customer links where idx is provider).
  std::vector<LinkIndex> customer_links(AsIndex idx) const;

  /// Provider links of `idx` (provider-customer links where idx is customer).
  std::vector<LinkIndex> provider_links(AsIndex idx) const;

  /// Number of distinct neighbors (any type).
  std::size_t degree(AsIndex idx) const;

  /// Number of incident links (counting multiplicity).
  std::size_t link_degree(AsIndex idx) const { return ases_[idx].links.size(); }

  /// All links between the pair (either orientation).
  std::vector<LinkIndex> links_between(AsIndex x, AsIndex y) const;

  /// The link on which `self` owns interface `ifid`, if any. Interface ids
  /// are unique per AS, so at most one link matches.
  std::optional<LinkIndex> link_by_interface(AsIndex self, IfId ifid) const;

  /// True if every AS can reach every other AS ignoring link direction.
  bool connected() const;

  /// The `n` ASes with the highest link_degree, in decreasing order. This is
  /// the paper's pruning rule for building the 2000-AS core network.
  std::vector<AsIndex> highest_degree(std::size_t n) const;

 private:
  struct AsState {
    IsdAsId id;
    bool is_core{false};
    IfId next_if{1};
    std::vector<LinkIndex> links;
  };

  std::vector<AsState> ases_;
  std::vector<Link> links_;
  std::unordered_map<IsdAsId, AsIndex> index_;
};

}  // namespace scion::topo
