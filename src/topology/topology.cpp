#include "topology/topology.hpp"

#include "util/check.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <unordered_set>

namespace scion::topo {

std::string IsdAsId::to_string() const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%u-%llu", static_cast<unsigned>(isd().value()),
                static_cast<unsigned long long>(as_number()));
  return buf;
}

IsdAsId IsdAsId::parse(const std::string& s) {
  const auto dash = s.find('-');
  if (dash == std::string::npos) return IsdAsId{};
  unsigned isd = 0;
  unsigned long long as = 0;
  auto r1 = std::from_chars(s.data(), s.data() + dash, isd);
  auto r2 = std::from_chars(s.data() + dash + 1, s.data() + s.size(), as);
  if (r1.ec != std::errc{} || r2.ec != std::errc{}) return IsdAsId{};
  if (isd > 0xFFFF) return IsdAsId{};
  return IsdAsId::make(static_cast<std::uint16_t>(isd), as);
}

const char* to_string(LinkType t) {
  switch (t) {
    case LinkType::kCore:
      return "core";
    case LinkType::kProviderCustomer:
      return "pc";
    case LinkType::kPeer:
      return "peer";
  }
  return "?";
}

AsIndex Topology::add_as(IsdAsId id, bool is_core) {
  SCION_CHECK(id.valid(), "AS id must be valid");
  SCION_CHECK(!index_.contains(id), "duplicate AS id");
  const auto idx = static_cast<AsIndex>(ases_.size());
  ases_.push_back(AsState{id, is_core, IfId{1}, {}});
  index_.emplace(id, idx);
  return idx;
}

LinkIndex Topology::add_link(AsIndex a, AsIndex b, LinkType type) {
  SCION_CHECK(a < ases_.size() && b < ases_.size() && a != b,
              "link endpoints must be distinct existing ASes");
  const auto l = static_cast<LinkIndex>(links_.size());
  // Interface ids are allocated sequentially per AS; allocation is the one
  // place arithmetic on an IfId is meaningful, so it is spelled out.
  const IfId if_a = ases_[a].next_if;
  ases_[a].next_if = IfId{static_cast<std::uint16_t>(if_a.value() + 1)};
  const IfId if_b = ases_[b].next_if;
  ases_[b].next_if = IfId{static_cast<std::uint16_t>(if_b.value() + 1)};
  links_.push_back(Link{a, b, if_a, if_b, type});
  ases_[a].links.push_back(l);
  ases_[b].links.push_back(l);
  return l;
}

std::optional<AsIndex> Topology::find(IsdAsId id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::span<const LinkIndex> Topology::links_of(AsIndex idx) const {
  SCION_CHECK(idx < ases_.size(), "AS index out of range");
  return ases_[idx].links;
}

AsIndex Topology::neighbor(LinkIndex l, AsIndex self) const {
  const Link& link = links_[l];
  SCION_CHECK(self == link.a || self == link.b, "AS is not a link endpoint");
  return self == link.a ? link.b : link.a;
}

IfId Topology::interface_of(LinkIndex l, AsIndex self) const {
  const Link& link = links_[l];
  SCION_CHECK(self == link.a || self == link.b, "AS is not a link endpoint");
  return self == link.a ? link.if_a : link.if_b;
}

std::vector<AsIndex> Topology::core_ases() const {
  std::vector<AsIndex> out;
  for (AsIndex i = 0; i < ases_.size(); ++i) {
    if (ases_[i].is_core) out.push_back(i);
  }
  return out;
}

std::vector<LinkIndex> Topology::links_of_type(AsIndex idx, LinkType type) const {
  std::vector<LinkIndex> out;
  for (LinkIndex l : ases_[idx].links) {
    const Link& link = links_[l];
    if (link.type != type) continue;
    if (type == LinkType::kProviderCustomer && link.a != idx) continue;
    out.push_back(l);
  }
  return out;
}

std::vector<LinkIndex> Topology::customer_links(AsIndex idx) const {
  return links_of_type(idx, LinkType::kProviderCustomer);
}

std::vector<LinkIndex> Topology::provider_links(AsIndex idx) const {
  std::vector<LinkIndex> out;
  for (LinkIndex l : ases_[idx].links) {
    const Link& link = links_[l];
    if (link.type == LinkType::kProviderCustomer && link.b == idx) out.push_back(l);
  }
  return out;
}

std::size_t Topology::degree(AsIndex idx) const {
  std::unordered_set<AsIndex> seen;
  for (LinkIndex l : ases_[idx].links) seen.insert(neighbor(l, idx));
  return seen.size();
}

std::vector<LinkIndex> Topology::links_between(AsIndex x, AsIndex y) const {
  std::vector<LinkIndex> out;
  for (LinkIndex l : ases_[x].links) {
    if (neighbor(l, x) == y) out.push_back(l);
  }
  return out;
}

std::optional<LinkIndex> Topology::link_by_interface(AsIndex self,
                                                     IfId ifid) const {
  SCION_CHECK(self < ases_.size(), "AS index out of range");
  for (LinkIndex l : ases_[self].links) {
    if (interface_of(l, self) == ifid) return l;
  }
  return std::nullopt;
}

bool Topology::connected() const {
  if (ases_.empty()) return true;
  std::vector<bool> visited(ases_.size(), false);
  std::vector<AsIndex> stack{0};
  visited[0] = true;
  std::size_t count = 1;
  while (!stack.empty()) {
    const AsIndex cur = stack.back();
    stack.pop_back();
    for (LinkIndex l : ases_[cur].links) {
      const AsIndex n = neighbor(l, cur);
      if (!visited[n]) {
        visited[n] = true;
        ++count;
        stack.push_back(n);
      }
    }
  }
  return count == ases_.size();
}

std::vector<AsIndex> Topology::highest_degree(std::size_t n) const {
  std::vector<AsIndex> order(ases_.size());
  for (AsIndex i = 0; i < ases_.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](AsIndex x, AsIndex y) {
    return ases_[x].links.size() > ases_[y].links.size();
  });
  order.resize(std::min(n, order.size()));
  return order;
}

}  // namespace scion::topo
