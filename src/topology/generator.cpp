#include "topology/generator.hpp"

#include "util/check.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace scion::topo {

namespace {

using util::Rng;

/// Probability that a provider-customer adjacency gets an additional
/// parallel link, applied repeatedly (geometric); core adjacencies use 1.5x,
/// peering ones 0.5x, and high-degree pairs are boosted further.
constexpr double kParallelLinkProbability = 0.25;
/// Hard cap on parallel links per adjacency.
constexpr int kMaxParallelLinks = 4;
/// Extra inter-ISD core links beyond the ring, per ISD (multi-ISD worlds).
constexpr double kExtraCoreLinksPerIsd = 1.0;

/// Number of parallel links for a new adjacency: geometric in
/// `base_probability`, boosted by the (log of the) smaller endpoint degree —
/// big networks interconnect at several PoPs.
int sample_multiplicity(Rng& rng, double base_probability,
                        std::size_t min_endpoint_degree) {
  const double boost =
      1.0 + 0.25 * std::log2(1.0 + static_cast<double>(min_endpoint_degree));
  const double p = std::min(0.9, base_probability * boost);
  int m = 1;
  while (m < kMaxParallelLinks && rng.bernoulli(p)) ++m;
  return m;
}

void add_parallel_links(Topology& topo, Rng& rng, AsIndex a, AsIndex b,
                        LinkType type, double base_probability) {
  const std::size_t min_deg = std::min(topo.link_degree(a), topo.link_degree(b));
  const int m = sample_multiplicity(rng, base_probability, min_deg);
  for (int i = 0; i < m; ++i) topo.add_link(a, b, type);
}

/// Preferential-attachment choice among ases [0, limit): probability
/// proportional to link_degree + 1.
AsIndex preferential_pick(const Topology& topo, Rng& rng, AsIndex limit) {
  std::uint64_t total = 0;
  for (AsIndex i = 0; i < limit; ++i) total += topo.link_degree(i) + 1;
  std::uint64_t target = static_cast<std::uint64_t>(
      rng.uniform() * static_cast<double>(total));
  for (AsIndex i = 0; i < limit; ++i) {
    const std::uint64_t w = topo.link_degree(i) + 1;
    if (target < w) return i;
    target -= w;
  }
  return limit - 1;
}

}  // namespace

Topology generate_hierarchy(const HierarchyConfig& config) {
  SCION_CHECK(config.n_roots >= 1, "hierarchy needs at least one root");
  SCION_CHECK(config.n_ases >= config.n_roots, "fewer ASes than roots");
  Rng rng{config.seed};
  Topology topo;

  // Roots: full mesh of core links with multiplicity.
  for (std::size_t i = 0; i < config.n_roots; ++i) {
    topo.add_as(IsdAsId::make(config.isd, i + 1), /*is_core=*/true);
  }
  for (AsIndex i = 0; i < config.n_roots; ++i) {
    for (AsIndex j = i + 1; j < config.n_roots; ++j) {
      add_parallel_links(topo, rng, i, j, LinkType::kCore,
                         kParallelLinkProbability * 1.5);
    }
  }

  // Arrivals: each new AS picks 1 + geometric(mean_extra_providers)
  // distinct providers among earlier ASes, preferentially by degree.
  const double p_more = config.mean_extra_providers /
                        (1.0 + config.mean_extra_providers);
  for (std::size_t n = config.n_roots; n < config.n_ases; ++n) {
    const AsIndex self =
        topo.add_as(IsdAsId::make(config.isd, n + 1), /*is_core=*/false);
    int providers = 1;
    while (rng.bernoulli(p_more) && providers < 8) ++providers;

    std::unordered_set<AsIndex> chosen;
    for (int k = 0; k < providers && chosen.size() < self; ++k) {
      AsIndex provider = preferential_pick(topo, rng, self);
      // A few retries for distinctness; duplicates are simply skipped.
      for (int attempt = 0; attempt < 4 && chosen.contains(provider); ++attempt) {
        provider = preferential_pick(topo, rng, self);
      }
      if (!chosen.insert(provider).second) continue;
      add_parallel_links(topo, rng, provider, self,
                         LinkType::kProviderCustomer, kParallelLinkProbability);
    }

    // Optional peering with an AS of similar age (similar tier).
    if (self > config.n_roots + 4 && rng.bernoulli(config.peer_probability)) {
      const AsIndex lo = static_cast<AsIndex>(
          std::max<std::int64_t>(config.n_roots,
                                 static_cast<std::int64_t>(self) -
                                     static_cast<std::int64_t>(self) / 2));
      const AsIndex peer =
          lo + static_cast<AsIndex>(rng.index(self - lo));
      if (peer != self && topo.links_between(self, peer).empty()) {
        add_parallel_links(topo, rng, self, peer, LinkType::kPeer,
                           kParallelLinkProbability * 0.5);
      }
    }
  }
  return topo;
}

Topology make_core_network(const Topology& internet, std::size_t n_core,
                           std::size_t n_isds) {
  SCION_CHECK(n_isds >= 1, "need at least one ISD");
  const std::size_t total = internet.as_count();
  n_core = std::min(n_core, total);

  // Incremental pruning: repeatedly drop the AS with the smallest remaining
  // link degree until n_core remain. Lazy recomputation via counting links
  // to surviving ASes.
  std::vector<bool> alive(total, true);
  std::vector<std::size_t> deg(total, 0);
  for (AsIndex i = 0; i < total; ++i) deg[i] = internet.link_degree(i);

  std::size_t remaining = total;
  while (remaining > n_core) {
    AsIndex victim = kInvalidAsIndex;
    std::size_t best = ~std::size_t{0};
    for (AsIndex i = 0; i < total; ++i) {
      if (alive[i] && deg[i] < best) {
        best = deg[i];
        victim = i;
      }
    }
    alive[victim] = false;
    --remaining;
    for (LinkIndex l : internet.links_of(victim)) {
      const AsIndex n = internet.neighbor(l, victim);
      if (alive[n] && deg[n] > 0) --deg[n];
    }
  }

  // Largest connected component among survivors.
  std::vector<int> component(total, -1);
  int n_components = 0;
  std::vector<std::size_t> comp_size;
  for (AsIndex start = 0; start < total; ++start) {
    if (!alive[start] || component[start] != -1) continue;
    const int c = n_components++;
    comp_size.push_back(0);
    std::vector<AsIndex> stack{start};
    component[start] = c;
    while (!stack.empty()) {
      const AsIndex cur = stack.back();
      stack.pop_back();
      ++comp_size[static_cast<std::size_t>(c)];
      for (LinkIndex l : internet.links_of(cur)) {
        const AsIndex nb = internet.neighbor(l, cur);
        if (alive[nb] && component[nb] == -1) {
          component[nb] = c;
          stack.push_back(nb);
        }
      }
    }
  }
  int largest = 0;
  for (int c = 1; c < n_components; ++c) {
    if (comp_size[static_cast<std::size_t>(c)] >
        comp_size[static_cast<std::size_t>(largest)]) {
      largest = c;
    }
  }

  std::vector<AsIndex> keep;
  for (AsIndex i = 0; i < total; ++i) {
    if (alive[i] && component[i] == largest) keep.push_back(i);
  }
  // Keep highest-degree first so ISD grouping puts big ASes in distinct
  // ISDs' leading positions.
  std::stable_sort(keep.begin(), keep.end(), [&](AsIndex x, AsIndex y) {
    return internet.link_degree(x) > internet.link_degree(y);
  });

  // Rebuild with core-only semantics and fresh ISD assignment: ASes are
  // dealt round-robin into n_isds groups.
  Topology out;
  std::unordered_map<AsIndex, AsIndex> remap;
  for (std::size_t i = 0; i < keep.size(); ++i) {
    const IsdId isd = static_cast<IsdId>(1 + i % n_isds);
    const IsdAsId id =
        IsdAsId::make(isd, internet.as_id(keep[i]).as_number());
    remap.emplace(keep[i], out.add_as(id, /*is_core=*/true));
  }
  std::unordered_set<AsIndex> kept(keep.begin(), keep.end());
  for (LinkIndex l = 0; l < internet.link_count(); ++l) {
    const Link& link = internet.link(l);
    if (kept.contains(link.a) && kept.contains(link.b)) {
      out.add_link(remap.at(link.a), remap.at(link.b), link.type);
    }
  }
  return out;
}

Topology with_all_core_links(const Topology& topo) {
  Topology out;
  for (AsIndex i = 0; i < topo.as_count(); ++i) {
    out.add_as(topo.as_id(i), /*is_core=*/true);
  }
  for (LinkIndex l = 0; l < topo.link_count(); ++l) {
    const Link& link = topo.link(l);
    out.add_link(link.a, link.b, LinkType::kCore);
  }
  return out;
}

Topology generate_scionlab(const ScionLabConfig& config) {
  SCION_CHECK(config.n_cores >= 2, "SCIONLab topology needs two cores");
  Rng rng{config.seed};
  Topology topo;
  for (std::size_t i = 0; i < config.n_cores; ++i) {
    topo.add_as(IsdAsId::make(static_cast<IsdId>(i + 1), 0xFF00 + i),
                /*is_core=*/true);
  }
  // Random spanning tree: each node attaches to a uniformly chosen earlier
  // node (keeps average degree low, like the real testbed).
  for (AsIndex i = 1; i < config.n_cores; ++i) {
    const AsIndex parent = static_cast<AsIndex>(rng.index(i));
    topo.add_link(parent, i, LinkType::kCore);
  }
  // A few chords.
  const auto extra = static_cast<std::size_t>(
      std::ceil(config.extra_edge_fraction * static_cast<double>(config.n_cores)));
  for (std::size_t e = 0; e < extra; ++e) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const AsIndex a = static_cast<AsIndex>(rng.index(config.n_cores));
      const AsIndex b = static_cast<AsIndex>(rng.index(config.n_cores));
      if (a != b && topo.links_between(a, b).empty()) {
        topo.add_link(a, b, LinkType::kCore);
        break;
      }
    }
  }
  return topo;
}

Topology generate_multi_isd(const MultiIsdConfig& config) {
  SCION_CHECK(config.n_isds >= 1 && config.cores_per_isd >= 1,
              "need at least one ISD with one core");
  SCION_CHECK(config.ases_per_isd >= config.cores_per_isd,
              "fewer ASes per ISD than cores");
  Rng rng{config.seed};
  Topology topo;

  // Per-ISD hierarchies, merged into one topology. AS numbers are made
  // globally readable: ISD i uses numbers i*10000 + k.
  std::vector<std::vector<AsIndex>> cores_of_isd(config.n_isds);
  for (std::size_t isd = 0; isd < config.n_isds; ++isd) {
    HierarchyConfig h;
    h.n_ases = config.ases_per_isd;
    h.n_roots = config.cores_per_isd;
    h.mean_extra_providers = config.mean_extra_providers;
    h.peer_probability = config.peer_probability;
    h.isd = static_cast<IsdId>(isd + 1);
    h.seed = rng();
    const Topology sub = generate_hierarchy(h);

    std::vector<AsIndex> remap(sub.as_count());
    for (AsIndex i = 0; i < sub.as_count(); ++i) {
      const IsdAsId id = IsdAsId::make(
          h.isd, (isd + 1) * 10000 + sub.as_id(i).as_number());
      remap[i] = topo.add_as(id, sub.is_core(i));
      if (sub.is_core(i)) cores_of_isd[isd].push_back(remap[i]);
    }
    for (LinkIndex l = 0; l < sub.link_count(); ++l) {
      const Link& link = sub.link(l);
      topo.add_link(remap[link.a], remap[link.b], link.type);
    }
  }

  // Inter-ISD core connectivity: a ring over ISDs guarantees global
  // reachability; chords add path diversity.
  if (config.n_isds > 1) {
    for (std::size_t isd = 0; isd < config.n_isds; ++isd) {
      const std::size_t next = (isd + 1) % config.n_isds;
      if (config.n_isds == 2 && isd == 1) break;  // avoid a doubled ring link
      const AsIndex a = rng.pick(cores_of_isd[isd]);
      const AsIndex b = rng.pick(cores_of_isd[next]);
      topo.add_link(a, b, LinkType::kCore);
    }
    const auto extra = static_cast<std::size_t>(
        kExtraCoreLinksPerIsd * static_cast<double>(config.n_isds));
    for (std::size_t e = 0; e < extra; ++e) {
      const std::size_t i1 = rng.index(config.n_isds);
      const std::size_t i2 = rng.index(config.n_isds);
      if (i1 == i2) continue;
      topo.add_link(rng.pick(cores_of_isd[i1]), rng.pick(cores_of_isd[i2]),
                    LinkType::kCore);
    }
  }
  return topo;
}

Topology generate_isd(const IsdConfig& config) {
  HierarchyConfig h;
  h.n_ases = config.n_ases;
  h.n_roots = config.n_cores;
  h.isd = config.isd;
  h.seed = config.seed;
  // Within one ISD the hierarchy is shallower and peering is common.
  h.mean_extra_providers = 0.6;
  h.peer_probability = 0.25;
  return generate_hierarchy(h);
}

}  // namespace scion::topo
