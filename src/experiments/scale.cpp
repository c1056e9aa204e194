#include "experiments/scale.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/check.hpp"

namespace scion::exp {

Scale Scale::paper() {
  Scale s;
  s.internet_ases = 12000;
  s.n_tier1 = 20;
  s.core_ases = 2000;
  s.core_isds = 200;
  s.isd_ases = 7028;
  s.isd_cores = 11;
  s.monitors = 26;
  s.sampled_pairs = 1000;
  s.bgp_sampled_origins = 600;
  s.beaconing_duration = util::Duration::hours(6);
  s.bgp_churn_window = util::Duration::hours(2);
  return s;
}

Scale Scale::from_flags(const util::Flags& flags) {
  Scale s = flags.get_bool("paper", false) ? Scale::paper() : Scale{};
  s.internet_ases = static_cast<std::size_t>(
      flags.get_int("internet-ases", static_cast<std::int64_t>(s.internet_ases)));
  s.core_ases = static_cast<std::size_t>(
      flags.get_int("core-ases", static_cast<std::int64_t>(s.core_ases)));
  s.core_isds = static_cast<std::size_t>(
      flags.get_int("core-isds", static_cast<std::int64_t>(s.core_isds)));
  s.isd_ases = static_cast<std::size_t>(
      flags.get_int("isd-ases", static_cast<std::int64_t>(s.isd_ases)));
  s.monitors = static_cast<std::size_t>(
      flags.get_int("monitors", static_cast<std::int64_t>(s.monitors)));
  s.sampled_pairs = static_cast<std::size_t>(
      flags.get_int("pairs", static_cast<std::int64_t>(s.sampled_pairs)));
  s.bgp_sampled_origins = static_cast<std::size_t>(flags.get_int(
      "bgp-origins", static_cast<std::int64_t>(s.bgp_sampled_origins)));
  s.beaconing_duration = util::Duration::minutes(flags.get_int(
      "beaconing-minutes",
      static_cast<std::int64_t>(s.beaconing_duration.as_minutes())));
  s.quality_duration = util::Duration::minutes(flags.get_int(
      "quality-minutes",
      static_cast<std::int64_t>(s.quality_duration.as_minutes())));
  s.bgp_churn_window = util::Duration::minutes(flags.get_int(
      "churn-minutes",
      static_cast<std::int64_t>(s.bgp_churn_window.as_minutes())));
  s.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<std::int64_t>(s.seed)));
  // A generic multiplier for quick scaling experiments.
  const double scale = flags.get_double("scale", 1.0);
  if (scale != 1.0) {
    auto mul = [scale](std::size_t v) {
      return static_cast<std::size_t>(
          std::max(1.0, std::round(static_cast<double>(v) * scale)));
    };
    s.internet_ases = mul(s.internet_ases);
    s.core_ases = mul(s.core_ases);
    s.core_isds = mul(s.core_isds);
    s.isd_ases = mul(s.isd_ases);
    s.sampled_pairs = mul(s.sampled_pairs);
    s.bgp_sampled_origins = mul(s.bgp_sampled_origins);
  }
  return s;
}

topo::Topology build_internet(const Scale& scale) {
  topo::HierarchyConfig config;
  config.n_ases = scale.internet_ases;
  config.n_roots = scale.n_tier1;
  config.seed = scale.seed;
  return topo::generate_hierarchy(config);
}

CoreNetworks build_core_networks(const Scale& scale,
                                 const topo::Topology& internet) {
  CoreNetworks nets;
  nets.bgp_view =
      topo::make_core_network(internet, scale.core_ases, scale.core_isds);
  nets.scion_view = topo::with_all_core_links(nets.bgp_view);
  return nets;
}

std::vector<std::uint32_t> prefix_counts(const topo::Topology& internet,
                                         std::uint64_t seed) {
  util::Rng rng{seed ^ 0xBEEF};
  std::vector<std::uint32_t> counts(internet.as_count(), 1);
  for (topo::AsIndex i = 0; i < internet.as_count(); ++i) {
    // Pareto tail scaled by connectivity: hubs originate far more prefixes.
    const double degree_boost =
        1.0 + std::log2(1.0 + static_cast<double>(internet.link_degree(i)));
    const double raw = rng.pareto(0.8, 1.1) * degree_boost;
    counts[i] = static_cast<std::uint32_t>(
        std::clamp(raw, 1.0, 30000.0));
  }
  return counts;
}

std::vector<topo::AsIndex> pick_monitors(const topo::Topology& topo,
                                         std::size_t n) {
  return topo.highest_degree(n);
}

topo::AsIndex find_by_as_number(const topo::Topology& topo,
                                std::uint64_t as_number) {
  for (topo::AsIndex i = 0; i < topo.as_count(); ++i) {
    if (topo.as_id(i).as_number() == as_number) return i;
  }
  return topo::kInvalidAsIndex;
}

AsPairs sample_distinct_pairs(util::Rng& rng, std::size_t n, std::size_t want) {
  using Pair = std::pair<topo::AsIndex, topo::AsIndex>;
  std::vector<Pair> pairs;
  if (n < 2 || want == 0) return pairs;
  const std::size_t max_pairs = n * (n - 1) / 2;
  if (want >= max_pairs) {
    // Saturated request: full enumeration, no rng draws at all.
    pairs.reserve(max_pairs);
    for (std::size_t s = 0; s + 1 < n; ++s) {
      for (std::size_t t = s + 1; t < n; ++t) {
        pairs.emplace_back(static_cast<topo::AsIndex>(s),
                           static_cast<topo::AsIndex>(t));
      }
    }
    return pairs;
  }
  if (want * 3 >= max_pairs) {
    // Dense request: rejection would stall near saturation, so shuffle the
    // full enumeration and truncate (partial Fisher-Yates).
    std::vector<Pair> all;
    all.reserve(max_pairs);
    for (std::size_t s = 0; s + 1 < n; ++s) {
      for (std::size_t t = s + 1; t < n; ++t) {
        all.emplace_back(static_cast<topo::AsIndex>(s),
                         static_cast<topo::AsIndex>(t));
      }
    }
    for (std::size_t i = 0; i < want; ++i) {
      const std::size_t j = i + rng.index(all.size() - i);
      std::swap(all[i], all[j]);
    }
    all.resize(want);
    return all;
  }
  // Sparse request: rejection sampling, deduped against everything drawn so
  // far (pairs are normalized s < t, so (a, b) and (b, a) collide).
  std::set<Pair> seen;
  pairs.reserve(want);
  while (pairs.size() < want) {
    auto s = static_cast<topo::AsIndex>(rng.index(n));
    auto t = static_cast<topo::AsIndex>(rng.index(n));
    if (s == t) continue;
    if (s > t) std::swap(s, t);
    if (!seen.emplace(s, t).second) continue;
    pairs.emplace_back(s, t);
  }
  SCION_CHECK(pairs.size() == want, "sampler must deliver the requested pair count");
  return pairs;
}

AsPairs draw_pairs(util::Rng& rng, std::size_t n, std::size_t draws) {
  AsPairs pairs;
  for (std::size_t i = 0; i < draws; ++i) {
    const auto a = static_cast<topo::AsIndex>(rng.index(n));
    const auto b = static_cast<topo::AsIndex>(rng.index(n));
    if (a != b) pairs.emplace_back(a, b);
  }
  return pairs;
}

}  // namespace scion::exp
