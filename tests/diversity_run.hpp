// The fixed-seed diversity beaconing run whose stored PCBs feed the
// diversity lockstep test (test_algorithms.cpp) and the eviction test
// (test_beacon_store.cpp): a 12-AS core network with parallel links, the
// diversity algorithm with diversity-aware storage, latency metadata on,
// and a storage limit small enough that buckets fill and evict.
#pragma once

#include "core/beaconing_sim.hpp"
#include "topology/generator.hpp"

namespace scion::ctrl {

inline topo::Topology diversity_run_world() {
  topo::HierarchyConfig internet_config;
  internet_config.n_ases = 120;
  internet_config.n_roots = 6;
  internet_config.seed = 12;
  const topo::Topology internet = topo::generate_hierarchy(internet_config);
  return topo::with_all_core_links(topo::make_core_network(internet, 12, 2));
}

inline BeaconingSimConfig diversity_run_config() {
  BeaconingSimConfig config;
  config.server.algorithm = AlgorithmKind::kDiversity;
  config.server.store_policy = StorePolicy::kDiversityAware;
  config.server.storage_limit = 12;
  config.server.include_latency_metadata = true;
  config.server.compute_crypto = false;
  config.sim_duration = util::Duration::hours(2);
  config.seed = 21;
  return config;
}

}  // namespace scion::ctrl
