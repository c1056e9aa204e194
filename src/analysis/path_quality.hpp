// Path-quality evaluation (Section 5.3): failure resilience and maximum
// capacity of a disseminated path set, compared to the optimum achievable
// on the full topology.
//
// As the paper notes, with unit link capacities the two metrics coincide on
// a given graph (max-flow = min-cut): the minimum number of failing links
// that disconnects a pair equals the maximum number of link-disjoint unit
// flows. The per-algorithm value is computed on the union of that
// algorithm's disseminated paths; the optimum on the full topology.
#pragma once

#include <span>
#include <vector>

#include "analysis/maxflow.hpp"

namespace scion::analysis {

class QualityEvaluator {
 public:
  explicit QualityEvaluator(const topo::Topology& topo)
      : topo_{topo}, full_{FlowGraph::from_topology(topo)} {}

  /// Optimal (full-topology) min-cut / max-flow between two ASes.
  ///
  /// NOT thread-safe: Dinic's search mutates the full-topology graph
  /// (levels, iterators, capacities).
  int optimal(topo::AsIndex s, topo::AsIndex t) { return full_.max_flow(s, t); }

  /// Min-cut / max-flow restricted to the union of `paths`. Thread-safe:
  /// builds a fresh flow graph per call, so one evaluator may be shared by
  /// concurrent tasks.
  int of_paths(std::span<const std::vector<topo::LinkIndex>> paths,
               topo::AsIndex s, topo::AsIndex t) const;

 private:
  const topo::Topology& topo_;
  FlowGraph full_;
};

}  // namespace scion::analysis
