// Unit-capacity max-flow / min-cut on the AS-level multigraph (Dinic's
// algorithm).
//
// Both path-quality metrics of Section 5.3 reduce to s-t max-flow with unit
// edge capacities over inter-AS links:
//  - Failure resilience: the minimum number of link failures disconnecting
//    two ASes equals the min edge cut (Menger's theorem).
//  - Maximum capacity in multiples of inter-AS link capacity: the max number
//    of link-disjoint unit flows.
// The "optimum" series evaluates the full topology; the per-algorithm series
// evaluate the subgraph formed by the union of the disseminated paths.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topology/topology.hpp"

namespace scion::analysis {

/// A flow network over AS indices; edges are added individually (parallel
/// edges allowed, each a separate unit of capacity).
class FlowGraph {
 public:
  explicit FlowGraph(std::size_t n_nodes);

  /// Adds an undirected unit-capacity edge (both directions usable, but a
  /// physical link carries one unit total, matching a physical inter-AS
  /// link that can be part of one disjoint path).
  void add_undirected_unit_edge(std::uint32_t u, std::uint32_t v);

  /// Max s-t flow; the graph is reset before computing, so the call is
  /// repeatable with different terminals.
  int max_flow(std::uint32_t s, std::uint32_t t);

  std::size_t node_count() const { return graph_.size(); }

  /// Builds a flow graph over all ASes of `topo` with one undirected unit
  /// edge per inter-AS link.
  static FlowGraph from_topology(const topo::Topology& topo);

  /// Builds a flow graph containing only the links in the union of `paths`
  /// (each path a sequence of LinkIndex values into `topo`); each distinct
  /// link contributes one unit edge.
  static FlowGraph from_link_paths(
      const topo::Topology& topo,
      std::span<const std::vector<topo::LinkIndex>> paths);

 private:
  struct Edge {
    std::uint32_t to;
    int capacity;
    int initial_capacity;
  };

  bool bfs(std::uint32_t s, std::uint32_t t);
  int dfs(std::uint32_t u, std::uint32_t t, int pushed);
  void reset_capacities();

  std::vector<Edge> edges_;
  std::vector<std::vector<std::uint32_t>> graph_;  // node -> edge indices
  std::vector<int> level_;
  std::vector<std::uint32_t> iter_;
};

}  // namespace scion::analysis
