#include "analysis/maxflow.hpp"

#include "util/check.hpp"

#include <algorithm>
#include <queue>
#include <unordered_set>

namespace scion::analysis {

FlowGraph::FlowGraph(std::size_t n_nodes) : graph_(n_nodes) {}

void FlowGraph::add_undirected_unit_edge(std::uint32_t u, std::uint32_t v) {
  SCION_CHECK(u < graph_.size() && v < graph_.size() && u != v,
              "edge endpoints must be distinct existing nodes");
  // An undirected unit edge is the arc pair (u->v, v->u) with capacity 1
  // each, where each arc doubles as the other's residual.
  graph_[u].push_back(static_cast<std::uint32_t>(edges_.size()));
  edges_.push_back(Edge{v, 1, 1});
  graph_[v].push_back(static_cast<std::uint32_t>(edges_.size()));
  edges_.push_back(Edge{u, 1, 1});
}

void FlowGraph::reset_capacities() {
  for (Edge& e : edges_) e.capacity = e.initial_capacity;
}

bool FlowGraph::bfs(std::uint32_t s, std::uint32_t t) {
  level_.assign(graph_.size(), -1);
  std::queue<std::uint32_t> q;
  level_[s] = 0;
  q.push(s);
  while (!q.empty()) {
    const std::uint32_t u = q.front();
    q.pop();
    for (std::uint32_t idx : graph_[u]) {
      const Edge& e = edges_[idx];
      if (e.capacity > 0 && level_[e.to] < 0) {
        level_[e.to] = level_[u] + 1;
        q.push(e.to);
      }
    }
  }
  return level_[t] >= 0;
}

int FlowGraph::dfs(std::uint32_t u, std::uint32_t t, int pushed) {
  if (u == t) return pushed;
  for (std::uint32_t& i = iter_[u]; i < graph_[u].size(); ++i) {
    const std::uint32_t idx = graph_[u][i];
    Edge& e = edges_[idx];
    if (e.capacity <= 0 || level_[e.to] != level_[u] + 1) continue;
    const int d = dfs(e.to, t, std::min(pushed, e.capacity));
    if (d > 0) {
      e.capacity -= d;
      edges_[idx ^ 1].capacity += d;  // paired arc is the residual
      return d;
    }
  }
  return 0;
}

int FlowGraph::max_flow(std::uint32_t s, std::uint32_t t) {
  SCION_CHECK(s < graph_.size() && t < graph_.size(), "terminal out of range");
  if (s == t) return 0;
  reset_capacities();
  int flow = 0;
  while (bfs(s, t)) {
    iter_.assign(graph_.size(), 0);
    while (const int pushed = dfs(s, t, 1 << 30)) flow += pushed;
  }
  return flow;
}

FlowGraph FlowGraph::from_topology(const topo::Topology& topo) {
  FlowGraph g{topo.as_count()};
  for (topo::LinkIndex l = 0; l < topo.link_count(); ++l) {
    const topo::Link& link = topo.link(l);
    g.add_undirected_unit_edge(link.a, link.b);
  }
  return g;
}

FlowGraph FlowGraph::from_link_paths(
    const topo::Topology& topo,
    std::span<const std::vector<topo::LinkIndex>> paths) {
  FlowGraph g{topo.as_count()};
  std::unordered_set<topo::LinkIndex> seen;
  for (const auto& path : paths) {
    for (topo::LinkIndex l : path) {
      if (!seen.insert(l).second) continue;
      const topo::Link& link = topo.link(l);
      g.add_undirected_unit_edge(link.a, link.b);
    }
  }
  return g;
}

}  // namespace scion::analysis
