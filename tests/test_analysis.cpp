#include <gtest/gtest.h>

#include "analysis/maxflow.hpp"
#include "analysis/overhead.hpp"
#include "analysis/path_quality.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace scion::analysis {
namespace {

TEST(FlowGraph, SingleEdge) {
  FlowGraph g{2};
  g.add_undirected_unit_edge(0, 1);
  EXPECT_EQ(g.max_flow(0, 1), 1);
  EXPECT_EQ(g.max_flow(1, 0), 1);
}

TEST(FlowGraph, ParallelEdgesAddCapacity) {
  FlowGraph g{2};
  g.add_undirected_unit_edge(0, 1);
  g.add_undirected_unit_edge(0, 1);
  g.add_undirected_unit_edge(0, 1);
  EXPECT_EQ(g.max_flow(0, 1), 3);
}

TEST(FlowGraph, SeriesBottleneck) {
  FlowGraph g{3};
  g.add_undirected_unit_edge(0, 1);
  g.add_undirected_unit_edge(0, 1);
  g.add_undirected_unit_edge(1, 2);
  EXPECT_EQ(g.max_flow(0, 2), 1);
}

TEST(FlowGraph, DisconnectedIsZero) {
  FlowGraph g{4};
  g.add_undirected_unit_edge(0, 1);
  g.add_undirected_unit_edge(2, 3);
  EXPECT_EQ(g.max_flow(0, 3), 0);
}

TEST(FlowGraph, DiamondHasTwoDisjointPaths) {
  FlowGraph g{4};
  g.add_undirected_unit_edge(0, 1);
  g.add_undirected_unit_edge(0, 2);
  g.add_undirected_unit_edge(1, 3);
  g.add_undirected_unit_edge(2, 3);
  EXPECT_EQ(g.max_flow(0, 3), 2);
}

TEST(FlowGraph, RepeatableAcrossTerminalPairs) {
  FlowGraph g{4};
  g.add_undirected_unit_edge(0, 1);
  g.add_undirected_unit_edge(1, 2);
  g.add_undirected_unit_edge(2, 3);
  g.add_undirected_unit_edge(3, 0);
  EXPECT_EQ(g.max_flow(0, 2), 2);
  EXPECT_EQ(g.max_flow(1, 3), 2);
  EXPECT_EQ(g.max_flow(0, 2), 2) << "capacities reset between queries";
}

TEST(FlowGraph, SelfFlowIsZero) {
  FlowGraph g{2};
  g.add_undirected_unit_edge(0, 1);
  EXPECT_EQ(g.max_flow(0, 0), 0);
}

/// Brute-force min-cut by enumerating edge subsets (<= 12 edges):
/// reachability after removing the subset.
int brute_force_min_cut(std::size_t nodes,
                        const std::vector<std::pair<int, int>>& edges,
                        std::uint32_t s, std::uint32_t t) {
  const std::size_t m = edges.size();
  for (std::size_t k = 0; k <= m; ++k) {
    for (std::uint32_t mask = 0; mask < (1u << m); ++mask) {
      if (static_cast<std::size_t>(__builtin_popcount(mask)) != k) continue;
      // BFS ignoring removed edges.
      std::vector<std::vector<std::uint32_t>> adjacency(nodes);
      for (std::size_t e = 0; e < m; ++e) {
        if (mask & (1u << e)) continue;
        adjacency[static_cast<std::size_t>(edges[e].first)].push_back(
            static_cast<std::uint32_t>(edges[e].second));
        adjacency[static_cast<std::size_t>(edges[e].second)].push_back(
            static_cast<std::uint32_t>(edges[e].first));
      }
      std::vector<bool> visited(nodes, false);
      std::vector<std::uint32_t> stack{s};
      visited[s] = true;
      while (!stack.empty()) {
        const std::uint32_t u = stack.back();
        stack.pop_back();
        for (std::uint32_t v : adjacency[u]) {
          if (!visited[v]) {
            visited[v] = true;
            stack.push_back(v);
          }
        }
      }
      if (!visited[t]) return static_cast<int>(k);
    }
  }
  return static_cast<int>(m);
}

TEST(FlowGraph, MatchesBruteForceOnRandomGraphs) {
  util::Rng rng{99};
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t nodes = 4 + rng.index(3);       // 4..6
    const std::size_t n_edges = 5 + rng.index(6);     // 5..10
    std::vector<std::pair<int, int>> edges;
    FlowGraph g{nodes};
    for (std::size_t e = 0; e < n_edges; ++e) {
      const auto u = static_cast<std::uint32_t>(rng.index(nodes));
      auto v = static_cast<std::uint32_t>(rng.index(nodes));
      if (u == v) v = (v + 1) % nodes;
      edges.emplace_back(u, v);
      g.add_undirected_unit_edge(u, v);
    }
    const std::uint32_t s = 0;
    const auto t = static_cast<std::uint32_t>(1 + rng.index(nodes - 1));
    EXPECT_EQ(g.max_flow(s, t), brute_force_min_cut(nodes, edges, s, t))
        << "trial " << trial;
  }
}

TEST(FlowGraph, FromTopologyCountsParallelLinks) {
  topo::Topology t;
  const auto a = t.add_as(topo::IsdAsId::make(1, 1), true);
  const auto b = t.add_as(topo::IsdAsId::make(1, 2), true);
  t.add_link(a, b, topo::LinkType::kCore);
  t.add_link(a, b, topo::LinkType::kCore);
  FlowGraph g = FlowGraph::from_topology(t);
  EXPECT_EQ(g.max_flow(0, 1), 2);
}

TEST(FlowGraph, FromLinkPathsDeduplicatesLinks) {
  topo::Topology t;
  const auto a = t.add_as(topo::IsdAsId::make(1, 1), true);
  const auto b = t.add_as(topo::IsdAsId::make(1, 2), true);
  const auto c = t.add_as(topo::IsdAsId::make(1, 3), true);
  t.add_link(a, b, topo::LinkType::kCore);  // 0
  t.add_link(b, c, topo::LinkType::kCore);  // 1
  t.add_link(a, c, topo::LinkType::kCore);  // 2
  const std::vector<std::vector<topo::LinkIndex>> paths{{0, 1}, {0, 1}, {2}};
  FlowGraph g = FlowGraph::from_link_paths(t, paths);
  // Link 0/1 counted once despite two paths using them.
  EXPECT_EQ(g.max_flow(0, 2), 2);
}

TEST(QualityEvaluator, PathSetNeverBeatsOptimum) {
  topo::ScionLabConfig config;
  config.n_cores = 10;
  config.extra_edge_fraction = 0.5;
  const topo::Topology t = topo::generate_scionlab(config);
  QualityEvaluator evaluator{t};
  // Single direct path between any adjacent pair.
  for (topo::LinkIndex l = 0; l < t.link_count(); ++l) {
    const topo::Link& link = t.link(l);
    const std::vector<std::vector<topo::LinkIndex>> paths{{l}};
    const int value = evaluator.of_paths(paths, link.a, link.b);
    EXPECT_EQ(value, 1);
    EXPECT_LE(value, evaluator.optimal(link.a, link.b));
  }
}

// --- Overhead ledger -------------------------------------------------------------

TEST(OverheadLedger, AccumulatesPerComponent) {
  OverheadLedger ledger;
  ledger.record("Beaconing", Scope::kIntraIsd, util::Bytes{100});
  ledger.record("Beaconing", Scope::kGlobal, util::Bytes{50});
  ledger.record("Lookup", Scope::kIntraAs, util::Bytes{10});
  const auto rows = ledger.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].component, "Beaconing");
  EXPECT_EQ(rows[0].messages, 2u);
  EXPECT_EQ(rows[0].bytes, util::Bytes{150});
  EXPECT_EQ(rows[0].scope(), Scope::kGlobal) << "widest scope wins";
  EXPECT_EQ(rows[1].scope(), Scope::kIntraAs);
  EXPECT_EQ(ledger.total_bytes(), util::Bytes{160});
}

TEST(OverheadLedger, FrequencyClasses) {
  OverheadLedger ledger;
  for (int i = 0; i < 3600; ++i) ledger.record("fast", Scope::kIntraAs, util::Bytes{1});
  for (int i = 0; i < 10; ++i) ledger.record("medium", Scope::kIntraAs, util::Bytes{1});
  ledger.record("slow", Scope::kIntraAs, util::Bytes{1});
  const auto rows = ledger.rows();
  const util::Duration hour = util::Duration::hours(1);
  for (const auto& row : rows) {
    if (row.component == "fast") {
      EXPECT_EQ(row.frequency(hour, 1), Frequency::kSeconds);
    } else if (row.component == "medium") {
      EXPECT_EQ(row.frequency(hour, 1), Frequency::kMinutes);
    } else {
      EXPECT_EQ(row.frequency(hour, 1), Frequency::kHours);
    }
  }
}

TEST(ExtrapolateToMonth, ScalesLinearly) {
  EXPECT_DOUBLE_EQ(extrapolate_to_month(util::Bytes{100}, util::Duration::hours(6)),
                   100.0 * (30.0 * 24.0 / 6.0));
  EXPECT_DOUBLE_EQ(extrapolate_to_month(util::Bytes{7}, util::Duration::days(30)), 7.0);
}

}  // namespace
}  // namespace scion::analysis
