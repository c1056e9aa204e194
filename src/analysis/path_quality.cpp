#include "analysis/path_quality.hpp"

namespace scion::analysis {

int QualityEvaluator::of_paths(
    std::span<const std::vector<topo::LinkIndex>> paths, topo::AsIndex s,
    topo::AsIndex t) const {
  if (paths.empty()) return 0;
  FlowGraph g = FlowGraph::from_link_paths(topo_, paths);
  return g.max_flow(s, t);
}

}  // namespace scion::analysis
