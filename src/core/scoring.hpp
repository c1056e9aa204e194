// Link-diversity scoring for the path-diversity-based path construction
// algorithm (Section 4.2 and Appendix A).
//
// Per [origin AS, neighbor AS] pair the beacon server keeps a Link History
// Table mapping each inter-AS link to a counter: the number of valid
// (previously sent, unexpired) paths from that origin to that neighbor that
// contain the link. The diversity score of a candidate path is derived from
// the geometric mean of its links' counters; the final score additionally
// weighs the PCB's age/lifetime (Eq. 2) or, for previously sent paths, the
// remaining lifetimes of the sent vs the current instance (Eq. 3):
//
//     score = diversity^g   if previously sent          (Eq. 1)
//     score = diversity^f   otherwise
//     f = alpha * age / lifetime                        (Eq. 2)
//     g = (beta * sent_remaining / current_remaining)^gamma   (Eq. 3)
//
// Orientation note: the paper scales the geometric mean into [0, 1] by the
// "maximum acceptable geometric mean" but leaves the polarity implicit. We
// resolve it from the three stated objectives (preserve connectivity /
// discover new paths / save bandwidth), which require score 1 to be best:
//     diversity = 1 - min(1, geometric_mean / max_geometric_mean)
// so a path containing any never-used link has geometric mean 0 and
// diversity 1 (the "prefer PCBs containing new links" rationale), and a
// fully redundant path scores 0 and is never sent. The score recorded in
// the Sent PCBs List is computed *after* that send's counter increments, so
// a just-sent path always has diversity < 1 and is suppressed while fresh —
// otherwise the bandwidth-saving objective could never trigger for fully
// disjoint paths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "topology/ids.hpp"
#include "util/time.hpp"

namespace scion::ctrl {

using util::Duration;
using util::TimePoint;

/// Tunables of the diversity algorithm. Defaults were fitted with
/// GridSearch (see grid_search.hpp) on the generated core topologies; the
/// paper likewise fits them per topology with a coarse-then-fine grid
/// search.
struct DiversityParams {
  /// Age sensitivity for not-previously-sent paths (Eq. 2). The paper
  /// fits this per topology *and PCB lifetime*: with a 10-minute interval
  /// and 6-hour lifetime, age/lifetime advances in steps of 1/36, so alpha
  /// must be of order lifetime/interval for age to suppress redundant
  /// paths within a few intervals — otherwise every young PCB scores ~1
  /// and the whole footprint re-floods each lifetime.
  double alpha{20.0};
  /// Remaining-lifetime-ratio scale for previously sent paths (Eq. 3).
  double beta{3.0};
  /// Exponent sharpening the previously-sent suppression (Eq. 3).
  double gamma{2.0};
  /// Minimum final score a candidate must reach to be disseminated.
  double score_threshold{0.5};
  /// Latency-optimization extension (Section 4.2, "Optimizing for other
  /// Criteria"): 0 disables it; otherwise candidate scores are multiplied
  /// by latency_factor() computed from the PCB's disseminated latency
  /// metadata, steering dissemination towards low-latency paths.
  double latency_weight{0.0};
  /// "Maximum acceptable geometric mean" of link counters; higher means a
  /// link may be reused by more paths before its redundancy saturates.
  /// This is the main overhead/coverage knob: at 1.0 only paths containing
  /// a never-used link are disseminated (cheapest); larger values explore
  /// more redundant paths. Default fitted on the generated core networks.
  double max_geometric_mean{2.0};
  /// Whether a sent path's expiry decrements its links' counters. The
  /// paper's "number of times the link is part of a valid path" is
  /// ambiguous; decrementing makes every stored path's coverage lapse once
  /// per lifetime, so the entire footprint re-floods cyclically and the
  /// overhead win over the baseline collapses to a small factor (kept as
  /// an ablation). Cumulative counters (default) converge to refreshing a
  /// minimal link-covering set — the behavior consistent with the paper's
  /// measured two-orders-of-magnitude reduction.
  bool decrement_on_expiry{false};
};

/// Optional remapping of link ids before they enter the Link History
/// Tables. Identity (null) gives the paper's link-disjointness; mapping all
/// parallel links of an AS pair to one id gives AS-disjointness — the
/// alternative Section 4.2 argues against ("we choose link instead of AS
/// disjointness ... since AS failures are unlikely events"), kept as an
/// ablation axis.
using LinkCanonicalizer = std::function<topo::LinkIndex(topo::LinkIndex)>;

/// std::log(double(count)) for a link counter >= 1, bit-identical to it:
/// counts below kLogCountTableSize come from a shared table filled by that
/// very expression, larger ones call it.
inline constexpr int kLogCountTableSize = 1024;
double log_count(int count);

/// Link History Table for one [origin AS, neighbor AS] pair. The counters
/// are a dense vector indexed by link, grown on demand to the highest link
/// seen: link indices are small and dense (one per topology link), and a
/// scoring pass reads a counter per link of every candidate.
class LinkHistoryTable {
 public:
  /// Increments the counter of every link on a sent path.
  void add_path(std::span<const topo::LinkIndex> links);

  /// Decrements the counters when a sent path expires; counters never go
  /// below zero.
  void remove_path(std::span<const topo::LinkIndex> links);

  int counter(topo::LinkIndex link) const {
    return link < counters_.size() ? counters_[link] : 0;
  }

  /// Geometric mean of the counters of `links`; 0 if any counter is 0.
  /// The log terms are summed in link order.
  double geometric_mean(std::span<const topo::LinkIndex> links) const;

  /// Number of links with a non-zero counter.
  std::size_t distinct_links() const { return distinct_; }

 private:
  std::vector<int> counters_;
  std::size_t distinct_{0};
};

/// Diversity score in [0, 1]; 1 = fully disjoint from previously sent
/// paths, 0 = at or beyond the acceptable redundancy.
double diversity_score(const LinkHistoryTable& history,
                       std::span<const topo::LinkIndex> path_links,
                       const DiversityParams& params);

/// The diversity of a path whose links have geometric mean `geometric_mean`
/// (diversity_score without the table lookups); needs a positive
/// params.max_geometric_mean.
inline double diversity_of_mean(double geometric_mean,
                                const DiversityParams& params) {
  return 1.0 - std::min(1.0, geometric_mean / params.max_geometric_mean);
}

/// Final score for a path never sent before (Eqs. 1 and 2).
double score_fresh(double diversity, Duration age, Duration lifetime,
                   const DiversityParams& params);

/// Final score for a previously sent path (Eqs. 1 and 3); `stored_diversity`
/// is the diversity recorded at send time.
double score_previously_sent(double stored_diversity, Duration sent_remaining,
                             Duration current_remaining,
                             const DiversityParams& params);

/// Multiplier in (0, 1] applied to a candidate's score when the latency
/// extension is active: halves per (latency_weight x 50 ms) of accumulated
/// path latency, so low-latency paths win ties and high-latency detours
/// fall below the threshold sooner.
double latency_factor(std::uint64_t path_latency_us,
                      const DiversityParams& params);

/// One record in the Sent PCBs List of an egress interface.
struct SentRecord {
  topo::IsdAsId origin;
  topo::IsdAsId neighbor;
  /// Diversity score at send time (after its own counter increments).
  double diversity{0.0};
  /// Timestamps of the instance that was sent.
  TimePoint instance_timestamp;
  TimePoint instance_expiry;
  /// The path's links including the egress link (for counter decrement).
  std::vector<topo::LinkIndex> links;
};

/// Key of a sent path: the stored PCB's path identity plus the egress link
/// it was sent on.
struct SentKey {
  std::uint64_t path_key{0};
  topo::LinkIndex egress{topo::kInvalidLinkIndex};

  bool operator==(const SentKey&) const = default;
};

struct SentKeyHash {
  std::size_t operator()(const SentKey& k) const noexcept {
    return static_cast<std::size_t>(
        (k.path_key ^ (static_cast<std::uint64_t>(k.egress) + 1)) *
        0x9E3779B97F4A7C15ULL);
  }
};

using SentPcbsList = std::unordered_map<SentKey, SentRecord, SentKeyHash>;

}  // namespace scion::ctrl
