// The two path construction (propagation) algorithms of Section 4.2.
//
// Baseline: at every beaconing interval, for each [origin AS, egress
// interface] pair, disseminate the `limit` shortest stored PCBs, regardless
// of what was sent before. This is the algorithm the production network and
// SCIONLab run; it optimizes the same metric as BGP (AS-path length) and
// resends aggressively.
//
// Path-diversity-based (Algorithm 1): per [origin AS, neighbor AS] pair,
// greedily select up to `limit` (PCB, egress interface) combinations with
// the highest final score (scoring.hpp), stopping early when no candidate
// reaches the score threshold. Selected paths update the Link History Table
// and the Sent PCBs List, which both persist across intervals — that memory
// is what suppresses redundant retransmissions and steers selection toward
// link-disjoint paths.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "core/beacon_store.hpp"
#include "core/scoring.hpp"
#include "topology/topology.hpp"

namespace scion::ctrl {

/// Canonicalizer collapsing all parallel links between an AS pair onto one
/// representative id — turns the diversity algorithm's link-disjointness
/// into AS-pair-disjointness (ablation, Section 4.2).
LinkCanonicalizer as_pair_canonicalizer(const topo::Topology& topology);

enum class AlgorithmKind : std::uint8_t { kBaseline, kDiversity };

const char* to_string(AlgorithmKind k);

/// A (stored PCB, egress link) combination chosen for dissemination.
struct Candidate {
  const StoredPcb* stored{nullptr};
  topo::LinkIndex egress{topo::kInvalidLinkIndex};
};

/// Baseline selection for one [origin, egress interface] pair: the `limit`
/// shortest valid PCBs (ties: fresher instance first), excluding paths that
/// already contain the neighbor AS (loop prevention). The choice does not
/// depend on `egress`, which only labels the returned candidates, so one
/// call serves every parallel link to the neighbor.
std::vector<Candidate> baseline_select(std::span<const StoredPcb> bucket,
                                       topo::IsdAsId neighbor_as,
                                       topo::LinkIndex egress,
                                       std::size_t limit, TimePoint now);

/// Mutable state of the diversity algorithm in one beacon server: the Link
/// History Tables (per [origin, neighbor]) and the Sent PCBs Lists (per
/// egress interface, flattened into one map keyed by path+egress).
class DiversityState {
 public:
  explicit DiversityState(DiversityParams params,
                          LinkCanonicalizer canonicalizer = {})
      : params_{params}, canonicalizer_{std::move(canonicalizer)} {}

  const DiversityParams& params() const { return params_; }

  /// Purges sent records whose sent instance expired and rolls their links
  /// out of the history tables ("valid paths" only, Section 4.2).
  void expire(TimePoint now);

  /// Algorithm 1 for one [origin, neighbor] pair. Returns the selected
  /// combinations (at most `limit`) and commits them: link counters are
  /// incremented and sent records written, affecting later iterations and
  /// intervals. `egress_links` are the parallel links towards the neighbor.
  std::vector<Candidate> select_and_commit(
      std::span<const StoredPcb> bucket, topo::IsdAsId origin,
      topo::IsdAsId neighbor_as,
      std::span<const topo::LinkIndex> egress_links, std::size_t limit,
      TimePoint now);

  /// Records a send outside select_and_commit (used for origin PCBs, which
  /// are not in the beacon store): increments the link counters unless this
  /// path+egress is still counted from a valid earlier send, then writes
  /// the sent record with the post-increment diversity score.
  void commit_send(const SentKey& key, topo::IsdAsId origin,
                   topo::IsdAsId neighbor_as,
                   std::span<const topo::LinkIndex> links,
                   TimePoint instance_timestamp, TimePoint instance_expiry,
                   TimePoint now);

  /// Number of score evaluations performed so far (processing-cost metric).
  std::uint64_t evaluations() const { return evaluations_; }

  /// Candidates whose score fell below the threshold (suppression metric).
  std::uint64_t suppressed() const { return suppressed_; }

  const SentPcbsList& sent() const { return sent_; }

  /// The Link History Table for a pair (creating it on first use).
  LinkHistoryTable& history(topo::IsdAsId origin, topo::IsdAsId neighbor_as);

 private:
  struct PairKey {
    std::uint64_t origin;
    std::uint64_t neighbor;
    bool operator==(const PairKey&) const = default;
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const noexcept {
      return static_cast<std::size_t>(
          (k.origin * 0x9E3779B97F4A7C15ULL) ^ (k.neighbor + 0x7F4A7C15ULL));
    }
  };

  /// Applies the canonicalizer (identity when unset).
  std::vector<topo::LinkIndex> canon(
      std::span<const topo::LinkIndex> links) const;

  DiversityParams params_;
  LinkCanonicalizer canonicalizer_;
  std::unordered_map<PairKey, LinkHistoryTable, PairKeyHash> history_;
  SentPcbsList sent_;
  /// Scratch reused by select_and_commit (capacity kept across calls).
  std::vector<const StoredPcb*> eligible_;
  std::vector<topo::LinkIndex> canonical_egress_;
  std::vector<topo::LinkIndex> candidate_links_;
  std::vector<SentKey> chosen_;
  std::uint64_t evaluations_{0};
  std::uint64_t suppressed_{0};
};

}  // namespace scion::ctrl
