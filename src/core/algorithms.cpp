#include "core/algorithms.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace scion::ctrl {

LinkCanonicalizer as_pair_canonicalizer(const topo::Topology& topology) {
  // Precompute representative (lowest) link index per AS pair.
  auto mapping = std::make_shared<std::vector<topo::LinkIndex>>(
      topology.link_count(), topo::kInvalidLinkIndex);
  for (topo::LinkIndex l = 0; l < topology.link_count(); ++l) {
    const topo::Link& link = topology.link(l);
    const auto parallel = topology.links_between(link.a, link.b);
    (*mapping)[l] = *std::min_element(parallel.begin(), parallel.end());
  }
  return [mapping](topo::LinkIndex l) { return (*mapping)[l]; };
}

const char* to_string(AlgorithmKind k) {
  switch (k) {
    case AlgorithmKind::kBaseline:
      return "baseline";
    case AlgorithmKind::kDiversity:
      return "diversity";
  }
  return "?";
}

std::vector<Candidate> baseline_select(std::span<const StoredPcb> bucket,
                                       topo::IsdAsId neighbor_as,
                                       topo::LinkIndex egress,
                                       std::size_t limit, TimePoint now) {
  std::vector<const StoredPcb*> eligible;
  eligible.reserve(bucket.size());
  for (const StoredPcb& s : bucket) {
    if (s.pcb->expired(now)) continue;
    if (s.stale()) continue;  // quarantined: a link on the path is down
    if (s.pcb->contains_as(neighbor_as)) continue;  // loop prevention
    eligible.push_back(&s);
  }
  // Shortest path first; among equal lengths prefer the freshest instance;
  // final tie on the stable path key for determinism. Keys are unique in a
  // bucket, so the order is total and the top-k is that of a full sort.
  const std::size_t k = std::min(limit, eligible.size());
  std::partial_sort(eligible.begin(), eligible.begin() + static_cast<std::ptrdiff_t>(k),
                    eligible.end(), [](const StoredPcb* x, const StoredPcb* y) {
                      if (x->pcb->hops() != y->pcb->hops())
                        return x->pcb->hops() < y->pcb->hops();
                      if (x->pcb->timestamp() != y->pcb->timestamp())
                        return x->pcb->timestamp() > y->pcb->timestamp();
                      return x->path_key < y->path_key;
                    });
  eligible.resize(k);

  std::vector<Candidate> out;
  out.reserve(eligible.size());
  for (const StoredPcb* s : eligible) out.push_back(Candidate{s, egress});
  return out;
}

LinkHistoryTable& DiversityState::history(topo::IsdAsId origin,
                                          topo::IsdAsId neighbor_as) {
  return history_[PairKey{origin.value(), neighbor_as.value()}];
}

void DiversityState::expire(TimePoint now) {
  // Erase-only sweep; remove_path decrements commute, so visit order is
  // irrelevant. simlint:allow(unordered-iter)
  for (auto it = sent_.begin(); it != sent_.end();) {
    if (it->second.instance_expiry <= now) {
      if (params_.decrement_on_expiry) {
        history(it->second.origin, it->second.neighbor)
            .remove_path(it->second.links);
      }
      it = sent_.erase(it);
    } else {
      ++it;
    }
  }
}

// Once per (neighbor, origin) each interval. A call makes a pass over the
// eligible entries per selection, plus a final pass that finds nothing.
std::vector<Candidate> DiversityState::select_and_commit(
    std::span<const StoredPcb> bucket, topo::IsdAsId origin,
    topo::IsdAsId neighbor_as, std::span<const topo::LinkIndex> egress_links,
    std::size_t limit, TimePoint now) {
  std::vector<Candidate> selected;
  if (egress_links.empty() || bucket.empty()) return selected;
  SCION_CHECK(params_.max_geometric_mean > 0.0,
              "diversity normalization needs a positive maximum");

  LinkHistoryTable& table = history(origin, neighbor_as);
  // Expired, quarantined and looping entries stay so for the whole call.
  eligible_.clear();
  for (const StoredPcb& s : bucket) {
    if (s.pcb->expired(now)) continue;
    if (s.stale()) continue;  // quarantined: a link on the path is down
    if (s.pcb->contains_as(neighbor_as)) continue;  // loop prevention
    eligible_.push_back(&s);
  }
  canonical_egress_.assign(egress_links.begin(), egress_links.end());
  if (canonicalizer_) {
    for (topo::LinkIndex& l : canonical_egress_) l = canonicalizer_(l);
  }
  // latency_factor() is exactly 1.0 then.
  const bool latency_off = params_.latency_weight <= 0.0;

  // Guards against reselecting a combination within this call; the fresh
  // sent record already suppresses it for sane parameters, but user-chosen
  // parameters must not be able to produce duplicates.
  chosen_.clear();

  while (selected.size() < limit) {
    const StoredPcb* best = nullptr;
    topo::LinkIndex best_egress = topo::kInvalidLinkIndex;
    double best_score = 0.0;

    for (const StoredPcb* s : eligible_) {
      // The log sum over the path's own links is the same for every egress
      // link, so it is taken once per pass, at the entry's first fresh
      // evaluation. The egress term is added last, as geometric_mean()
      // over path + egress adds it, so every score is bit-identical.
      bool path_summed = false;
      bool path_has_unused_link = false;
      double path_log_sum = 0.0;
      for (std::size_t k = 0; k < egress_links.size(); ++k) {
        const topo::LinkIndex egress = egress_links[k];
        const SentKey key{s->path_key, egress};
        if (std::find(chosen_.begin(), chosen_.end(), key) != chosen_.end()) {
          continue;
        }
        ++evaluations_;

        double score = 0.0;
        const auto sent_it = sent_.find(key);
        const bool previously_sent =
            sent_it != sent_.end() && sent_it->second.instance_expiry > now;
        if (previously_sent) {
          score = score_previously_sent(
              sent_it->second.diversity,
              sent_it->second.instance_expiry - now,
              s->pcb->remaining_lifetime(now), params_);
        } else {
          if (!path_summed) {
            path_summed = true;
            for (topo::LinkIndex l : s->links) {
              const int c =
                  table.counter(canonicalizer_ ? canonicalizer_(l) : l);
              if (c == 0) {
                path_has_unused_link = true;
                break;
              }
              path_log_sum += log_count(c);
            }
          }
          // Geometric mean over path + egress; 0 if any counter is 0.
          double gm = 0.0;
          const int egress_count = table.counter(canonical_egress_[k]);
          if (!path_has_unused_link && egress_count != 0) {
            gm = std::exp((path_log_sum + log_count(egress_count)) /
                          static_cast<double>(s->links.size() + 1));
          }
          score = score_fresh(diversity_of_mean(gm, params_), s->pcb->age(now),
                              s->pcb->lifetime(), params_);
          // Latency extension: penalize high-latency candidates before the
          // threshold check.
          if (!latency_off) {
            score *= latency_factor(s->pcb->total_latency_us(), params_);
          }
        }

        if (score <= params_.score_threshold) {
          ++suppressed_;
          continue;
        }
        // Strictly-greater comparison plus deterministic tie-breaks:
        // longer remaining lifetime, then fewer hops, then stable key.
        bool better = score > best_score;
        if (!better && score == best_score && best != nullptr) {
          if (s->pcb->expiry() != best->pcb->expiry()) {
            better = s->pcb->expiry() > best->pcb->expiry();
          } else if (s->pcb->hops() != best->pcb->hops()) {
            better = s->pcb->hops() < best->pcb->hops();
          } else {
            better = s->path_key < best->path_key;
          }
        }
        if (better) {
          best = s;
          best_egress = egress;
          best_score = score;
        }
      }
    }

    if (best == nullptr) break;  // nothing above the threshold

    const SentKey key{best->path_key, best_egress};
    candidate_links_.assign(best->links.begin(), best->links.end());
    candidate_links_.push_back(best_egress);
    commit_send(key, origin, neighbor_as, candidate_links_,
                best->pcb->timestamp(), best->pcb->expiry(), now);

    chosen_.push_back(key);
    selected.push_back(Candidate{best, best_egress});
  }
  return selected;
}

void DiversityState::commit_send(const SentKey& key, topo::IsdAsId origin,
                                 topo::IsdAsId neighbor_as,
                                 std::span<const topo::LinkIndex> links,
                                 TimePoint instance_timestamp,
                                 TimePoint instance_expiry, TimePoint now) {
  // "If a path is sent again, its corresponding timers in Sent PCBs List
  // get updated": a refresh of a still-valid sent path updates the
  // instance timers only — counters are not re-incremented and the stored
  // diversity score persists from the original send (recomputing it under
  // the since-grown counters would drive refreshed paths' scores to zero
  // and connectivity maintenance would die out after a few lifetimes).
  const auto sent_it = sent_.find(key);
  const bool counted =
      sent_it != sent_.end() && sent_it->second.instance_expiry > now;
  if (counted) {
    sent_it->second.instance_timestamp = instance_timestamp;
    sent_it->second.instance_expiry = instance_expiry;
    return;
  }

  LinkHistoryTable& table = history(origin, neighbor_as);
  // Canonicalized: expire() must decrement exactly what was incremented.
  std::vector<topo::LinkIndex> canonical = canon(links);
  table.add_path(canonical);
  SentRecord record;
  record.origin = origin;
  record.neighbor = neighbor_as;
  record.diversity = diversity_score(table, canonical, params_);
  record.instance_timestamp = instance_timestamp;
  record.instance_expiry = instance_expiry;
  record.links = std::move(canonical);
  sent_[key] = std::move(record);
}

std::vector<topo::LinkIndex> DiversityState::canon(
    std::span<const topo::LinkIndex> links) const {
  std::vector<topo::LinkIndex> out(links.begin(), links.end());
  if (canonicalizer_) {
    for (topo::LinkIndex& l : out) l = canonicalizer_(l);
  }
  return out;
}

}  // namespace scion::ctrl
