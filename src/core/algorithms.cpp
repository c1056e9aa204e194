#include "core/algorithms.hpp"

#include <algorithm>

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

std::vector<Candidate> DiversityState::select_and_commit(
    std::span<const StoredPcb> bucket, topo::IsdAsId origin,
    topo::IsdAsId neighbor_as, std::span<const topo::LinkIndex> egress_links,
    std::size_t limit, TimePoint now) {
  std::vector<Candidate> selected;
  if (egress_links.empty() || bucket.empty()) return selected;

  LinkHistoryTable& table = history(origin, neighbor_as);
  std::vector<topo::LinkIndex> candidate_links;

  // Guards against reselecting a combination within this call; the fresh
  // sent record already suppresses it for sane parameters, but user-chosen
  // parameters must not be able to produce duplicates.
  std::vector<SentKey> chosen_this_call;

  while (selected.size() < limit) {
    const StoredPcb* best = nullptr;
    topo::LinkIndex best_egress = topo::kInvalidLinkIndex;
    double best_score = 0.0;

    for (const StoredPcb& s : bucket) {
      if (s.pcb->expired(now)) continue;
      if (s.stale()) continue;  // quarantined: a link on the path is down
      if (s.pcb->contains_as(neighbor_as)) continue;  // loop prevention
      for (topo::LinkIndex egress : egress_links) {
        const SentKey key{s.path_key, egress};
        if (std::find(chosen_this_call.begin(), chosen_this_call.end(), key) !=
            chosen_this_call.end()) {
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
              s.pcb->remaining_lifetime(now), params_);
        } else {
          candidate_links.assign(s.links.begin(), s.links.end());
          candidate_links.push_back(egress);
          if (canonicalizer_) {
            for (topo::LinkIndex& l : candidate_links) l = canonicalizer_(l);
          }
          const double d = diversity_score(table, candidate_links, params_);
          score = score_fresh(d, s.pcb->age(now), s.pcb->lifetime(), params_);
          // Latency extension: penalize high-latency candidates before the
          // threshold check (no effect when latency_weight is 0).
          score *= latency_factor(s.pcb->total_latency_us(), params_);
        }

        if (score <= params_.score_threshold) {
          ++suppressed_;
          continue;
        }
        // Strictly-greater comparison plus deterministic tie-breaks:
        // longer remaining lifetime, then fewer hops, then stable key.
        bool better = score > best_score;
        if (!better && score == best_score && best != nullptr) {
          if (s.pcb->expiry() != best->pcb->expiry()) {
            better = s.pcb->expiry() > best->pcb->expiry();
          } else if (s.pcb->hops() != best->pcb->hops()) {
            better = s.pcb->hops() < best->pcb->hops();
          } else {
            better = SentKey{s.path_key, egress}.path_key <
                     SentKey{best->path_key, best_egress}.path_key;
          }
        }
        if (better) {
          best = &s;
          best_egress = egress;
          best_score = score;
        }
      }
    }

    if (best == nullptr) break;  // nothing above the threshold

    const SentKey key{best->path_key, best_egress};
    candidate_links.assign(best->links.begin(), best->links.end());
    candidate_links.push_back(best_egress);
    commit_send(key, origin, neighbor_as, candidate_links,
                best->pcb->timestamp(), best->pcb->expiry(), now);

    chosen_this_call.push_back(key);
    selected.push_back(Candidate{best, best_egress});
  }
  return selected;
}

void DiversityState::commit_send(const SentKey& key, topo::IsdAsId origin,
                                 topo::IsdAsId neighbor_as,
                                 std::span<const topo::LinkIndex> links,
                                 TimePoint instance_timestamp,
                                 TimePoint instance_expiry, TimePoint now) {
  LinkHistoryTable& table = history(origin, neighbor_as);
  const std::vector<topo::LinkIndex> canonical = canon(links);
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

  table.add_path(canonical);
  SentRecord record;
  record.origin = origin;
  record.neighbor = neighbor_as;
  record.diversity = diversity_score(table, canonical, params_);
  record.instance_timestamp = instance_timestamp;
  record.instance_expiry = instance_expiry;
  // Canonicalized: expire() must decrement exactly what was incremented.
  record.links = canonical;
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
