#include "core/beacon_store.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace scion::ctrl {

namespace {

/// Baseline ordering used to pick eviction victims: longer paths are worse,
/// ties broken towards earlier expiry.
bool shortest_fresh_better(const StoredPcb& x, const StoredPcb& y) {
  if (x.pcb->hops() != y.pcb->hops()) return x.pcb->hops() < y.pcb->hops();
  return x.pcb->expiry() > y.pcb->expiry();
}

/// FNV-1a over the link indices: a cheap filter for the bucket scan.
std::uint32_t hash_links(std::span<const topo::LinkIndex> links) {
  std::uint32_t h = 2166136261u;
  for (topo::LinkIndex l : links) {
    h ^= l;
    h *= 16777619u;
  }
  return h;
}

/// Redundancy of a candidate path against the bucket coverage counts (a
/// link past the table's end is on no stored path).
double redundancy(std::span<const topo::LinkIndex> links,
                  const std::vector<int>& coverage) {
  if (links.empty()) return 0.0;
  double sum = 0.0;
  for (topo::LinkIndex l : links) {
    sum += static_cast<double>(l < coverage.size() ? coverage[l] : 0);
  }
  return sum / static_cast<double>(links.size());
}

}  // namespace

BeaconStore::InsertOutcome BeaconStore::insert(StoredPcb entry) {
  return insert(entry.pcb, entry.links, entry.received_at, entry.path_key);
}

// Once per received PCB that survives verification. Only an admitted
// candidate may allocate (its link vector) or hash its path key; the
// refresh/reject/stale paths do neither.
BeaconStore::InsertOutcome BeaconStore::insert(
    const PcbRef& pcb, std::span<const topo::LinkIndex> links,
    TimePoint received_at, std::optional<std::uint64_t> path_key) {
  SCION_CHECK(pcb && !pcb->entries().empty(), "stored PCB must be non-empty");
  SCION_CHECK(links.size() == pcb->hops(),
              "resolved link sequence must cover every hop");
  SCION_DCHECK(!path_key || *path_key == pcb->path_key(),
               "the caller's path key must be the PCB's");
  // The bucket map is the store itself, one lookup per received PCB.
  auto& bucket = buckets_[pcb->origin()];

  // Same path already stored? Keep the newest instance only. The links
  // identify the path, so the slot's links and path key stay as they are.
  const std::uint32_t links_hash = hash_links(links);
  for (StoredPcb& existing : bucket) {
    if (existing.links_hash == links_hash &&
        std::equal(existing.links.begin(), existing.links.end(),
                   links.begin(), links.end())) {
      if (pcb->timestamp() > existing.pcb->timestamp()) {
        existing.pcb = pcb;
        existing.received_at = received_at;
        return InsertOutcome::kRefreshed;
      }
      return InsertOutcome::kStale;
    }
  }

  StoredPcb* slot = nullptr;
  InsertOutcome outcome = InsertOutcome::kInserted;
  if (limit_ == 0 || bucket.size() < limit_) {
    slot = &bucket.emplace_back();
    SCION_DCHECK(limit_ == 0 || bucket.size() <= limit_,
                 "bucket grew past the per-origin storage limit");
  } else {
    SCION_DCHECK(bucket.size() == limit_,
                 "a full bucket must hold exactly the storage limit");
    bool candidate_wins = false;
    const std::size_t victim = pick_victim(bucket, pcb, links, candidate_wins);
    if (!candidate_wins) return InsertOutcome::kRejected;
    slot = &bucket[victim];
    outcome = InsertOutcome::kReplaced;
  }
  // Admitted. The link copy is the entry's one allocation; a victim's
  // capacity is reused. The victim's quarantine state dies with it: the new
  // path is admitted fresh (a PCB can only arrive over a live path).
  slot->pcb = pcb;
  slot->links.assign(links.begin(), links.end());
  slot->received_at = received_at;
  slot->path_key = path_key ? *path_key : pcb->path_key();
  slot->links_hash = links_hash;
  slot->stale_links = 0;
  slot->stale_since = TimePoint{};
  return outcome;
}

// Runs whenever a PCB hits a full bucket — the steady state of every
// long simulation.
std::size_t BeaconStore::pick_victim(const std::vector<StoredPcb>& bucket,
                                     const PcbRef& candidate,
                                     std::span<const topo::LinkIndex> candidate_links,
                                     bool& candidate_wins) const {
  SCION_CHECK(!bucket.empty(), "victim selection needs a non-empty bucket");
  // Replacement requires a *strictly better path*. Freshness must not break
  // ties between different paths: fresh instances arrive every beaconing
  // interval, and letting them rotate equal-quality paths through a full
  // bucket manufactures endless "never sent before" paths downstream,
  // defeating the diversity algorithm's retransmission suppression (fresh
  // instances of an already-stored path are handled by kRefreshed above).
  if (policy_ == StorePolicy::kShortestFresh) {
    // Victim = the longest stored path.
    std::size_t worst = 0;
    for (std::size_t i = 1; i < bucket.size(); ++i) {
      if (shortest_fresh_better(bucket[worst], bucket[i])) worst = i;
    }
    candidate_wins = candidate->hops() < bucket[worst].pcb->hops();
    return worst;
  }

  // kDiversityAware: coverage of each link across the bucket, tallied in
  // the dense scratch table (all zero between calls, allocation-free once
  // it spans the links seen).
  std::vector<int>& coverage = coverage_scratch_;
  for (const StoredPcb& e : bucket) {
    for (topo::LinkIndex l : e.links) {
      if (l >= coverage.size()) {
        SCION_CHECK(l != topo::kInvalidLinkIndex,
                    "a stored path's link must be a valid link index");
        coverage.resize(static_cast<std::size_t>(l) + 1, 0);
      }
      ++coverage[l];
    }
  }
  std::size_t worst = 0;
  double worst_red = -1.0;
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    // Exclude the entry's own contribution arithmetically: it adds exactly
    // one to each of its links' coverage counts.
    double sum = 0.0;
    for (topo::LinkIndex l : bucket[i].links) {
      sum += static_cast<double>(coverage[l] - 1);
    }
    const double red =
        bucket[i].links.empty()
            ? 0.0
            : sum / static_cast<double>(bucket[i].links.size());
    if (red > worst_red ||
        (red == worst_red && shortest_fresh_better(bucket[worst], bucket[i]))) {
      worst_red = red;
      worst = i;
    }
  }
  const double cand_red = redundancy(candidate_links, coverage);
  candidate_wins = cand_red < worst_red;  // strictly more diverse only
  for (const StoredPcb& e : bucket) {
    for (topo::LinkIndex l : e.links) coverage[l] = 0;
  }
  return worst;
}

std::size_t BeaconStore::expire(TimePoint now) {
  std::size_t expired = 0;
  // Erase-only sweep; no cross-bucket state, order-insensitive (the count
  // is a pure function of the multiset of entries).
  // simlint:allow(unordered-iter)
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    auto& bucket = it->second;
    expired += std::erase_if(
        bucket, [now](const StoredPcb& e) { return e.pcb->expired(now); });
    if (bucket.empty()) {
      it = buckets_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

std::size_t BeaconStore::drop_link(topo::LinkIndex link) {
  std::size_t dropped = 0;
  // Erase-only sweep; no cross-bucket state, order-insensitive (the count
  // is a pure function of the multiset of entries).
  // simlint:allow(unordered-iter)
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    auto& bucket = it->second;
    dropped += std::erase_if(bucket, [link](const StoredPcb& e) {
      return std::find(e.links.begin(), e.links.end(), link) != e.links.end();
    });
    if (bucket.empty()) {
      it = buckets_.erase(it);
    } else {
      ++it;
    }
  }
  return dropped;
}

std::size_t BeaconStore::mark_link_stale(topo::LinkIndex link, TimePoint now) {
  std::size_t quarantined = 0;
  // Count-only sweep; no cross-bucket state, order-insensitive (the count
  // is a pure function of the multiset of entries).
  // simlint:allow(unordered-iter)
  for (auto& [origin, bucket] : buckets_) {
    for (StoredPcb& e : bucket) {
      const auto hits = static_cast<std::uint16_t>(
          std::count(e.links.begin(), e.links.end(), link));
      if (hits == 0) continue;
      if (e.stale_links == 0) {
        e.stale_since = now;
        ++quarantined;
      }
      e.stale_links = static_cast<std::uint16_t>(e.stale_links + hits);
    }
  }
  return quarantined;
}

std::size_t BeaconStore::revalidate_link(topo::LinkIndex link) {
  std::size_t revalidated = 0;
  // Count-only sweep; no cross-bucket state, order-insensitive (the count
  // is a pure function of the multiset of entries).
  // simlint:allow(unordered-iter)
  for (auto& [origin, bucket] : buckets_) {
    for (StoredPcb& e : bucket) {
      const auto hits = static_cast<std::uint16_t>(
          std::count(e.links.begin(), e.links.end(), link));
      if (hits == 0 || e.stale_links == 0) continue;
      // Saturating: an entry admitted mid-outage starts fresh, so the
      // restore may release more holds than were ever taken on it.
      e.stale_links =
          e.stale_links > hits
              ? static_cast<std::uint16_t>(e.stale_links - hits)
              : std::uint16_t{0};
      if (e.stale_links == 0) {
        e.stale_since = TimePoint{};
        ++revalidated;
      }
    }
  }
  return revalidated;
}

std::size_t BeaconStore::expire_stale(TimePoint now, Duration timeout) {
  std::size_t expired = 0;
  // Erase-only sweep; no cross-bucket state, order-insensitive (the count
  // is a pure function of the multiset of entries).
  // simlint:allow(unordered-iter)
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    auto& bucket = it->second;
    expired += std::erase_if(bucket, [now, timeout](const StoredPcb& e) {
      return e.stale() && now - e.stale_since > timeout;
    });
    if (bucket.empty()) {
      it = buckets_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

const std::vector<StoredPcb>& BeaconStore::for_origin(IsdAsId origin) const {
  static const std::vector<StoredPcb> kEmpty;
  const auto it = buckets_.find(origin);
  return it == buckets_.end() ? kEmpty : it->second;
}

std::vector<IsdAsId> BeaconStore::origins() const {
  std::vector<IsdAsId> out;
  out.reserve(buckets_.size());
  // Collection order is erased by the sort below. simlint:allow(unordered-iter)
  for (const auto& [origin, bucket] : buckets_) {
    if (!bucket.empty()) out.push_back(origin);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t BeaconStore::total_stored() const {
  std::size_t n = 0;
  // Commutative integer sum. simlint:allow(unordered-iter)
  for (const auto& [origin, bucket] : buckets_) n += bucket.size();
  return n;
}

}  // namespace scion::ctrl
