// Per-AS beacon database.
//
// The store keeps, for every origin AS, up to `per_origin_limit` valid PCBs
// (the paper's "PCB storage limit", varied between 15/30/60/unlimited in the
// evaluation). Two replacement policies are provided:
//  - kShortestFresh: keep the shortest paths, break ties by freshness. This
//    matches the baseline path construction algorithm's preference.
//  - kDiversityAware: evict the entry whose links are most redundant with
//    the rest of the bucket, so storage pressure does not destroy the very
//    diversity the propagation algorithm tries to build (ablation axis).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/pcb.hpp"
#include "topology/ids.hpp"

namespace scion::ctrl {

/// A PCB at rest, with its inter-AS link sequence resolved against the
/// topology (one LinkIndex per AS entry: the link that entry's out_if sent
/// the PCB over; the last one is the link it reached us on).
struct StoredPcb {
  PcbRef pcb;
  std::vector<topo::LinkIndex> links;
  TimePoint received_at;
  /// pcb->path_key(), computed when the path is admitted.
  std::uint64_t path_key{0};
  /// Staleness quarantine: how many of this entry's links are currently
  /// down (maintained by mark_link_stale / revalidate_link), and when the
  /// entry first went stale. Stale entries are skipped by selection and
  /// path resolution but stay stored, so a short link flap does not thrash
  /// the store; expire_stale() evicts long-stale entries.
  std::uint16_t stale_links{0};
  /// Hash of `links`, set by the store: its bucket scan compares this
  /// before the links themselves. Sits in the padding before stale_since.
  std::uint32_t links_hash{0};
  TimePoint stale_since{};

  bool stale() const { return stale_links > 0; }
};

enum class StorePolicy : std::uint8_t { kShortestFresh, kDiversityAware };

class BeaconStore {
 public:
  enum class InsertOutcome : std::uint8_t {
    kInserted,    // stored as a new path
    kRefreshed,   // replaced an older instance of the same path
    kReplaced,    // evicted a worse path to make room
    kRejected,    // bucket full and the candidate is not better
    kStale,       // older instance of an already-stored path
  };

  /// `per_origin_limit` of 0 means unlimited.
  explicit BeaconStore(std::size_t per_origin_limit,
                       StorePolicy policy = StorePolicy::kShortestFresh)
      : limit_{per_origin_limit}, policy_{policy} {}

  /// Offers a PCB whose entries resolved to `links` at this store's AS. A
  /// stored path is identified by its links, which fix every field the
  /// path key hashes, so pcb->path_key() runs only when the PCB is admitted
  /// as a new path (kInserted, kReplaced); a refresh keeps the stored key.
  /// A caller that already holds the key may pass it as `path_key`; it
  /// must equal pcb->path_key() (checked in checked builds). The link
  /// vector is allocated (or a victim's capacity reused) only on
  /// admission. This is the beacon server's hot-path entry point.
  InsertOutcome insert(const PcbRef& pcb, std::span<const topo::LinkIndex> links,
                       TimePoint received_at,
                       std::optional<std::uint64_t> path_key = std::nullopt);

  /// As above, for a pre-built entry (its links_hash is ignored).
  InsertOutcome insert(StoredPcb entry);

  /// Drops expired PCBs everywhere; returns how many were dropped.
  std::size_t expire(TimePoint now);

  /// Drops every stored PCB whose link sequence traverses `link` (the
  /// SCMP-revocation reaction to an interface going down); returns how many
  /// were dropped.
  std::size_t drop_link(topo::LinkIndex link);

  /// Staleness-aware alternative to drop_link: quarantines entries riding
  /// `link` instead of evicting them. Returns how many entries went from
  /// fresh to stale.
  std::size_t mark_link_stale(topo::LinkIndex link, TimePoint now);

  /// The link recovered: releases its hold on quarantined entries. Returns
  /// how many entries became fully fresh again. Saturating per entry, so an
  /// entry admitted mid-outage never underflows on the restore.
  std::size_t revalidate_link(topo::LinkIndex link);

  /// Evicts entries that have been continuously stale for longer than
  /// `timeout`; returns how many were evicted.
  std::size_t expire_stale(TimePoint now, Duration timeout);

  /// Stored PCBs for one origin (possibly empty). Pointers/references are
  /// invalidated by insert/expire.
  const std::vector<StoredPcb>& for_origin(IsdAsId origin) const;

  /// All origins that currently have at least one stored PCB.
  std::vector<IsdAsId> origins() const;

  std::size_t total_stored() const;
  std::size_t per_origin_limit() const { return limit_; }

 private:
  std::size_t pick_victim(const std::vector<StoredPcb>& bucket,
                          const PcbRef& candidate,
                          std::span<const topo::LinkIndex> candidate_links,
                          bool& candidate_wins) const;

  std::size_t limit_;
  StorePolicy policy_;
  std::unordered_map<IsdAsId, std::vector<StoredPcb>> buckets_;
  /// Per-link coverage counts reused across kDiversityAware victim picks:
  /// dense by link index, grown on demand to the highest link seen, and
  /// reset to all zero by each pick (walking the bucket's links again), so
  /// a pick costs one lookup per link and a copied store stays valid.
  mutable std::vector<int> coverage_scratch_;
};

}  // namespace scion::ctrl
