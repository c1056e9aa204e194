// The beacon server of one AS's Control Service (Section 2.2).
//
// Every beaconing interval the server (1) expires stale state, (2) if it is
// a core AS, originates fresh PCBs, and (3) selects received PCBs to
// propagate using the configured path construction algorithm. Incoming PCBs
// are loop-checked, signature-verified, resolved against the topology, and
// inserted into the beacon store.
//
// The server is deliberately decoupled from the event-driven network: it
// emits PCBs through a send callback and is driven by on_interval() /
// handle_pcb(), so unit tests can drive it directly and the simulator wires
// it to channels.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "core/algorithms.hpp"
#include "core/beacon_store.hpp"
#include "crypto/hopfield_mac.hpp"
#include "crypto/signature.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace scion::ctrl {

/// Which level of the routing hierarchy the server participates in
/// (Section 2.2): selective flooding among core ASes, or uni-directional
/// provider-to-customer dissemination inside an ISD.
enum class BeaconingMode : std::uint8_t { kCore, kIntraIsd };

struct BeaconServerConfig {
  AlgorithmKind algorithm{AlgorithmKind::kBaseline};
  BeaconingMode mode{BeaconingMode::kCore};
  /// Beaconing interval (paper: 10 minutes).
  util::Duration interval{util::Duration::minutes(10)};
  /// PCB validity period set by the origin (paper: 6 hours).
  util::Duration pcb_lifetime{util::Duration::hours(6)};
  /// Max PCBs per origin AS per interval: per egress interface for the
  /// baseline, per neighbor AS for the diversity algorithm (Section 5.1).
  std::size_t dissemination_limit{5};
  /// Max PCBs per origin AS in the store; 0 = unlimited (Section 5.1).
  std::size_t storage_limit{60};
  StorePolicy store_policy{StorePolicy::kShortestFresh};
  DiversityParams diversity{};
  /// Optional link remapping for the diversity algorithm's history tables
  /// (see LinkCanonicalizer; used by the AS-disjointness ablation).
  LinkCanonicalizer diversity_link_canonicalizer{};
  /// Latency metadata extension: carry per-entry ingress-link latency in
  /// PCBs (adds kLatencyMetadataBytes per entry on the wire). Requires
  /// link_latency_us.
  bool include_latency_metadata{false};
  /// Measured latency of a link in microseconds (the AS's own monitoring
  /// of its inter-domain links); wired by the simulation.
  std::function<std::uint32_t(topo::LinkIndex)> link_latency_us{};
  /// Advertise this AS's peering links inside propagated PCBs (intra-ISD
  /// beaconing; enables data-plane peering shortcuts).
  bool include_peer_entries{false};
  /// Compute real signatures/MACs on sent PCBs and verify the full
  /// signature chain of received ones. Disable for large-scale overhead
  /// simulations: wire sizes are identical (the fields are still carried,
  /// zeroed), but signing/verification CPU cost is avoided.
  bool compute_crypto{true};
  /// Staleness-aware revalidation: on_link_down quarantines stored PCBs
  /// riding the link instead of evicting them, on_link_up releases the
  /// quarantine, and entries continuously stale for longer than the
  /// staleness timeout (fixed in beacon_server.cpp) are evicted each
  /// interval. A short flap then costs no store rebuild. Default off:
  /// revocation evicts, as before.
  bool stale_quarantine{false};
  /// Beacon re-origination retry on interface recovery (core ASes only):
  /// instead of waiting for the next interval, the origin re-beacons on the
  /// recovered link after an exponential-backoff delay, so one recovery is
  /// fast but a flapping interface does not amplify control traffic. The
  /// delay schedule is fixed in beacon_server.cpp. Default off.
  bool reorigination{false};
  /// Schedules `fn` to run after `delay`; the callback receives the fire
  /// time (the server keeps no clock). Wired by the simulation; required
  /// when reorigination is on.
  std::function<void(util::Duration, std::function<void(TimePoint)>)>
      schedule{};
  /// Seed for the re-origination jitter stream (folded with the AS index,
  /// so every server draws independently of the others).
  std::uint64_t backoff_seed{0};
};

struct BeaconServerStats {
  std::uint64_t pcbs_received{0};
  util::Bytes bytes_received{};
  std::uint64_t pcbs_sent{0};
  util::Bytes bytes_sent{};
  std::uint64_t pcbs_originated{0};
  std::uint64_t loops_dropped{0};
  std::uint64_t verify_failures{0};
  std::uint64_t resolve_failures{0};
  std::uint64_t store_rejected{0};
  /// Stored PCBs evicted because a link they traverse was revoked.
  std::uint64_t pcbs_revoked{0};
  /// Stored PCBs quarantined (fresh -> stale) by link failures.
  std::uint64_t pcbs_quarantined{0};
  /// Quarantined PCBs that became fully fresh again on link recovery.
  std::uint64_t pcbs_revalidated{0};
  /// Quarantined PCBs evicted after exceeding the staleness timeout.
  std::uint64_t pcbs_stale_expired{0};
  /// Backoff-scheduled re-originations actually sent.
  std::uint64_t reoriginations{0};
};

class BeaconServer {
 public:
  /// Sends a PCB out of `egress` (a link this AS is an endpoint of).
  using SendFn = std::function<void(topo::LinkIndex egress, const PcbRef&)>;

  BeaconServer(const topo::Topology& topology, topo::AsIndex self,
               BeaconServerConfig config, crypto::KeyStore& keys,
               std::uint64_t key_domain_seed, SendFn send);

  /// Ingests a PCB received on `ingress` at time `now`.
  void handle_pcb(const PcbRef& pcb, topo::LinkIndex ingress, TimePoint now);

  /// Runs one beaconing interval at time `now`.
  void on_interval(TimePoint now);

  /// Reacts to `link` going down (this AS saw an interface fail, or an
  /// SCMP revocation for it arrived): every stored PCB traversing the link
  /// is evicted so it is neither registered nor propagated further, and the
  /// diversity history no longer credits it. With stale_quarantine on, the
  /// PCBs are quarantined instead of evicted.
  void on_link_down(topo::LinkIndex link, TimePoint now);

  /// Reacts to `link` recovering: releases the staleness quarantine (when
  /// enabled) and, for a core AS with reorigination backoff enabled,
  /// schedules a retried origin PCB on the link after the backoff delay.
  void on_link_up(topo::LinkIndex link, TimePoint now);

  topo::AsIndex self() const { return self_; }
  topo::IsdAsId self_id() const { return self_id_; }
  const BeaconStore& store() const { return store_; }
  const BeaconServerStats& stats() const { return stats_; }

  /// Zeroes the counters (used to exclude a warm-up phase from accounting).
  void reset_stats() { stats_ = BeaconServerStats{}; }

 private:
  /// Links this server propagates on, grouped per neighbor AS.
  struct NeighborGroup {
    topo::AsIndex neighbor;
    topo::IsdAsId neighbor_id;
    std::vector<topo::LinkIndex> links;
  };

  /// Per-link reorigination backoff state. `epoch` invalidates scheduled
  /// retries when the link goes down again before they fire.
  struct BackoffState {
    std::uint32_t attempts{0};
    std::uint32_t epoch{0};
    bool down{false};
    TimePoint last_recovery{};
  };

  void originate(TimePoint now);
  void originate_diversity(TimePoint now);
  void schedule_reorigination(topo::LinkIndex link, TimePoint now);
  void propagate(TimePoint now);
  void send_extended(const StoredPcb& stored, topo::LinkIndex egress,
                     TimePoint now);
  void send_origin_pcb(topo::LinkIndex egress, TimePoint now);
  std::vector<PeerEntry> peer_entries() const;

  /// Resolves a PCB's entry chain to topology links into `out` (cleared
  /// first); false on mismatch. Callers pass a reused scratch vector so a
  /// rejected PCB costs no allocation.
  bool resolve_links(const Pcb& pcb, topo::LinkIndex ingress,
                     std::vector<topo::LinkIndex>& out) const;

  const topo::Topology& topology_;
  topo::AsIndex self_;
  topo::IsdAsId self_id_;
  BeaconServerConfig config_;
  crypto::KeyStore& keys_;
  crypto::SigningKey signing_key_;
  crypto::ForwardingKey forwarding_key_;
  SendFn send_;
  BeaconStore store_;
  std::unique_ptr<DiversityState> diversity_;
  std::vector<NeighborGroup> propagation_groups_;
  std::vector<topo::LinkIndex> origination_links_;
  BeaconServerStats stats_;
  /// Reused by handle_pcb() for link resolution (capacity persists).
  std::vector<topo::LinkIndex> resolve_scratch_;
  /// Jitter stream for reorigination backoff; a pure function of
  /// (backoff_seed, self), so runs are deterministic under any scheduling.
  util::Rng backoff_rng_;
  /// Ordered so no behavior ever depends on hash iteration (lookups only).
  std::map<topo::LinkIndex, BackoffState> backoff_;
};

}  // namespace scion::ctrl
