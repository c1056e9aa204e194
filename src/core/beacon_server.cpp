#include "core/beacon_server.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

#include <algorithm>
#include <array>
#include <map>

namespace scion::ctrl {

namespace {

/// Stable identity for a would-be origin PCB leaving on a given interface:
/// lets the origin's own sends participate in the sent-PCBs suppression.
std::uint64_t origin_path_key(topo::IsdAsId origin, topo::IfId out_if) {
  crypto::Sha256 h;
  h.update("scion-mpr/origin-path-key/v1");
  h.update_u64(origin.value());
  h.update_u16(out_if.value());
  return h.finalize().prefix64();
}

// Re-origination backoff: the first retry waits kBackoffBase, each further
// recovery within kBackoffStableReset of the previous one multiplies the
// delay by kBackoffMultiplier up to kBackoffMax, and every delay is scaled
// by U[1 - kBackoffJitter, 1 + kBackoffJitter].
constexpr Duration kBackoffBase = Duration::seconds(5);
constexpr double kBackoffMultiplier = 2.0;
constexpr Duration kBackoffMax = Duration::minutes(10);
constexpr double kBackoffJitter = 0.1;
constexpr Duration kBackoffStableReset = Duration::minutes(10);
static_assert(kBackoffBase > Duration::zero() && kBackoffMax >= kBackoffBase &&
                  kBackoffMultiplier >= 1.0 && kBackoffJitter >= 0.0 &&
                  kBackoffJitter < 1.0,
              "reorigination backoff parameters out of range");

}  // namespace

BeaconServer::BeaconServer(const topo::Topology& topology, topo::AsIndex self,
                           BeaconServerConfig config, crypto::KeyStore& keys,
                           std::uint64_t key_domain_seed, SendFn send)
    : topology_{topology},
      self_{self},
      self_id_{topology.as_id(self)},
      config_{config},
      keys_{keys},
      signing_key_{keys.key_for(self_id_.value())},
      forwarding_key_{
          crypto::ForwardingKey::derive(self_id_.value(), key_domain_seed)},
      send_{std::move(send)},
      store_{config.storage_limit, config.store_policy},
      backoff_rng_{util::Rng::substream(config.backoff_seed, self)} {
  SCION_CHECK(send_, "beacon server needs a send hook");
  SCION_CHECK(!config_.reorigination || config_.schedule,
              "reorigination backoff needs a schedule hook");
  SCION_CHECK(config_.stale_timeout > Duration::zero(),
              "staleness timeout must be positive");
  if (config_.algorithm == AlgorithmKind::kDiversity) {
    diversity_ = std::make_unique<DiversityState>(
        config_.diversity, config_.diversity_link_canonicalizer);
  }

  // Precompute propagation groups and origination links.
  const bool core_mode = config_.mode == BeaconingMode::kCore;
  std::map<topo::AsIndex, std::vector<topo::LinkIndex>> grouped;
  if (core_mode) {
    if (topology_.is_core(self_)) {
      for (topo::LinkIndex l :
           topology_.links_of_type(self_, topo::LinkType::kCore)) {
        grouped[topology_.neighbor(l, self_)].push_back(l);
      }
    }
  } else {
    // Intra-ISD: PCBs flow uni-directionally towards customers.
    for (topo::LinkIndex l : topology_.customer_links(self_)) {
      grouped[topology_.neighbor(l, self_)].push_back(l);
    }
  }
  for (auto& [neighbor, links] : grouped) {
    propagation_groups_.push_back(
        NeighborGroup{neighbor, topology_.as_id(neighbor), std::move(links)});
  }
  if (topology_.is_core(self_)) {
    for (const NeighborGroup& g : propagation_groups_) {
      origination_links_.insert(origination_links_.end(), g.links.begin(),
                                g.links.end());
    }
    std::sort(origination_links_.begin(), origination_links_.end());
  }
}

// Once per received PCB. Writes into the caller's scratch vector, which
// keeps its capacity across PCBs — resolution itself never allocates once
// the scratch has grown to the longest path seen.
bool BeaconServer::resolve_links(const Pcb& pcb, topo::LinkIndex ingress,
                                 std::vector<topo::LinkIndex>& out) const {
  out.clear();
  const auto& entries = pcb.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto as = topology_.find(entries[i].isd_as);
    if (!as) return false;
    const auto link = topology_.link_by_interface(*as, entries[i].out_if);
    if (!link) return false;
    // The link must lead to the next AS on the path (or to us for the last
    // entry), entering on the interface recorded there.
    const topo::AsIndex next_as = topology_.neighbor(*link, *as);
    const topo::IfId next_in = topology_.interface_of(*link, next_as);
    if (i + 1 < entries.size()) {
      const auto expected = topology_.find(entries[i + 1].isd_as);
      if (!expected || next_as != *expected) return false;
      if (next_in != entries[i + 1].in_if) return false;
    } else {
      if (next_as != self_ || *link != ingress) return false;
    }
    // Scratch capacity persists across PCBs.
    out.push_back(*link);
  }
  return true;
}

// The beaconing inner loop: every PCB the network delivers lands here.
void BeaconServer::handle_pcb(const PcbRef& pcb, topo::LinkIndex ingress,
                              TimePoint now) {
  SCION_CHECK(pcb && !pcb->entries().empty(), "received PCB must be non-empty");
  ++stats_.pcbs_received;
  stats_.bytes_received += pcb->wire_size();
  SCION_METRIC_COUNT("beacon.pcbs_received", 1);

  if (pcb->expired(now)) return;
  if (pcb->contains_as(self_id_)) {
    ++stats_.loops_dropped;
    SCION_METRIC_COUNT("beacon.loops_dropped", 1);
    return;
  }
  if (config_.compute_crypto && !pcb->verify(keys_)) {
    ++stats_.verify_failures;
    SCION_METRIC_COUNT("beacon.verify_failures", 1);
    return;
  }
  if (!resolve_links(*pcb, ingress, resolve_scratch_)) {
    ++stats_.resolve_failures;
    SCION_METRIC_COUNT("beacon.resolve_failures", 1);
    return;
  }

  // Span-based admission: the store copies the links, and hashes the path
  // key, only if it admits the PCB as a new path, so the common refresh,
  // rejected and stale cases allocate and hash nothing.
  const auto outcome = store_.insert(pcb, resolve_scratch_, now);
  if (outcome == BeaconStore::InsertOutcome::kRejected ||
      outcome == BeaconStore::InsertOutcome::kStale) {
    ++stats_.store_rejected;
    SCION_METRIC_COUNT("beacon.store_rejected", 1);
  }
}

void BeaconServer::on_interval(TimePoint now) {
  const std::size_t expired = store_.expire(now);
  if (expired > 0) {
    SCION_METRIC_COUNT("beacon.pcbs_expired", expired);
    SCION_TRACE(obs::Category::kBeacon, now, "expire",
                {"as", self_id_.to_string()}, {"expired", expired});
  }
  if (config_.stale_quarantine) {
    const std::size_t stale_out =
        store_.expire_stale(now, config_.stale_timeout);
    if (stale_out > 0) {
      stats_.pcbs_stale_expired += stale_out;
      SCION_METRIC_COUNT("beacon.pcbs_stale_expired", stale_out);
      SCION_TRACE(obs::Category::kBeacon, now, "stale_expire",
                  {"as", self_id_.to_string()}, {"expired", stale_out});
    }
  }
  SCION_METRIC_GAUGE_MAX("beacon.store_occupancy", store_.total_stored());
  if (diversity_) diversity_->expire(now);
  originate(now);
  propagate(now);
}

void BeaconServer::on_link_down(topo::LinkIndex link, TimePoint now) {
  if (config_.reorigination) {
    // Invalidate any pending retry for the link and mark it down so an
    // already-queued callback becomes a no-op.
    BackoffState& st = backoff_[link];
    ++st.epoch;
    st.down = true;
  }
  if (config_.stale_quarantine) {
    const std::size_t quarantined = store_.mark_link_stale(link, now);
    if (quarantined == 0) return;
    stats_.pcbs_quarantined += quarantined;
    SCION_METRIC_COUNT("beacon.pcbs_quarantined", quarantined);
    SCION_TRACE(obs::Category::kBeacon, now, "quarantine",
                {"as", self_id_.to_string()}, {"link", link},
                {"quarantined", quarantined});
    return;
  }
  const std::size_t revoked = store_.drop_link(link);
  if (revoked == 0) return;
  stats_.pcbs_revoked += revoked;
  SCION_METRIC_COUNT("beacon.pcbs_revoked", revoked);
  SCION_TRACE(obs::Category::kBeacon, now, "revoke",
              {"as", self_id_.to_string()}, {"link", link},
              {"revoked", revoked});
}

void BeaconServer::on_link_up(topo::LinkIndex link, TimePoint now) {
  if (config_.stale_quarantine) {
    const std::size_t revalidated = store_.revalidate_link(link);
    if (revalidated > 0) {
      stats_.pcbs_revalidated += revalidated;
      SCION_METRIC_COUNT("beacon.pcbs_revalidated", revalidated);
      SCION_TRACE(obs::Category::kBeacon, now, "revalidate",
                  {"as", self_id_.to_string()}, {"link", link},
                  {"revalidated", revalidated});
    }
  }
  if (config_.reorigination &&
      std::binary_search(origination_links_.begin(), origination_links_.end(),
                         link)) {
    schedule_reorigination(link, now);
  }
}

void BeaconServer::schedule_reorigination(topo::LinkIndex link, TimePoint now) {
  BackoffState& st = backoff_[link];
  st.down = false;
  // A link that stayed up long enough since its previous recovery earns a
  // fresh (fast) retry schedule; a flapping link keeps escalating.
  if (st.last_recovery != TimePoint{} &&
      now - st.last_recovery > kBackoffStableReset) {
    st.attempts = 0;
  }
  st.last_recovery = now;
  double scale = 1.0;
  for (std::uint32_t i = 0; i < st.attempts; ++i) scale *= kBackoffMultiplier;
  const double capped =
      std::min(static_cast<double>(kBackoffBase.ns()) * scale,
               static_cast<double>(kBackoffMax.ns()));
  const double jittered = capped * backoff_rng_.uniform(1.0 - kBackoffJitter,
                                                        1.0 + kBackoffJitter);
  const auto delay = Duration::nanoseconds(static_cast<std::int64_t>(jittered));
  ++st.attempts;
  const std::uint32_t epoch = st.epoch;
  SCION_TRACE(obs::Category::kBeacon, now, "reorigin_scheduled",
              {"as", self_id_.to_string()}, {"link", link},
              {"delay_ns", delay.ns()});
  config_.schedule(delay, [this, link, epoch](TimePoint fire_now) {
    const auto it = backoff_.find(link);
    if (it == backoff_.end() || it->second.epoch != epoch ||
        it->second.down) {
      return;  // link flapped again before the retry fired
    }
    ++stats_.reoriginations;
    SCION_METRIC_COUNT("beacon.reoriginations", 1);
    SCION_TRACE(obs::Category::kBeacon, fire_now, "reoriginate",
                {"as", self_id_.to_string()}, {"link", link});
    send_origin_pcb(link, fire_now);
  });
}

std::vector<PeerEntry> BeaconServer::peer_entries() const {
  std::vector<PeerEntry> peers;
  if (!config_.include_peer_entries) return peers;
  for (topo::LinkIndex l :
       topology_.links_of_type(self_, topo::LinkType::kPeer)) {
    PeerEntry p;
    p.peer_as = topology_.as_id(topology_.neighbor(l, self_));
    p.peer_if = topology_.interface_of(l, self_);
    // The peer hop MAC authorizes entering via the peer interface; chained
    // later when the entry MAC is computed.
    p.hop_mac = crypto::HopMac{};
    peers.push_back(p);
  }
  return peers;
}

void BeaconServer::send_origin_pcb(topo::LinkIndex egress, TimePoint now) {
  const topo::IfId out_if = topology_.interface_of(egress, self_);
  Pcb origin_pcb =
      config_.compute_crypto
          ? Pcb::originate(self_id_, out_if, now, config_.pcb_lifetime,
                           signing_key_, forwarding_key_)
          : Pcb::originate_unsigned(self_id_, out_if, now,
                                    config_.pcb_lifetime);
  if (config_.include_latency_metadata) origin_pcb.enable_latency_extension();
  auto pcb = std::make_shared<const Pcb>(std::move(origin_pcb));
  ++stats_.pcbs_originated;
  ++stats_.pcbs_sent;
  stats_.bytes_sent += pcb->wire_size();
  SCION_METRIC_COUNT("beacon.pcbs_originated", 1);
  SCION_METRIC_COUNT("beacon.pcbs_sent", 1);
  SCION_METRIC_OBSERVE("beacon.pcb_wire_bytes", pcb->wire_size().value());
  SCION_TRACE(obs::Category::kBeacon, now, "originate",
              {"as", self_id_.to_string()}, {"egress_if", out_if});
  send_(egress, pcb);
}

void BeaconServer::originate(TimePoint now) {
  if (!topology_.is_core(self_)) return;
  if (diversity_) {
    originate_diversity(now);
    return;
  }
  // Baseline: one fresh PCB per egress interface per interval.
  for (topo::LinkIndex l : origination_links_) send_origin_pcb(l, now);
}

void BeaconServer::originate_diversity(TimePoint now) {
  // Origination participates in the same scoring as propagation: a fresh
  // origin PCB on a link is a one-link path from self to the neighbor, and
  // its sent record suppresses redundant re-origination while the neighbor
  // still holds a valid instance.
  DiversityState& div = *diversity_;
  const DiversityParams& params = div.params();
  for (const NeighborGroup& group : propagation_groups_) {
    LinkHistoryTable& table = div.history(self_id_, group.neighbor_id);
    std::size_t sent_count = 0;
    std::vector<topo::LinkIndex> chosen;
    while (sent_count < config_.dissemination_limit) {
      topo::LinkIndex best = topo::kInvalidLinkIndex;
      double best_score = 0.0;
      for (topo::LinkIndex l : group.links) {
        if (std::find(chosen.begin(), chosen.end(), l) != chosen.end()) continue;
        const SentKey key{origin_path_key(self_id_, topology_.interface_of(l, self_)), l};
        double score = 0.0;
        // Peek at the sent list through select-independent bookkeeping: we
        // duplicate minimal logic here because origin PCBs are not stored.
        const auto& sent = div.sent();
        const auto it = sent.find(key);
        const std::array<topo::LinkIndex, 1> link_path{l};
        if (it != sent.end() && it->second.instance_expiry > now) {
          score = score_previously_sent(it->second.diversity,
                                        it->second.instance_expiry - now,
                                        config_.pcb_lifetime, params);
        } else {
          const double d = diversity_score(table, link_path, params);
          score = score_fresh(d, Duration::zero(), config_.pcb_lifetime, params);
        }
        if (score > params.score_threshold && score > best_score) {
          best = l;
          best_score = score;
        }
      }
      if (best == topo::kInvalidLinkIndex) break;
      chosen.push_back(best);
      const std::array<topo::LinkIndex, 1> link_path{best};
      div.commit_send(
          SentKey{origin_path_key(self_id_, topology_.interface_of(best, self_)),
                  best},
          self_id_, group.neighbor_id, link_path, now,
          now + config_.pcb_lifetime, now);
      send_origin_pcb(best, now);
      ++sent_count;
    }
  }
}

// Once per propagated PCB each interval.
void BeaconServer::send_extended(const StoredPcb& stored,
                                 topo::LinkIndex egress, TimePoint now) {
  const topo::IfId in_if = topology_.interface_of(stored.links.back(), self_);
  const topo::IfId out_if = topology_.interface_of(egress, self_);
  std::uint32_t ingress_latency_us = 0;
  if (config_.include_latency_metadata && config_.link_latency_us) {
    ingress_latency_us = config_.link_latency_us(stored.links.back());
  }
  // A sent PCB's intrinsic allocations: the extended entry vector (plus
  // one per non-empty peer list) and the shared wire object, which must
  // outlive this call, shared by every queued delivery.
  auto pcb = std::make_shared<const Pcb>(
      config_.compute_crypto
          ? stored.pcb->extend_signed(self_id_, in_if, out_if, peer_entries(),
                                      signing_key_, forwarding_key_,
                                      ingress_latency_us)
          : stored.pcb->extend_unsigned(self_id_, in_if, out_if,
                                        peer_entries(), ingress_latency_us));
  ++stats_.pcbs_sent;
  stats_.bytes_sent += pcb->wire_size();
  SCION_METRIC_COUNT("beacon.pcbs_sent", 1);
  SCION_METRIC_OBSERVE("beacon.pcb_wire_bytes", pcb->wire_size().value());
  // Trace fields are lazy: to_string runs only with a sink installed and
  // the category enabled, never in measured runs.
  SCION_TRACE(obs::Category::kBeacon, now, "propagate",
              {"as", self_id_.to_string()},
              {"origin", stored.pcb->origin().to_string()},
              {"hops", pcb->hops()}, {"egress_if", out_if});
  send_(egress, pcb);
}

void BeaconServer::propagate(TimePoint now) {
  const TimePoint t = now;
  const std::vector<topo::IsdAsId> origins = store_.origins();
  for (const NeighborGroup& group : propagation_groups_) {
    for (const topo::IsdAsId origin : origins) {
      if (origin == group.neighbor_id) continue;  // one-link loop
      const std::vector<StoredPcb>& bucket = store_.for_origin(origin);
      if (bucket.empty()) continue;
      if (diversity_) {
        const std::vector<Candidate> selected = diversity_->select_and_commit(
            bucket, origin, group.neighbor_id, group.links,
            config_.dissemination_limit, t);
        for (const Candidate& c : selected) send_extended(*c.stored, c.egress, t);
      } else {
        // The baseline's top-k does not depend on the egress link: select
        // once per neighbor, then send it on each link in turn.
        const std::vector<Candidate> selected =
            baseline_select(bucket, group.neighbor_id, group.links.front(),
                            config_.dissemination_limit, t);
        for (topo::LinkIndex l : group.links) {
          for (const Candidate& c : selected) send_extended(*c.stored, l, t);
        }
      }
    }
  }
}

}  // namespace scion::ctrl
