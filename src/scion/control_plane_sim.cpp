#include "scion/control_plane_sim.hpp"

#include "obs/event_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

#include <algorithm>

namespace scion::svc {

namespace {

constexpr std::uint64_t kKeyDomain = crypto::kDefaultKeyDomainSeed;

/// Decorrelates the injector's RNG stream from the simulation's own when
/// both derive from the same config seed.
constexpr std::uint64_t kFaultSeedMix = 0x9E3779B97F4A7C15ULL;

// Event-cost attribution labels (interned once at static init).
const obs::EventLabel kPropagateLabel = obs::event_label("beacon.propagate");
const obs::EventLabel kIntervalLabel = obs::event_label("beacon.interval");
const obs::EventLabel kRegistrationLabel =
    obs::event_label("path.registration");
const obs::EventLabel kRegisterDownLabel =
    obs::event_label("path.register_down");
const obs::EventLabel kLookupLabel = obs::event_label("path.lookup");

/// Beaconing interval of both hierarchy levels (paper: 10 minutes); the
/// beacon servers' own PCB lifetime is BeaconServerConfig's 6 hours.
constexpr util::Duration kBeaconInterval = util::Duration::minutes(10);
/// Segments a leaf registers per origin core AS.
constexpr std::size_t kSegmentsPerRegistration = 5;
/// Lifetime of a path server's cached lookup result.
constexpr util::Duration kCacheTtl = util::Duration::minutes(30);

}  // namespace

ControlPlaneSim::ControlPlaneSim(const topo::Topology& topology,
                                 ControlPlaneSimConfig config)
    : topology_{topology}, config_{config}, net_{sim_}, rng_{config.seed} {
  keys_ = std::make_unique<crypto::KeyStore>(kKeyDomain);
  dataplane_ = std::make_unique<DataPlane>(topology_, kKeyDomain);

  // Nodes + channels (NodeId == AsIndex, ChannelId == LinkIndex by
  // construction; node_of()/channel_of() spell the mapping out).
  for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
    const sim::NodeId node = net_.add_node();
    SCION_CHECK(node == node_of(i), "node ids must mirror AS indices");
    (void)node;
  }
  for (topo::LinkIndex l = 0; l < topology_.link_count(); ++l) {
    const topo::Link& link = topology_.link(l);
    const auto latency =
        util::Duration::milliseconds(rng_.uniform_int(2, 30));
    const sim::ChannelId ch =
        net_.add_channel(node_of(link.a), node_of(link.b), latency);
    SCION_CHECK(ch == channel_of(l), "channel ids must mirror link indices");
    (void)ch;
  }

  // ISD structure. ISD numbers are 1-based; cores_by_isd_ is the dense
  // per-ISD index, so IsdId -> slot goes through isd_slot().
  topo::IsdId max_isd{};
  for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
    max_isd = std::max(max_isd, topology_.as_id(i).isd());
  }
  cores_by_isd_.resize(max_isd.value());
  for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
    if (topology_.is_core(i)) {
      cores_by_isd_[isd_slot(topology_.as_id(i).isd())].push_back(i);
    } else {
      leaves_.push_back(i);
    }
  }

  // Beacon servers: core-mode at core ASes, intra-mode everywhere (cores
  // originate towards customers, non-cores relay to theirs). PCB sends are
  // recorded in the ledger with the scope of the traversed link.
  ctrl::BeaconServerConfig base;
  base.dissemination_limit = ControlPlaneSimConfig::dissemination_limit;
  base.storage_limit = ControlPlaneSimConfig::storage_limit;
  base.algorithm = config_.algorithm;
  if (config_.algorithm == ctrl::AlgorithmKind::kDiversity) {
    base.store_policy = ctrl::StorePolicy::kDiversityAware;
  }

  core_servers_.resize(topology_.as_count());
  intra_servers_.resize(topology_.as_count());
  path_servers_.reserve(topology_.as_count());
  for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
    path_servers_.push_back(std::make_unique<PathServer>(
        std::max<std::size_t>(8, ControlPlaneSimConfig::storage_limit)));

    auto make_send = [this, i](const char* comp) {
      return [this, i, comp](topo::LinkIndex egress, const ctrl::PcbRef& pcb) {
        const topo::AsIndex to = topology_.neighbor(egress, i);
        // One beaconing *operation* per interval is recorded by the
        // periodic driver; individual PCBs only contribute bytes.
        ledger_.record(comp, scope_between(i, to), pcb->wire_size(),
                       /*counts_as_operation=*/false);
        net_.send(channel_of(egress), node_of(i), pcb->wire_size(), pcb,
                  kPropagateLabel);
      };
    };

    if (topology_.is_core(i)) {
      ctrl::BeaconServerConfig cfg = base;
      cfg.mode = ctrl::BeaconingMode::kCore;
      core_servers_[i] = std::make_unique<ctrl::BeaconServer>(
          topology_, i, cfg, *keys_, kKeyDomain,
          make_send(component::kCoreBeaconing));
    }
    ctrl::BeaconServerConfig cfg = base;
    cfg.mode = ctrl::BeaconingMode::kIntraIsd;
    cfg.include_peer_entries = true;
    intra_servers_[i] = std::make_unique<ctrl::BeaconServer>(
        topology_, i, cfg, *keys_, kKeyDomain,
        make_send(component::kIntraIsdBeaconing));
  }

  // PCB delivery: dispatch on the link type the beacon arrived over.
  for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
    net_.set_handler(node_of(i), [this, i](const sim::Message& msg) {
      const ctrl::PcbRef& pcb = msg.payload.get<ctrl::PcbRef>();
      const topo::LinkIndex link = link_of(msg.channel);
      if (topology_.link(link).type == topo::LinkType::kCore) {
        if (core_servers_[i]) core_servers_[i]->handle_pcb(pcb, link, sim_.now());
      } else {
        intra_servers_[i]->handle_pcb(pcb, link, sim_.now());
      }
    });
  }

  // Periodic drivers.
  for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
    const auto offset = util::Duration::nanoseconds(
        rng_.uniform_int(0, kBeaconInterval.ns() - 1));
    sim_.schedule_periodic(util::TimePoint::origin() + offset,
                           kBeaconInterval, kIntervalLabel, [this, i] {
                             if (core_servers_[i]) {
                               ledger_.record_operation(component::kCoreBeaconing);
                               core_servers_[i]->on_interval(sim_.now());
                             }
                             ledger_.record_operation(
                                 component::kIntraIsdBeaconing);
                             intra_servers_[i]->on_interval(sim_.now());
                           });
  }
  for (topo::AsIndex leaf : leaves_) {
    // First registration only after beaconing had a chance to reach the
    // leaf (one interval in).
    const auto offset =
        kBeaconInterval +
        util::Duration::nanoseconds(
            rng_.uniform_int(0, config_.registration_interval.ns() - 1));
    sim_.schedule_periodic(util::TimePoint::origin() + offset,
                           config_.registration_interval, kRegistrationLabel,
                           [this, leaf] { do_registration(leaf); });
  }

  // Fault injection. The legacy random link-failure knob becomes a flap
  // process in the plan; scheduled events/extra processes come from
  // config.faults. Both endpoint ASes of a downed link react (revocation
  // towards their ISD cores + beacon-store eviction).
  faults::FaultPlan plan = config_.faults;
  const bool legacy_only = config_.faults.empty();
  if (config_.link_failures_per_hour > 0.0) {
    faults::FlapProcess flap;
    flap.rate_per_hour = config_.link_failures_per_hour;
    flap.downtime_min = ControlPlaneSimConfig::failure_downtime;
    flap.downtime_max = ControlPlaneSimConfig::failure_downtime;
    flap.links = faults::LinkClass::kProviderCustomer;
    plan.flaps.push_back(flap);
  }
  if (legacy_only) plan.seed = config_.seed ^ kFaultSeedMix;
  faults::FaultInjector::Hooks hooks;
  hooks.on_link_down = [this](topo::LinkIndex l) { on_link_down(l); };
  injector_ = std::make_unique<faults::FaultInjector>(net_, std::move(plan),
                                                      &topology_,
                                                      std::move(hooks));
}

analysis::Scope ControlPlaneSim::scope_between(topo::AsIndex a,
                                               topo::AsIndex b) const {
  if (a == b) return analysis::Scope::kIntraAs;
  if (topology_.as_id(a).isd() == topology_.as_id(b).isd()) {
    return analysis::Scope::kIntraIsd;
  }
  return analysis::Scope::kGlobal;
}

void ControlPlaneSim::record_service_message(const char* comp,
                                             topo::AsIndex from,
                                             topo::AsIndex to,
                                             util::Bytes bytes) {
  ledger_.record(comp, scope_between(from, to), bytes);
}

void ControlPlaneSim::do_registration(topo::AsIndex leaf) {
  const util::TimePoint now = sim_.now();
  const crypto::SigningKey& sign_key =
      keys_->key_for(topology_.as_id(leaf).value());
  const crypto::ForwardingKey fwd_key =
      crypto::ForwardingKey::derive(topology_.as_id(leaf).value(), kKeyDomain);

  const ctrl::BeaconStore& store = intra_servers_[leaf]->store();
  for (const topo::IsdAsId origin : store.origins()) {
    const auto origin_idx = topology_.find(origin);
    if (!origin_idx) continue;
    // Take the best few stored PCBs (they are already policy-filtered).
    std::vector<SegmentRef> segments;
    for (const ctrl::StoredPcb& stored : store.for_origin(origin)) {
      if (stored.pcb->expired(now)) continue;
      segments.push_back(make_segment(topology_, stored, leaf, sign_key,
                                      fwd_key, /*include_peers=*/true));
      if (segments.size() >= kSegmentsPerRegistration) break;
    }
    if (segments.empty()) continue;

    // Each segment is the leaf's up-segment, kept local, and its
    // down-segment at the origin core's path server (intra-ISD unicast).
    for (const SegmentRef& seg : segments) {
      path_servers_[leaf]->register_up_segment(seg);
    }
    record_service_message(component::kRegistration, leaf, *origin_idx,
                           registration_bytes(segments));
    const topo::AsIndex origin_as = *origin_idx;
    sim_.schedule_after(util::Duration::milliseconds(10), kRegisterDownLabel,
                        [this, origin_as, segments = std::move(segments)] {
                          for (const SegmentRef& seg : segments) {
                            path_servers_[origin_as]->register_down_segment(seg);
                          }
                        });
  }
}

std::vector<SegmentRef> ControlPlaneSim::fetch_core_segments(
    topo::AsIndex src, topo::AsIndex via, topo::IsdId dst_isd) {
  const util::TimePoint now = sim_.now();
  PathServer& ps = *path_servers_[src];
  // Synthetic cache key for the (via core, destination ISD) pair.
  const auto cache_key = static_cast<topo::AsIndex>(
      via * (cores_by_isd_.size() + 1) + dst_isd.value());
  if (auto cached = ps.cache_get(cache_key, now)) return std::move(*cached);

  // Ask the core AS our up-segments terminate at for core segments towards
  // dst ISD's cores (a core-path segment lookup, intra-ISD scope).
  record_service_message(component::kCoreSegmentLookup, src, via,
                         kSegmentRequestBytes);

  std::vector<SegmentRef> result;
  if (const ctrl::BeaconServer* bs = core_servers_[via].get()) {
    const crypto::SigningKey& sign_key =
        keys_->key_for(topology_.as_id(via).value());
    const crypto::ForwardingKey fwd_key = crypto::ForwardingKey::derive(
        topology_.as_id(via).value(), kKeyDomain);
    for (const topo::AsIndex origin : cores_by_isd_[isd_slot(dst_isd)]) {
      if (origin == via) continue;
      // What the via served last for this origin, rebuilt from the current
      // bucket: a PCB still stored reuses its segment, a new one is
      // terminated once.
      std::vector<TerminatedPcb>& served =
          terminated_[std::uint64_t{via} << 32 | origin];
      const std::vector<ctrl::StoredPcb>& bucket =
          bs->store().for_origin(topology_.as_id(origin));
      std::vector<TerminatedPcb> serving;
      serving.reserve(bucket.size());
      for (const ctrl::StoredPcb& stored : bucket) {
        if (stored.pcb->expired(now)) continue;
        const auto hit = std::find_if(
            served.begin(), served.end(),
            [&stored](const TerminatedPcb& t) { return t.pcb == stored.pcb; });
        serving.push_back(TerminatedPcb{
            stored.pcb, hit != served.end()
                            ? hit->segment
                            : make_segment(topology_, stored, via, sign_key,
                                           fwd_key)});
        result.push_back(serving.back().segment);
        // Leaves only this origin's loop, so each further origin core
        // still adds segments; enforcing the cap would change the core
        // segment lookup bytes that Table 1 reports.
        if (result.size() >= 16) break;
      }
      served = std::move(serving);
    }
  }
  util::Bytes total_bytes{};
  for (const SegmentRef& s : result) total_bytes += s->wire_size();
  record_service_message(component::kCoreSegmentLookup, via, src,
                         segment_response_bytes(result.size(), total_bytes));
  ps.cache_put(cache_key, result, now, kCacheTtl);
  return result;
}

std::vector<SegmentRef> ControlPlaneSim::fetch_down_segments(
    topo::AsIndex src, topo::AsIndex dst) {
  const util::TimePoint now = sim_.now();
  PathServer& ps = *path_servers_[src];
  if (auto cached = ps.cache_get(dst, now)) return std::move(*cached);

  // Down-segments are stored at the path server of the core AS that
  // originated them; the lookup queries the destination ISD's core path
  // servers and aggregates (multi-path wants segments from every core).
  const topo::IsdId dst_isd = topology_.as_id(dst).isd();
  std::vector<SegmentRef> result;
  for (const topo::AsIndex responder : cores_by_isd_[isd_slot(dst_isd)]) {
    record_service_message(component::kDownSegmentLookup, src, responder,
                           kSegmentRequestBytes);
    std::vector<SegmentRef> fetched =
        path_servers_[responder]->down_segments(dst, now);
    util::Bytes total_bytes{};
    for (const SegmentRef& s : fetched) total_bytes += s->wire_size();
    record_service_message(component::kDownSegmentLookup, responder, src,
                           segment_response_bytes(fetched.size(), total_bytes));
    result.insert(result.end(), std::make_move_iterator(fetched.begin()),
                  std::make_move_iterator(fetched.end()));
  }
  ps.cache_put(dst, result, now, kCacheTtl);
  return result;
}

ControlPlaneSim::SegmentLookup ControlPlaneSim::lookup_segments(
    topo::AsIndex src, topo::AsIndex dst) {
  const util::TimePoint now = sim_.now();
  // Endpoint asks its local path server (intra-AS).
  record_service_message(component::kEndpointLookup, src, src,
                         kSegmentRequestBytes);

  SegmentLookup segments;
  segments.up = path_servers_[src]->up_segments(now);
  segments.down = fetch_down_segments(src, dst);

  // Core segments must terminate at a core our up-segments reach, so we
  // query each distinct up-segment origin core for segments towards the
  // destination ISD's cores.
  const topo::IsdId dst_isd = topology_.as_id(dst).isd();
  std::vector<topo::AsIndex> vias;
  if (topology_.is_core(src)) {
    // A core source (e.g. a carrier-grade SIG's AS) is its own "via": its
    // beacon server holds the core segments directly.
    vias.push_back(src);
  }
  for (const SegmentRef& u : segments.up) {
    const topo::AsIndex via = u->origin_as();
    if (std::find(vias.begin(), vias.end(), via) != vias.end()) continue;
    vias.push_back(via);
  }
  for (const topo::AsIndex via : vias) {
    std::vector<SegmentRef> fetched = fetch_core_segments(src, via, dst_isd);
    segments.core.insert(segments.core.end(),
                         std::make_move_iterator(fetched.begin()),
                         std::make_move_iterator(fetched.end()));
  }
  return segments;
}

std::vector<EndToEndPath> ControlPlaneSim::resolve_paths(topo::AsIndex src,
                                                         topo::AsIndex dst) {
  const SegmentLookup segments = lookup_segments(src, dst);
  std::vector<EndToEndPath> paths =
      combine_segments(topology_, src, dst, segments.up, segments.core,
                       segments.down);

  util::Bytes response_bytes{};
  for (const EndToEndPath& p : paths) response_bytes += packet_header_bytes(p);
  record_service_message(component::kEndpointLookup, src, src,
                         segment_response_bytes(paths.size(), response_bytes));
  paths_resolved_ += paths.size();
  SCION_METRIC_COUNT("scion.paths_resolved", paths.size());
  SCION_METRIC_OBSERVE("scion.paths_per_resolution", paths.size());
  return paths;
}

void ControlPlaneSim::do_lookup() {
  if (leaves_.size() < 2) return;
  ++lookups_performed_;
  SCION_METRIC_COUNT("scion.lookups_performed", 1);
  const topo::AsIndex src = leaves_[rng_.index(leaves_.size())];
  // Zipf-popular destinations (rank 1 = most popular), skipping src.
  topo::AsIndex dst = src;
  for (int attempt = 0; attempt < 8 && dst == src; ++attempt) {
    const std::uint64_t rank =
        rng_.zipf(leaves_.size(), config_.zipf_exponent);
    dst = leaves_[rank - 1];
  }
  if (dst == src) return;
  resolve_paths(src, dst);
}

void ControlPlaneSim::schedule_next_lookup() {
  if (config_.lookups_per_second <= 0.0) return;
  const auto gap = util::Duration::nanoseconds(static_cast<std::int64_t>(
      rng_.exponential(1.0 / config_.lookups_per_second) * 1e9));
  sim_.schedule_after(gap, kLookupLabel, [this] {
    do_lookup();
    schedule_next_lookup();
  });
}

void ControlPlaneSim::fail_link(topo::LinkIndex l, util::Duration downtime) {
  if (!injector_->link_up(l)) return;
  injector_->inject_link_down(l, downtime);
}

void ControlPlaneSim::on_link_down(topo::LinkIndex l) {
  const topo::Link& link = topology_.link(l);
  SCION_METRIC_COUNT("scion.link_failures", 1);
  SCION_TRACE(obs::Category::kScion, sim_.now(), "link_failure", {"link", l},
              {"a", topology_.as_id(link.a).to_string()},
              {"b", topology_.as_id(link.b).to_string()});

  // Both endpoint ASes see their interface go down. Each revokes affected
  // segments at the core path servers of *its* ISD (the ISDs differ for
  // cross-ISD links) and at its own path server, and evicts stored PCBs
  // traversing the link so they are neither registered nor re-propagated.
  for (const topo::AsIndex observer : {link.a, link.b}) {
    const topo::IsdId isd = topology_.as_id(observer).isd();
    for (const topo::AsIndex core : cores_by_isd_[isd_slot(isd)]) {
      record_service_message(component::kRevocation, observer, core,
                             Revocation::kWireBytes);
      path_servers_[core]->revoke_link(l);
    }
    path_servers_[observer]->revoke_link(l);
    if (core_servers_[observer]) {
      core_servers_[observer]->on_link_down(l, sim_.now());
    }
    intra_servers_[observer]->on_link_down(l, sim_.now());
  }
}

void ControlPlaneSim::run() {
  SCION_CHECK(!ran_, "run() is single-shot");
  ran_ = true;
  // Let beaconing populate stores before the workload starts.
  const util::Duration warmup = kBeaconInterval * 2;
  sim_.run_until(util::TimePoint::origin() + warmup);
  schedule_next_lookup();
  const util::TimePoint end =
      util::TimePoint::origin() + warmup + config_.sim_duration;
  injector_->arm(end);
  sim_.run_until(end);
}

}  // namespace scion::svc
