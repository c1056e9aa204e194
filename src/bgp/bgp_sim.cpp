#include "bgp/bgp_sim.hpp"

#include <algorithm>

#include "obs/event_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace scion::bgp {

namespace {

std::uint64_t pair_key(topo::AsIndex a, topo::AsIndex b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Decorrelates the injector's RNG stream from the simulation's own when
/// both derive from the same config seed.
constexpr std::uint64_t kFaultSeedMix = 0x9E3779B97F4A7C15ULL;

/// Per-UPDATE processing time of a speaker (Section 5.1).
constexpr util::Duration kProcessingDelay = util::Duration::milliseconds(5);
/// Downtime bounds of the legacy session-flap process.
constexpr util::Duration kFlapDowntimeMin = util::Duration::seconds(30);
constexpr util::Duration kFlapDowntimeMax = util::Duration::seconds(120);

// Event-cost attribution labels (interned once at static init).
const obs::EventLabel kUpdateDeliverLabel =
    obs::event_label("bgp.update.deliver");
const obs::EventLabel kUpdateProcessLabel =
    obs::event_label("bgp.update.process");
const obs::EventLabel kMraiTimerLabel = obs::event_label("bgp.timer.mrai");
const obs::EventLabel kDampingTimerLabel =
    obs::event_label("bgp.timer.damping");
const obs::EventLabel kGrStaleTimerLabel =
    obs::event_label("bgp.timer.gr_stale");
const obs::EventLabel kSessionRestartLabel =
    obs::event_label("bgp.session.restart");
const obs::EventLabel kOriginateLabel = obs::event_label("bgp.originate");

obs::EventLabel timer_label(TimerKind kind) {
  switch (kind) {
    case TimerKind::kMrai: return kMraiTimerLabel;
    case TimerKind::kDamping: return kDampingTimerLabel;
    case TimerKind::kGrStale: return kGrStaleTimerLabel;
  }
  return kMraiTimerLabel;
}

}  // namespace

BgpSim::BgpSim(const topo::Topology& topology, BgpSimConfig config)
    : topology_{topology}, config_{config}, net_{sim_}, rng_{config.seed} {
  const std::size_t as_count = topology_.as_count();
  // Nodes (NodeId == AsIndex by construction).
  for (topo::AsIndex i = 0; i < as_count; ++i) {
    const sim::NodeId node = net_.add_node();
    SCION_CHECK(node == node_of(i), "node ids must mirror AS indices");
    (void)node;
  }
  busy_until_.assign(as_count, util::TimePoint::origin());

  // One channel per distinct adjacency (a BGP session rides one session
  // regardless of how many parallel physical links the pair shares).
  link_channel_.reserve(topology_.link_count());
  for (topo::LinkIndex l = 0; l < topology_.link_count(); ++l) {
    const topo::Link& link = topology_.link(l);
    const auto [it, inserted] =
        channel_by_pair_.try_emplace(pair_key(link.a, link.b));
    if (inserted) {
      const auto latency = util::Duration::nanoseconds(rng_.uniform_int(
          config_.min_latency.ns(), config_.max_latency.ns()));
      it->second = net_.add_channel(node_of(link.a), node_of(link.b), latency);
      SCION_CHECK(it->second.value() == sessions_.size(),
                  "session channels must be numbered in creation order");
      sessions_.push_back(Session{std::min(link.a, link.b),
                                  std::max(link.a, link.b)});
    }
    link_channel_.push_back(it->second);
  }

  // The speakers' seeds come before the origin sample in the stream.
  std::vector<std::uint64_t> speaker_seeds(as_count);
  for (std::uint64_t& seed : speaker_seeds) seed = rng_();

  // Origins: all ASes, or a uniform sample for memory-bounded runs.
  std::vector<Prefix> origins(as_count);
  for (topo::AsIndex i = 0; i < as_count; ++i) origins[i] = i;
  if (config_.sampled_origins > 0 && config_.sampled_origins < as_count) {
    rng_.shuffle(origins);
    origins.resize(config_.sampled_origins);
    std::sort(origins.begin(), origins.end());
  }
  origins_ = OriginSlots{std::move(origins), as_count};

  // Speakers with their neighbor relationship tables; each session records
  // where its two ends keep each other.
  speakers_.reserve(as_count);
  first_neighbor_.reserve(as_count + 1);
  std::vector<bool> seen(as_count, false);
  for (topo::AsIndex i = 0; i < as_count; ++i) {
    first_neighbor_.push_back(neighbor_channel_.size());
    std::vector<Speaker::NeighborInfo> neighbors;
    for (topo::LinkIndex l : topology_.links_of(i)) {
      const topo::AsIndex n = topology_.neighbor(l, i);
      if (seen[n]) continue;
      seen[n] = true;
      const NeighborSlot slot{static_cast<std::uint32_t>(neighbors.size())};
      Session& session = sessions_[link_channel_[l].value()];
      (i == session.a ? session.b_at_a : session.a_at_b) = slot;
      neighbor_channel_.push_back(link_channel_[l]);
      neighbors.push_back(Speaker::NeighborInfo{n, classify(topology_, l, i)});
    }
    for (const Speaker::NeighborInfo& info : neighbors) seen[info.as] = false;
    // Takes the UPDATE by value: flush() moves it in, and the one
    // make_shared here is the message's single wire-side allocation —
    // everything downstream shares the BgpUpdateRef.
    auto send = [this, i](NeighborSlot to, BgpUpdateMsg msg) {
      const util::Bytes wire = update_wire_size(msg);
      net_.send(neighbor_channel_[first_neighbor_[i] + to.value()],
                node_of(i), wire,
                std::make_shared<const BgpUpdateMsg>(std::move(msg)),
                kUpdateDeliverLabel);
    };
    auto schedule = [this](util::Duration delay, TimerKind kind,
                           std::function<void()> fn) {
      sim_.schedule_after(delay, timer_label(kind), std::move(fn));
    };
    auto clock = [this] { return sim_.now(); };
    SpeakerOptions options;
    options.damping = config_.damping;
    options.graceful_restart = config_.graceful_restart;
    speakers_.push_back(std::make_unique<Speaker>(
        i, std::move(neighbors), origins_, options, std::move(send),
        std::move(schedule), std::move(clock), speaker_seeds[i]));
  }
  first_neighbor_.push_back(neighbor_channel_.size());

  // Delivery with per-speaker serial processing delay.
  for (topo::AsIndex i = 0; i < as_count; ++i) {
    net_.set_handler(node_of(i),
                     [this, i](const sim::Message& msg) { deliver(i, msg); });
  }

  // Fault injection. The legacy per-adjacency churn knob becomes a flap
  // process in the plan (aggregate rate preserved; the injector picks the
  // failed *link*, and the session reacts only when its shared channel
  // actually changes state, so parallel links keep the session alive).
  faults::FaultPlan plan = config_.faults;
  const bool legacy_only = config_.faults.empty();
  const double flap_rate_per_hour = config_.flaps_per_adjacency_per_day *
                                    static_cast<double>(sessions_.size()) /
                                    24.0;
  if (flap_rate_per_hour > 0.0) {
    faults::FlapProcess flap;
    flap.rate_per_hour = flap_rate_per_hour;
    flap.downtime_min = kFlapDowntimeMin;
    flap.downtime_max = kFlapDowntimeMax;
    plan.flaps.push_back(flap);
  }
  if (legacy_only) plan.seed = config_.seed ^ kFaultSeedMix;
  faults::FaultInjector::Hooks hooks;
  hooks.on_link_down = [this](topo::LinkIndex l) { on_link_down(l); };
  hooks.on_link_up = [this](topo::LinkIndex l) { on_link_up(l); };
  hooks.on_session_restart = [this](topo::LinkIndex l, util::Duration d) {
    on_session_restart(l, d);
  };
  hooks.channel_of_link = [this](topo::LinkIndex l) {
    return session_channel(l);
  };
  injector_ = std::make_unique<faults::FaultInjector>(net_, std::move(plan),
                                                      &topology_,
                                                      std::move(hooks));
}

// The session calls below keep the link's endpoint order (link.a first):
// each speaker's re-decisions schedule events, and their order is the
// event order.
void BgpSim::on_link_down(topo::LinkIndex l) {
  const topo::Link& link = topology_.link(l);
  const Session& s = session_of(l);
  // A parallel physical link may still carry the session; tear it down
  // only when the shared channel itself went dark.
  if (net_.channel_up(session_channel(l))) return;
  if (!speakers_[link.a]->session_is_up(s.slot_at(link.a))) return;
  SCION_METRIC_COUNT("bgp.session_flaps", 1);
  SCION_TRACE(obs::Category::kBgp, sim_.now(), "flap", {"a", link.a},
              {"b", link.b});
  speakers_[link.a]->session_down(s.slot_at(link.a));
  speakers_[link.b]->session_down(s.slot_at(link.b));
}

void BgpSim::on_link_up(topo::LinkIndex l) {
  const topo::Link& link = topology_.link(l);
  const Session& s = session_of(l);
  if (!net_.channel_up(session_channel(l))) return;
  if (speakers_[link.a]->session_is_up(s.slot_at(link.a))) return;
  speakers_[link.a]->session_up(s.slot_at(link.a));
  speakers_[link.b]->session_up(s.slot_at(link.b));
}

void BgpSim::on_session_restart(topo::LinkIndex l, util::Duration duration) {
  // The transport stays up; only the protocol session bounces (router /
  // process restart). With graceful restart the stale routes keep
  // forwarding across the gap — without it, the table drains and refills.
  const topo::Link& link = topology_.link(l);
  const Session& s = session_of(l);
  if (!speakers_[link.a]->session_is_up(s.slot_at(link.a))) {
    return;  // already down
  }
  SCION_METRIC_COUNT("bgp.session_restarts", 1);
  SCION_TRACE(obs::Category::kBgp, sim_.now(), "session_restart",
              {"a", link.a}, {"b", link.b}, {"duration_ns", duration.ns()});
  speakers_[link.a]->session_down(s.slot_at(link.a),
                                  /*forwarding_preserved=*/true);
  speakers_[link.b]->session_down(s.slot_at(link.b),
                                  /*forwarding_preserved=*/true);
  sim_.schedule_after(duration, kSessionRestartLabel, [this, l] {
    const topo::Link& link = topology_.link(l);
    const Session& s = session_of(l);
    // A physical outage may have started meanwhile; if so, on_link_up
    // restores the session when the channel itself comes back.
    if (!net_.channel_up(session_channel(l))) return;
    if (speakers_[link.a]->session_is_up(s.slot_at(link.a))) return;
    speakers_[link.a]->session_up(s.slot_at(link.a));
    speakers_[link.b]->session_up(s.slot_at(link.b));
  });
}

void BgpSim::add_monitor(topo::AsIndex as) {
  SCION_CHECK(!ran_, "monitors must be registered before run()");
  monitors_.try_emplace(as);
}

// Once per UPDATE on the wire. The deferred closure captures the shared
// BgpUpdateRef (a refcount bump, not a message copy) and must stay within
// the scheduler callback's inline capture budget.
void BgpSim::deliver(topo::AsIndex to, const sim::Message& msg) {
  // Serial processing: each update occupies the speaker for kProcessingDelay.
  const util::TimePoint start =
      std::max(sim_.now(), busy_until_[to]) + kProcessingDelay;
  busy_until_[to] = start;
  const BgpUpdateRef& update = msg.payload.get<BgpUpdateRef>();
  const topo::AsIndex from = as_of(msg.from);
  const NeighborSlot slot = sessions_[msg.channel.value()].slot_at(to);
  SCION_METRIC_OBSERVE("bgp.update_wire_bytes", update_wire_size(*update).value());
  sim_.schedule_at(start, kUpdateProcessLabel,
                   [this, to, from, slot, update] {
    SCION_TRACE(obs::Category::kBgp, sim_.now(), "update", {"to", to},
                {"from", from}, {"announced", update->announced.size()},
                {"withdrawn", update->withdrawn.size()});
    if (measuring_) {
      // Monitor accounting: a handful of registered monitors, only during
      // the measurement window.
      const auto it = monitors_.find(to);
      if (it != monitors_.end()) {
        ++it->second.raw_messages;
        it->second.raw_bytes += update_wire_size(*update).value();
        account(to, *update);
      }
    }
    speakers_[to]->handle_update(slot, *update);
  });
}

void BgpSim::account(topo::AsIndex monitor, const BgpUpdateMsg& msg) {
  MonitorAccount& acc = monitors_.at(monitor);
  const std::size_t events = msg.announced.size() + msg.withdrawn.size();
  if (events == 0) return;
  const std::size_t size = update_wire_size(msg).value();
  const double fixed_share =
      (static_cast<double>(size) -
       static_cast<double>(events) * kBgpPrefixBytes) /
      static_cast<double>(events);
  const std::size_t path_len = msg.path ? msg.path->size() : 0;
  for (Prefix p : msg.announced) {
    MonitorAccount::PerOrigin& o = acc.per_origin[p];
    ++o.announce_events;
    o.path_len_sum += path_len;
    o.fixed_share_sum += fixed_share;
  }
  for (Prefix p : msg.withdrawn) {
    MonitorAccount::PerOrigin& o = acc.per_origin[p];
    ++o.withdraw_events;
    o.fixed_share_sum += fixed_share;
  }
}

void BgpSim::run() {
  SCION_CHECK(!ran_, "BgpSim::run is single-shot");
  ran_ = true;

  // Cold start: every origin announces its prefix, staggered over a few
  // seconds the way real sessions come up.
  for (Prefix p : origins_.prefixes()) {
    const auto offset =
        util::Duration::milliseconds(rng_.uniform_int(0, 5000));
    sim_.schedule_after(offset, kOriginateLabel,
                        [this, p] { speakers_[p]->originate(p); });
  }
  sim_.run_until(util::TimePoint::origin() + config_.convergence_window);
  SCION_TRACE(obs::Category::kBgp, sim_.now(), "converged",
              {"updates_sent", total_updates_sent()},
              {"origins", origins_.size()});

  // Measurement window with churn.
  measuring_ = true;
  measure_start_ = sim_.now();
  net_.reset_stats();
  injector_->arm(measure_start_ + config_.churn_window);
  sim_.run_until(measure_start_ + config_.churn_window);
  measuring_ = false;
}

const MonitorAccount& BgpSim::monitor(topo::AsIndex as) const {
  return monitors_.at(as);
}

double BgpSim::accounting_scale() const {
  // Extrapolate the churn window to 30 days and the sampled origins to the
  // full origin population.
  const double to_month = (30.0 * 24.0) / config_.churn_window.as_hours();
  const double sample_scale =
      static_cast<double>(topology_.as_count()) /
      static_cast<double>(origins_.size());
  return to_month * sample_scale;
}

double BgpSim::monthly_bgp_bytes(
    topo::AsIndex monitor, const std::vector<std::uint32_t>& prefix_counts) const {
  const MonitorAccount& acc = monitors_.at(monitor);
  // Real-world model: an event touching an origin's pc prefixes costs
  // pc / kPrefixesPerRealUpdate updates, each carrying the fixed parts
  // (header + attributes, path-length dependent) plus its share of NLRI.
  const double fixed_base =
      static_cast<double>(bgp_update_size(0, 1, 0).value() - kBgpPrefixBytes);
  const double withdrawal_fixed =
      static_cast<double>(bgp_update_size(0, 0, 1).value() - kBgpPrefixBytes);
  double bytes = 0.0;
  for (const auto& [origin, o] : acc.per_origin) {
    const double pc = static_cast<double>(prefix_counts[origin]);
    const double announce_fixed =
        static_cast<double>(o.announce_events) * fixed_base +
        static_cast<double>(o.path_len_sum) * kBgpAsnBytes;
    const double withdraw_fixed =
        static_cast<double>(o.withdraw_events) * withdrawal_fixed;
    bytes += pc * ((announce_fixed + withdraw_fixed) / kPrefixesPerRealUpdate +
                   static_cast<double>(o.announce_events + o.withdraw_events) *
                       kBgpPrefixBytes);
  }
  return bytes * accounting_scale();
}

double BgpSim::monthly_bgpsec_bytes(
    topo::AsIndex monitor, const std::vector<std::uint32_t>& prefix_counts) const {
  const MonitorAccount& acc = monitors_.at(monitor);
  double bytes = 0.0;
  const double fixed =
      static_cast<double>(bgpsec_update_size(0).value());
  const double per_hop = static_cast<double>(
      kBgpsecSecurePathSegmentBytes + kBgpsecSignatureSegmentBytes);
  for (const auto& [origin, o] : acc.per_origin) {
    const double pc = static_cast<double>(prefix_counts[origin]);
    // BGPsec cannot aggregate: every prefix is its own signed update.
    bytes += pc * (static_cast<double>(o.announce_events) * fixed +
                   static_cast<double>(o.path_len_sum) * per_hop +
                   static_cast<double>(o.withdraw_events) *
                       static_cast<double>(bgpsec_withdrawal_size().value()));
  }
  return bytes * accounting_scale();
}

std::vector<std::vector<topo::LinkIndex>> BgpSim::bgp_link_paths(
    topo::AsIndex src, Prefix t) const {
  std::vector<std::vector<topo::LinkIndex>> out;
  for (const Speaker::Route& route : speakers_[src]->multipath(t)) {
    std::vector<topo::LinkIndex> links;
    topo::AsIndex prev = src;
    if (!route.path) continue;  // own prefix
    for (topo::AsIndex hop : *route.path) {
      // Multipath BGP may balance over all parallel links of each hop.
      for (topo::LinkIndex l : topology_.links_between(prev, hop)) {
        links.push_back(l);
      }
      prev = hop;
    }
    out.push_back(std::move(links));
  }
  return out;
}

bool BgpSim::has_live_route(topo::AsIndex src, Prefix t) const {
  for (const Speaker::Route& route : speakers_[src]->multipath(t)) {
    if (!route.path) return true;  // own prefix
    bool live = true;
    topo::AsIndex prev = src;
    for (topo::AsIndex hop : *route.path) {
      const auto it = channel_by_pair_.find(pair_key(prev, hop));
      if (it == channel_by_pair_.end() || !net_.channel_up(it->second)) {
        live = false;
        break;
      }
      prev = hop;
    }
    if (live) return true;
  }
  return false;
}

std::uint64_t BgpSim::total_updates_sent() const {
  std::uint64_t n = 0;
  for (const auto& s : speakers_) n += s->updates_sent();
  return n;
}

std::uint64_t BgpSim::total_routes_suppressed() const {
  std::uint64_t n = 0;
  for (const auto& s : speakers_) n += s->routes_suppressed();
  return n;
}

std::uint64_t BgpSim::total_routes_reused() const {
  std::uint64_t n = 0;
  for (const auto& s : speakers_) n += s->routes_reused();
  return n;
}

std::uint64_t BgpSim::total_stale_retained() const {
  std::uint64_t n = 0;
  for (const auto& s : speakers_) n += s->stale_retained();
  return n;
}

std::uint64_t BgpSim::total_stale_expired() const {
  std::uint64_t n = 0;
  for (const auto& s : speakers_) n += s->stale_expired();
  return n;
}

}  // namespace scion::bgp
