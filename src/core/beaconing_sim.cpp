#include "core/beaconing_sim.hpp"

#include <iterator>

#include "obs/event_profile.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"


#include "crypto/signature.hpp"

namespace scion::ctrl {

namespace {

/// One key store shared by all servers of a simulation (stands in for the
/// ISD trust infrastructure).
constexpr std::uint64_t kKeyDomainSeed = crypto::kDefaultKeyDomainSeed;

// Event-cost attribution labels (interned once at static init; see
// DESIGN.md's event-labeling recipe).
const obs::EventLabel kPropagateLabel = obs::event_label("beacon.propagate");
const obs::EventLabel kIntervalLabel = obs::event_label("beacon.interval");
const obs::EventLabel kReoriginLabel = obs::event_label("beacon.reorigin");

/// Folded into the sim seed for the reorigination jitter streams, so they
/// are decorrelated from every other use of the seed without consuming the
/// constructor RNG (which would shift all existing baselines).
constexpr std::uint64_t kReoriginSeedMix = 0xB5297A4D3C5B9BD5ULL;

}  // namespace

BeaconingSim::BeaconingSim(const topo::Topology& topology,
                           BeaconingSimConfig config)
    : topology_{topology}, config_{config}, net_{sim_} {
  util::Rng rng{config_.seed};

  // Nodes and channels. Nodes are created in AS-index order and channels in
  // link order, so node_of()/channel_of() are identity mappings; the asserts
  // below pin that invariant.
  for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
    const sim::NodeId node = net_.add_node();
    SCION_CHECK(node == node_of(i), "node ids must mirror AS indices");
    (void)node;
  }
  for (topo::LinkIndex l = 0; l < topology_.link_count(); ++l) {
    const topo::Link& link = topology_.link(l);
    const auto latency = util::Duration::nanoseconds(rng.uniform_int(
        config_.min_latency.ns(), config_.max_latency.ns()));
    const sim::ChannelId ch =
        net_.add_channel(node_of(link.a), node_of(link.b), latency);
    SCION_CHECK(ch == channel_of(l), "channel ids must mirror link indices");
    (void)ch;
  }

  // Servers. The key store must outlive the servers; keep it static per
  // simulation via a shared_ptr captured by the send lambdas' owner.
  keys_ = std::make_unique<crypto::KeyStore>(kKeyDomainSeed);
  BeaconServerConfig server_config = config_.server;
  if (!server_config.schedule) {
    server_config.schedule = [this](util::Duration delay,
                                    std::function<void(TimePoint)> fn) {
      sim_.schedule_after(delay, kReoriginLabel,
                          [this, fn = std::move(fn)] { fn(sim_.now()); });
    };
  }
  if (server_config.backoff_seed == 0) {
    server_config.backoff_seed = config_.seed ^ kReoriginSeedMix;
  }
  if (server_config.include_latency_metadata && !server_config.link_latency_us) {
    // Each AS "measures" its links: expose the simulated channel latency.
    server_config.link_latency_us = [this](topo::LinkIndex l) {
      return static_cast<std::uint32_t>(net_.latency(channel_of(l)).ns() / 1000);
    };
  }
  servers_.reserve(topology_.as_count());
  for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
    auto send = [this, i](topo::LinkIndex egress, const PcbRef& pcb) {
      net_.send(channel_of(egress), node_of(i), pcb->wire_size(), pcb,
                kPropagateLabel);
    };
    servers_.push_back(std::make_unique<BeaconServer>(
        topology_, i, server_config, *keys_, kKeyDomainSeed, std::move(send)));
  }

  // Delivery: the channel id is the ingress link.
  for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
    net_.set_handler(node_of(i), [this, i](const sim::Message& msg) {
      const PcbRef& pcb = msg.payload.get<PcbRef>();
      servers_[i]->handle_pcb(pcb, link_of(msg.channel), sim_.now());
    });
  }

  // Periodic intervals with deterministic per-AS phase offsets, so the
  // network does not beacon in lock-step.
  for (topo::AsIndex i = 0; i < topology_.as_count(); ++i) {
    const auto offset = util::Duration::nanoseconds(
        rng.uniform_int(0, config_.server.interval.ns() - 1));
    sim_.schedule_periodic(
        util::TimePoint::origin() + offset, config_.server.interval,
        kIntervalLabel, [this, i] { servers_[i]->on_interval(sim_.now()); });
  }

  // Fault scenario: a downed link stops carrying PCBs (the network drops
  // them) and both endpoint ASes evict every stored PCB that traverses it,
  // standing in for the SCMP revocation flood of Section 2.2.
  if (!config_.faults.empty()) {
    faults::FaultInjector::Hooks hooks;
    hooks.on_link_down = [this](topo::LinkIndex l) {
      const topo::Link& link = topology_.link(l);
      servers_[link.a]->on_link_down(l, sim_.now());
      servers_[link.b]->on_link_down(l, sim_.now());
    };
    hooks.on_link_up = [this](topo::LinkIndex l) {
      const topo::Link& link = topology_.link(l);
      servers_[link.a]->on_link_up(l, sim_.now());
      servers_[link.b]->on_link_up(l, sim_.now());
    };
    injector_ = std::make_unique<faults::FaultInjector>(
        net_, config_.faults, &topology_, std::move(hooks));
  }
}

void BeaconingSim::run() {
  SCION_CHECK(!ran_, "run() is single-shot");
  ran_ = true;
  if (config_.warmup > util::Duration::zero()) {
    sim_.run_until(util::TimePoint::origin() + config_.warmup);
    net_.reset_stats();
    for (const auto& server : servers_) server->reset_stats();
  }
  const util::TimePoint end =
      util::TimePoint::origin() + config_.warmup + config_.sim_duration;
  if (injector_) injector_->arm(end);
  sim_.run_until(end);
  SCION_METRIC_GAUGE_MAX("beacon.total_pcbs_sent", total_pcbs_sent());
}

std::vector<InterfaceUsage> BeaconingSim::interface_usage() const {
  std::vector<InterfaceUsage> out;
  out.reserve(2 * topology_.link_count());
  for (topo::LinkIndex l = 0; l < topology_.link_count(); ++l) {
    const topo::Link& link = topology_.link(l);
    for (const topo::AsIndex from : {link.a, link.b}) {
      const sim::DirectionStats& s = net_.stats_from(channel_of(l), node_of(from));
      out.push_back(InterfaceUsage{l, from, s.messages, s.bytes});
    }
  }
  return out;
}

std::uint64_t BeaconingSim::total_pcbs_sent() const {
  std::uint64_t n = 0;
  for (const auto& s : servers_) n += s->stats().pcbs_sent;
  return n;
}

BeaconServerStats BeaconingSim::aggregate_stats() const {
  BeaconServerStats agg;
  for (const auto& s : servers_) {
    const BeaconServerStats& st = s->stats();
    agg.pcbs_received += st.pcbs_received;
    agg.bytes_received += st.bytes_received;
    agg.pcbs_sent += st.pcbs_sent;
    agg.bytes_sent += st.bytes_sent;
    agg.pcbs_originated += st.pcbs_originated;
    agg.loops_dropped += st.loops_dropped;
    agg.verify_failures += st.verify_failures;
    agg.resolve_failures += st.resolve_failures;
    agg.store_rejected += st.store_rejected;
    agg.pcbs_revoked += st.pcbs_revoked;
    agg.pcbs_quarantined += st.pcbs_quarantined;
    agg.pcbs_revalidated += st.pcbs_revalidated;
    agg.pcbs_stale_expired += st.pcbs_stale_expired;
    agg.reoriginations += st.reoriginations;
  }
  return agg;
}

std::vector<std::vector<topo::LinkIndex>> BeaconingSim::paths_at(
    topo::AsIndex at, topo::IsdAsId origin) const {
  std::vector<std::vector<topo::LinkIndex>> out;
  for (const StoredPcb& s : servers_[at]->store().for_origin(origin)) {
    if (s.stale()) continue;  // quarantined: not a usable path right now
    out.push_back(s.links);
  }
  return out;
}

std::vector<std::vector<topo::LinkIndex>> BeaconingSim::paths_between(
    topo::AsIndex a, topo::AsIndex b) const {
  std::vector<std::vector<topo::LinkIndex>> out =
      paths_at(a, topology_.as_id(b));
  std::vector<std::vector<topo::LinkIndex>> reverse =
      paths_at(b, topology_.as_id(a));
  out.insert(out.end(), std::make_move_iterator(reverse.begin()),
             std::make_move_iterator(reverse.end()));
  return out;
}

}  // namespace scion::ctrl
