// Message-passing network on top of the Simulator.
//
// Nodes are opaque endpoints with a message handler; channels are
// bidirectional point-to-point links with a fixed propagation latency and
// per-direction byte/message counters. All control-plane overhead numbers in
// the evaluation come from these counters.
//
// Failure surface (driven by faults::FaultInjector, but usable directly):
// channels can be marked down, given a stochastic loss probability, or a
// latency jitter; nodes can be marked down, which suppresses their handler
// and drops their outbound sends. Every lost message is accounted in
// drop_stats() and in the simnet.* metrics.
//
// Drop-at-delivery semantics: send() decides up-front whether the message
// enters the wire (channel up, sender up, loss draw passed) — only then are
// the direction counters charged. A message already in flight is dropped
// *at delivery time* if the channel went down or the destination node went
// down while it was propagating; its bytes stay counted as sent (the
// transmission happened), and the drop is accounted separately.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "simnet/simulator.hpp"
#include "util/rng.hpp"
#include "util/small_any.hpp"
#include "util/types.hpp"

namespace scion::sim {

using util::Bytes;

/// Opaque endpoint handle. Strong: a node is not a channel, and neither is
/// a raw integer — handing one to an API expecting the other is a compile
/// error (pinned by tests/negative_compile/).
using NodeId = util::StrongId<struct NodeIdTag, std::uint32_t>;
using ChannelId = util::StrongId<struct ChannelIdTag, std::uint32_t>;

inline constexpr NodeId kInvalidNode{~std::uint32_t{0}};
inline constexpr ChannelId kInvalidChannel{~std::uint32_t{0}};

/// Typed protocol payload riding a Message. 16 bytes of inline storage fit
/// a shared_ptr (PcbRef, shared_ptr<const BgpUpdateMsg>) without the
/// per-send heap allocation std::any's pointer-sized buffer forces; larger
/// payloads fall back to the heap and show up in the allocation budgets.
using Payload = util::SmallAny<16>;

/// A message in flight. `bytes` is the wire size used for accounting;
/// `payload` carries the typed protocol message (move-only, so messages
/// hand their payload through the event queue without copies).
struct Message {
  NodeId from{kInvalidNode};
  NodeId to{kInvalidNode};
  ChannelId channel{kInvalidChannel};
  Bytes bytes{};
  Payload payload;
};

/// Byte/message counters for one direction of a channel.
struct DirectionStats {
  std::uint64_t messages{0};
  Bytes bytes{};
};

/// Network-wide message-loss accounting, one counter per drop cause.
struct DropStats {
  /// Dropped at send: the channel was down.
  std::uint64_t link_down{0};
  /// Dropped at send: the stochastic per-channel loss draw failed.
  std::uint64_t loss{0};
  /// Dropped at send or delivery: an endpoint node was down.
  std::uint64_t node_down{0};
  /// Dropped at delivery: the channel went down while the message was in
  /// flight.
  std::uint64_t in_flight{0};

  std::uint64_t total() const {
    return link_down + loss + node_down + in_flight;
  }
};

/// Nodes + channels + delivery. Owned by the experiment; borrows the
/// Simulator for scheduling.
class Network {
 public:
  using Handler = std::function<void(const Message&)>;

  explicit Network(Simulator& sim) : sim_{sim} {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Adds a node.
  NodeId add_node();

  /// Installs the receive handler for a node (replacing any previous one).
  void set_handler(NodeId node, Handler handler);

  /// Connects two distinct existing nodes. Multiple channels between the
  /// same node pair are allowed (parallel inter-AS links).
  ChannelId add_channel(NodeId a, NodeId b, Duration latency);

  /// Marks a channel up or down. Messages sent on a down channel are
  /// dropped (modelling a link failure); bytes are not counted. Messages
  /// already in flight when the channel goes down are dropped at delivery
  /// time (their bytes stay counted as sent).
  void set_channel_up(ChannelId ch, bool up);
  bool channel_up(ChannelId ch) const;

  /// Marks a node up or down. A down node's handler is suppressed (messages
  /// addressed to it are dropped at delivery) and its own sends are dropped
  /// at the source (an AS-outage model: the control service is dead in both
  /// directions).
  void set_node_up(NodeId node, bool up);
  bool node_up(NodeId node) const;

  /// Per-message loss probability on a channel (lossy but up link). Draws
  /// come from the fault RNG, which must be installed first.
  void set_loss_probability(ChannelId ch, double p);
  double loss_probability(ChannelId ch) const;

  /// Uniform per-message latency jitter in [0, max_jitter] added on top of
  /// the channel's propagation latency. Draws come from the fault RNG,
  /// which must be installed first.
  void set_jitter(ChannelId ch, Duration max_jitter);
  Duration jitter(ChannelId ch) const;

  /// Installs the RNG used for loss and jitter draws (borrowed; must
  /// outlive the network or be reset to nullptr). Keeping the stream
  /// injector-owned preserves same-seed reproducibility end to end.
  void set_fault_rng(util::Rng* rng) { fault_rng_ = rng; }

  /// Sends `bytes` of payload from `from` across `ch`; delivery is scheduled
  /// after the channel latency (plus jitter, if configured). `from` must be
  /// an endpoint of `ch`. The delivery event is attributed to `label` by the
  /// event profiler; the unlabeled form lands under the "(unlabeled)"
  /// default, like the unlabeled Simulator::schedule_* overloads.
  /// Simulation pipelines must pass their protocol's label: the attribution
  /// checks in tests/test_alloc_budget.cpp and tools/bench_diff fail on any
  /// unlabeled event.
  void send(ChannelId ch, NodeId from, Bytes bytes, Payload payload,
            obs::EventLabel label);
  void send(ChannelId ch, NodeId from, Bytes bytes, Payload payload) {
    send(ch, from, bytes, std::move(payload), obs::EventLabel{});
  }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t channel_count() const { return channels_.size(); }

  /// The other endpoint of a channel.
  NodeId peer(ChannelId ch, NodeId self) const;
  Duration latency(ChannelId ch) const;

  /// Counters for the direction out of `from` on `ch`.
  const DirectionStats& stats_from(ChannelId ch, NodeId from) const;

  /// Network-wide drop accounting by cause.
  const DropStats& drop_stats() const { return drops_; }

  /// Total bytes sent over `ch` in both directions.
  Bytes total_bytes(ChannelId ch) const;

  /// Sum of total_bytes over all channels.
  Bytes total_bytes_all() const;

  /// Resets all channel counters (e.g. to skip a warm-up phase). Drop
  /// counters are reset too.
  void reset_stats();

  Simulator& simulator() { return sim_; }

 private:
  struct NodeState {
    Handler handler;
    bool up{true};
  };
  struct ChannelState {
    NodeId a{kInvalidNode};
    NodeId b{kInvalidNode};
    Duration latency;
    bool up{true};
    double loss_probability{0.0};
    Duration jitter{Duration::zero()};
    DirectionStats a_to_b;
    DirectionStats b_to_a;
  };

  Simulator& sim_;
  std::vector<NodeState> nodes_;
  std::vector<ChannelState> channels_;
  util::Rng* fault_rng_{nullptr};
  DropStats drops_;
};

}  // namespace scion::sim
