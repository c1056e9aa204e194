#include "simnet/network.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace scion::sim {

NodeId Network::add_node() {
  nodes_.push_back(NodeState{Handler{}, true});
  return NodeId{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

void Network::set_handler(NodeId node, Handler handler) {
  SCION_CHECK(node.value() < nodes_.size(), "node id out of range");
  nodes_[node.value()].handler = std::move(handler);
}

ChannelId Network::add_channel(NodeId a, NodeId b, Duration latency) {
  SCION_CHECK(a.value() < nodes_.size() && b.value() < nodes_.size() && a != b,
              "channel endpoints must be distinct existing nodes");
  SCION_CHECK(latency >= Duration::zero(), "negative channel latency");
  channels_.push_back(
      ChannelState{a, b, latency, true, 0.0, Duration::zero(), {}, {}});
  return ChannelId{static_cast<std::uint32_t>(channels_.size() - 1)};
}

void Network::set_channel_up(ChannelId ch, bool up) {
  SCION_CHECK(ch.value() < channels_.size(), "channel id out of range");
  channels_[ch.value()].up = up;
}

bool Network::channel_up(ChannelId ch) const {
  SCION_CHECK(ch.value() < channels_.size(), "channel id out of range");
  return channels_[ch.value()].up;
}

void Network::set_node_up(NodeId node, bool up) {
  SCION_CHECK(node.value() < nodes_.size(), "node id out of range");
  nodes_[node.value()].up = up;
}

bool Network::node_up(NodeId node) const {
  SCION_CHECK(node.value() < nodes_.size(), "node id out of range");
  return nodes_[node.value()].up;
}

void Network::set_loss_probability(ChannelId ch, double p) {
  SCION_CHECK(ch.value() < channels_.size(), "channel id out of range");
  SCION_CHECK(p >= 0.0 && p <= 1.0, "loss probability out of [0,1]");
  channels_[ch.value()].loss_probability = p;
}

double Network::loss_probability(ChannelId ch) const {
  SCION_CHECK(ch.value() < channels_.size(), "channel id out of range");
  return channels_[ch.value()].loss_probability;
}

void Network::set_jitter(ChannelId ch, Duration max_jitter) {
  SCION_CHECK(ch.value() < channels_.size(), "channel id out of range");
  SCION_CHECK(max_jitter >= Duration::zero(), "negative jitter");
  channels_[ch.value()].jitter = max_jitter;
}

Duration Network::jitter(ChannelId ch) const {
  SCION_CHECK(ch.value() < channels_.size(), "channel id out of range");
  return channels_[ch.value()].jitter;
}

// Once per message sent plus once per message delivered (the lambda below):
// the busiest code in every simulation. The delivery closure must stay
// within the Simulator::Callback inline capacity and the payload within
// Payload's — both checked statically right here.
void Network::send(ChannelId ch, NodeId from, Bytes bytes,
                   Payload payload, obs::EventLabel label) {
  SCION_CHECK(ch.value() < channels_.size(), "channel id out of range");
  ChannelState& c = channels_[ch.value()];
  SCION_CHECK(from == c.a || from == c.b, "sender is not a channel endpoint");
  if (!c.up) {  // link failure: message lost at the source
    ++drops_.link_down;
    SCION_METRIC_COUNT("simnet.messages_dropped_link_down", 1);
    return;
  }
  if (!nodes_[from.value()].up) {  // sender AS is down: nothing leaves it
    ++drops_.node_down;
    SCION_METRIC_COUNT("simnet.messages_dropped_node_down", 1);
    return;
  }
  if (c.loss_probability > 0.0) {
    SCION_CHECK(fault_rng_ != nullptr, "loss configured without a fault rng");
    if (fault_rng_->bernoulli(c.loss_probability)) {
      ++drops_.loss;
      SCION_METRIC_COUNT("simnet.messages_dropped_loss", 1);
      SCION_TRACE(obs::Category::kSimnet, sim_.now(), "drop_loss",
                  {"channel", ch}, {"from", from}, {"bytes", bytes});
      return;
    }
  }
  const NodeId to = (from == c.a) ? c.b : c.a;
  DirectionStats& dir = (from == c.a) ? c.a_to_b : c.b_to_a;
  ++dir.messages;
  dir.bytes += bytes;
  SCION_METRIC_COUNT("simnet.messages_sent", 1);
  SCION_METRIC_COUNT("simnet.bytes_sent", bytes.value());
  SCION_METRIC_OBSERVE("simnet.message_bytes", bytes.value());
  Duration delay = c.latency;
  if (c.jitter > Duration::zero()) {
    SCION_CHECK(fault_rng_ != nullptr, "jitter configured without a fault rng");
    delay = delay + Duration::nanoseconds(
                        fault_rng_->uniform_int(0, c.jitter.ns()));
  }
  auto deliver = [this, msg = Message{from, to, ch, bytes,
                                      std::move(payload)}]() mutable {
    // Drop-at-delivery: the transmission already happened (bytes are
    // counted), but the message is lost if the channel went down while
    // it was in flight or the destination node is down on arrival.
    if (!channels_[msg.channel.value()].up) {
      ++drops_.in_flight;
      SCION_METRIC_COUNT("simnet.messages_dropped_in_flight", 1);
      SCION_TRACE(obs::Category::kSimnet, sim_.now(), "drop_in_flight",
                  {"channel", msg.channel}, {"to", msg.to},
                  {"bytes", msg.bytes});
      return;
    }
    if (!nodes_[msg.to.value()].up) {
      ++drops_.node_down;
      SCION_METRIC_COUNT("simnet.messages_dropped_node_down", 1);
      SCION_TRACE(obs::Category::kSimnet, sim_.now(), "drop_node_down",
                  {"channel", msg.channel}, {"to", msg.to},
                  {"bytes", msg.bytes});
      return;
    }
    const Handler& h = nodes_[msg.to.value()].handler;
    if (h) h(msg);
  };
  static_assert(Simulator::Callback::fits_inline<decltype(deliver)>(),
                "delivery closure must not allocate per message");
  sim_.schedule_after(delay, label, std::move(deliver));
}

NodeId Network::peer(ChannelId ch, NodeId self) const {
  SCION_CHECK(ch.value() < channels_.size(), "channel id out of range");
  const ChannelState& c = channels_[ch.value()];
  SCION_CHECK(self == c.a || self == c.b, "node is not a channel endpoint");
  return self == c.a ? c.b : c.a;
}

Duration Network::latency(ChannelId ch) const {
  SCION_CHECK(ch.value() < channels_.size(), "channel id out of range");
  return channels_[ch.value()].latency;
}

const DirectionStats& Network::stats_from(ChannelId ch, NodeId from) const {
  SCION_CHECK(ch.value() < channels_.size(), "channel id out of range");
  const ChannelState& c = channels_[ch.value()];
  SCION_CHECK(from == c.a || from == c.b, "sender is not a channel endpoint");
  return from == c.a ? c.a_to_b : c.b_to_a;
}

Bytes Network::total_bytes(ChannelId ch) const {
  SCION_CHECK(ch.value() < channels_.size(), "channel id out of range");
  return channels_[ch.value()].a_to_b.bytes + channels_[ch.value()].b_to_a.bytes;
}

Bytes Network::total_bytes_all() const {
  Bytes sum{};
  for (const auto& c : channels_) sum += c.a_to_b.bytes + c.b_to_a.bytes;
  return sum;
}

void Network::reset_stats() {
  for (auto& c : channels_) {
    c.a_to_b = DirectionStats{};
    c.b_to_a = DirectionStats{};
  }
  drops_ = DropStats{};
}

}  // namespace scion::sim
