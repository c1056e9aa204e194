#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "obs/alloc_track.hpp"
#include "simnet/network.hpp"
#include "simnet/simulator.hpp"
#include "util/rng.hpp"

namespace scion::sim {
namespace {

using util::Duration;
using util::TimePoint;

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_ns(30), [&] { order.push_back(3); });
  sim.schedule_at(TimePoint::from_ns(10), [&] { order.push_back(1); });
  sim.schedule_at(TimePoint::from_ns(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, SameTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(TimePoint::from_ns(100), [&, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator sim;
  TimePoint seen;
  sim.schedule_after(Duration::seconds(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, TimePoint::origin() + Duration::seconds(5));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::seconds(1), [&] {
    ++fired;
    sim.schedule_after(Duration::seconds(1), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::seconds(2));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::seconds(1), [&] { ++fired; });
  sim.schedule_after(Duration::seconds(10), [&] { ++fired; });
  sim.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::seconds(5));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator sim;
  int fired = 0;
  sim.schedule_periodic(TimePoint::origin() + Duration::seconds(1),
                        Duration::seconds(2), [&] { ++fired; });
  sim.run_until(TimePoint::origin() + Duration::seconds(10));
  // Fires at t = 1, 3, 5, 7, 9.
  EXPECT_EQ(fired, 5);
}

TEST(Simulator, PeriodicCancelStopsFutureFirings) {
  Simulator sim;
  int fired = 0;
  const TimerId id = sim.schedule_periodic(
      TimePoint::origin() + Duration::seconds(1), Duration::seconds(1),
      [&] { ++fired; });
  sim.schedule_at(TimePoint::origin() + Duration::milliseconds(3500),
                  [&] { sim.cancel_periodic(id); });
  sim.run_until(TimePoint::origin() + Duration::seconds(10));
  EXPECT_EQ(fired, 3);  // t = 1, 2, 3
}

TEST(Simulator, PeriodicSelfCancelLeavesNoTombstone) {
  // A timer that cancels its own id mid-callback must not re-arm: run()
  // drains at the cancellation tick instead of idling until the next period.
  Simulator sim;
  int fired = 0;
  TimerId id = kInvalidTimer;
  id = sim.schedule_periodic(TimePoint::origin() + Duration::seconds(1),
                             Duration::hours(24), [&] {
                               ++fired;
                               sim.cancel_periodic(id);
                             });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::seconds(1));
}

TEST(Simulator, PeriodicCallbackMayRegisterNewPeriodics) {
  // Registering from inside a firing callback grows `periodics_` while
  // fire_periodic holds a reference into it — the deque keeps it stable.
  Simulator sim;
  int outer = 0;
  int inner = 0;
  TimerId inner_id = kInvalidTimer;
  const TimerId outer_id = sim.schedule_periodic(
      TimePoint::origin() + Duration::seconds(1), Duration::seconds(1), [&] {
        ++outer;
        if (outer == 1) {
          inner_id = sim.schedule_periodic(
              TimePoint::origin() + Duration::milliseconds(1500),
              Duration::seconds(1), [&] { ++inner; });
        }
      });
  EXPECT_NE(outer_id, inner_id);
  sim.run_until(TimePoint::origin() + Duration::milliseconds(4800));
  EXPECT_EQ(outer, 4);  // t = 1, 2, 3, 4
  EXPECT_EQ(inner, 4);  // t = 1.5, 2.5, 3.5, 4.5
  EXPECT_NE(outer_id, inner_id);
  sim.cancel_periodic(inner_id);
  sim.cancel_periodic(outer_id);
  sim.run();
  EXPECT_EQ(outer, 4);
  EXPECT_EQ(inner, 4);
}

TEST(Simulator, SeededScheduleRunsInTimeThenScheduleOrder) {
  // Many events share a time, a third of them schedule a child 0-3 ns
  // later (0 = the current instant), and more arrive from outside between
  // run_until segments. Every event must run exactly once, at its time,
  // and the run order must be (time, order of the schedule call).
  Simulator sim;
  util::Rng rng{29};
  std::vector<std::int64_t> due;     // by schedule order
  std::vector<std::size_t> ran;      // schedule orders, as they ran
  std::function<void(std::int64_t)> schedule = [&](std::int64_t t) {
    const std::size_t order = due.size();
    due.push_back(t);
    sim.schedule_at(TimePoint::from_ns(t), [&, order] {
      EXPECT_EQ(sim.now().ns(), due[order]);
      ran.push_back(order);
      if (rng.index(3) == 0) schedule(sim.now().ns() + rng.uniform_int(0, 3));
    });
  };
  for (int i = 0; i < 3000; ++i) schedule(rng.uniform_int(0, 200));
  for (std::int64_t end = 20; end <= 300; end += 20) {
    sim.run_until(TimePoint::from_ns(end));
    EXPECT_EQ(sim.now().ns(), end);
    std::size_t due_by_end = 0;
    for (const std::int64_t t : due) due_by_end += t <= end ? 1 : 0;
    EXPECT_EQ(ran.size(), due_by_end) << "segment ending at " << end;
    for (int i = 0; i < 50; ++i) schedule(end + rng.uniform_int(0, 30));
  }
  sim.run();

  std::vector<std::size_t> expected(due.size());
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::size_t a, std::size_t b) { return due[a] < due[b]; });
  EXPECT_EQ(ran, expected);
  EXPECT_EQ(sim.events_processed(), due.size());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, WarmQueueSchedulesAndRunsWithoutAllocating) {
  Simulator sim;
  std::uint64_t sum = 0;
  const auto round = [&] {
    const TimePoint t0 = sim.now();
    for (std::int64_t i = 0; i < 10'000; ++i) {
      // A scrambled order, so pushes do not arrive pre-sorted.
      sim.schedule_at(t0 + Duration::nanoseconds(1 + (i * 7919) % 10'000),
                      [&sum, i] { sum += static_cast<std::uint64_t>(i); });
    }
    sim.run();
  };
  round();  // grows the heap, the callback slots and the free list
  const std::uint64_t allocs0 = obs::thread_allocs();
  round();
  EXPECT_EQ(obs::thread_allocs() - allocs0, 0u);
  EXPECT_EQ(sim.events_processed(), 20'000u);
  EXPECT_EQ(sum, 2u * (10'000u * 9'999u / 2));
}

TEST(Network, DeliversAfterLatency) {
  Simulator sim;
  Network net{sim};
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const ChannelId ch = net.add_channel(a, b, Duration::milliseconds(10));

  TimePoint delivered;
  std::string payload;
  net.set_handler(b, [&](const Message& msg) {
    delivered = sim.now();
    payload = msg.payload.get<std::string>();
    EXPECT_EQ(msg.from, a);
    EXPECT_EQ(msg.to, b);
    EXPECT_EQ(msg.channel, ch);
    EXPECT_EQ(msg.bytes, Bytes{100});
  });
  net.send(ch, a, Bytes{100}, std::string{"hello"});
  sim.run();
  EXPECT_EQ(delivered, TimePoint::origin() + Duration::milliseconds(10));
  EXPECT_EQ(payload, "hello");
}

TEST(Network, CountsBytesPerDirection) {
  Simulator sim;
  Network net{sim};
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const ChannelId ch = net.add_channel(a, b, Duration::milliseconds(1));
  net.send(ch, a, Bytes{100}, 0);
  net.send(ch, a, Bytes{50}, 0);
  net.send(ch, b, Bytes{7}, 0);
  sim.run();
  EXPECT_EQ(net.stats_from(ch, a).bytes, Bytes{150});
  EXPECT_EQ(net.stats_from(ch, a).messages, 2u);
  EXPECT_EQ(net.stats_from(ch, b).bytes, Bytes{7});
  EXPECT_EQ(net.total_bytes(ch), Bytes{157});
  EXPECT_EQ(net.total_bytes_all(), Bytes{157});
  net.reset_stats();
  EXPECT_EQ(net.total_bytes_all(), Bytes::zero());
}

TEST(Network, DownChannelDropsSilently) {
  Simulator sim;
  Network net{sim};
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const ChannelId ch = net.add_channel(a, b, Duration::milliseconds(1));
  int received = 0;
  net.set_handler(b, [&](const Message&) { ++received; });

  net.set_channel_up(ch, false);
  net.send(ch, a, Bytes{10}, 0);
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.total_bytes(ch), Bytes::zero()) << "down links carry no bytes";

  net.set_channel_up(ch, true);
  net.send(ch, a, Bytes{10}, 0);
  sim.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, MessageInFlightDroppedIfChannelFails) {
  Simulator sim;
  Network net{sim};
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const ChannelId ch = net.add_channel(a, b, Duration::milliseconds(10));
  int received = 0;
  net.set_handler(b, [&](const Message&) { ++received; });
  net.send(ch, a, Bytes{10}, 0);
  sim.schedule_after(Duration::milliseconds(5),
                     [&] { net.set_channel_up(ch, false); });
  sim.run();
  EXPECT_EQ(received, 0);
  // Drop-at-delivery: the transmission happened, so bytes stay counted,
  // but the loss is accounted as an in-flight drop.
  EXPECT_EQ(net.stats_from(ch, a).bytes, Bytes{10});
  EXPECT_EQ(net.drop_stats().in_flight, 1u);
  EXPECT_EQ(net.drop_stats().total(), 1u);
}

TEST(Network, DownChannelDropCounted) {
  Simulator sim;
  Network net{sim};
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const ChannelId ch = net.add_channel(a, b, Duration::milliseconds(1));
  net.set_channel_up(ch, false);
  net.send(ch, a, Bytes{10}, 0);
  sim.run();
  EXPECT_EQ(net.drop_stats().link_down, 1u);
  net.reset_stats();
  EXPECT_EQ(net.drop_stats().total(), 0u);
}

TEST(Network, NodeDownSuppressesBothDirections) {
  Simulator sim;
  Network net{sim};
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const ChannelId ch = net.add_channel(a, b, Duration::milliseconds(1));
  int received_a = 0, received_b = 0;
  net.set_handler(a, [&](const Message&) { ++received_a; });
  net.set_handler(b, [&](const Message&) { ++received_b; });

  EXPECT_TRUE(net.node_up(b));
  net.set_node_up(b, false);
  net.send(ch, a, Bytes{10}, 0);  // dropped at delivery: destination is down
  net.send(ch, b, Bytes{10}, 0);  // dropped at source: sender is down
  sim.run();
  EXPECT_EQ(received_a, 0);
  EXPECT_EQ(received_b, 0);
  EXPECT_EQ(net.drop_stats().node_down, 2u);

  net.set_node_up(b, true);
  net.send(ch, a, Bytes{10}, 0);
  net.send(ch, b, Bytes{10}, 0);
  sim.run();
  EXPECT_EQ(received_a, 1);
  EXPECT_EQ(received_b, 1);
}

TEST(Network, NodeDownWhileMessageInFlight) {
  Simulator sim;
  Network net{sim};
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const ChannelId ch = net.add_channel(a, b, Duration::milliseconds(10));
  int received = 0;
  net.set_handler(b, [&](const Message&) { ++received; });
  net.send(ch, a, Bytes{10}, 0);
  sim.schedule_after(Duration::milliseconds(5),
                     [&] { net.set_node_up(b, false); });
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.drop_stats().node_down, 1u);
}

TEST(Network, LossProbabilityExtremes) {
  Simulator sim;
  Network net{sim};
  util::Rng rng{7};
  net.set_fault_rng(&rng);
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const ChannelId ch = net.add_channel(a, b, Duration::milliseconds(1));
  int received = 0;
  net.set_handler(b, [&](const Message&) { ++received; });

  net.set_loss_probability(ch, 1.0);
  EXPECT_EQ(net.loss_probability(ch), 1.0);
  for (int i = 0; i < 20; ++i) net.send(ch, a, Bytes{10}, 0);
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.drop_stats().loss, 20u);
  EXPECT_EQ(net.total_bytes(ch), Bytes::zero()) << "lost messages never enter the wire";

  net.set_loss_probability(ch, 0.0);
  for (int i = 0; i < 20; ++i) net.send(ch, a, Bytes{10}, 0);
  sim.run();
  EXPECT_EQ(received, 20);
  EXPECT_EQ(net.drop_stats().loss, 20u);
}

TEST(Network, LossProbabilityIsStatistical) {
  Simulator sim;
  Network net{sim};
  util::Rng rng{11};
  net.set_fault_rng(&rng);
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const ChannelId ch = net.add_channel(a, b, Duration::milliseconds(1));
  int received = 0;
  net.set_handler(b, [&](const Message&) { ++received; });
  net.set_loss_probability(ch, 0.5);
  const int n = 1000;
  for (int i = 0; i < n; ++i) net.send(ch, a, Bytes{1}, 0);
  sim.run();
  EXPECT_GT(received, 400);
  EXPECT_LT(received, 600);
  EXPECT_EQ(net.drop_stats().loss, static_cast<std::uint64_t>(n - received));
}

TEST(Network, JitterStaysWithinBounds) {
  Simulator sim;
  Network net{sim};
  util::Rng rng{13};
  net.set_fault_rng(&rng);
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const Duration latency = Duration::milliseconds(10);
  const Duration max_jitter = Duration::milliseconds(5);
  const ChannelId ch = net.add_channel(a, b, latency);
  net.set_jitter(ch, max_jitter);
  EXPECT_EQ(net.jitter(ch), max_jitter);

  std::vector<Duration> delays;
  net.set_handler(b, [&](const Message&) {
    delays.push_back(sim.now() - TimePoint::origin());
  });
  const int n = 50;
  for (int i = 0; i < n; ++i) net.send(ch, a, Bytes{1}, 0);
  sim.run();
  ASSERT_EQ(delays.size(), static_cast<std::size_t>(n));
  bool any_jittered = false;
  for (const Duration d : delays) {
    EXPECT_GE(d.ns(), latency.ns());
    EXPECT_LE(d.ns(), (latency + max_jitter).ns());
    if (d != latency) any_jittered = true;
  }
  EXPECT_TRUE(any_jittered) << "50 draws should not all be zero jitter";
}

TEST(Network, ParallelChannelsBetweenSamePair) {
  Simulator sim;
  Network net{sim};
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const ChannelId ch1 = net.add_channel(a, b, Duration::milliseconds(1));
  const ChannelId ch2 = net.add_channel(a, b, Duration::milliseconds(2));
  EXPECT_NE(ch1, ch2);
  int received = 0;
  net.set_handler(b, [&](const Message&) { ++received; });
  net.send(ch1, a, Bytes{1}, 0);
  net.send(ch2, a, Bytes{1}, 0);
  sim.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(net.peer(ch1, a), b);
  EXPECT_EQ(net.peer(ch2, b), a);
}

}  // namespace
}  // namespace scion::sim
