// Telemetry layer tests: metrics registry semantics, JSONL trace
// round-trips and category filters, run-manifest completeness, the
// recording macros (including argument evaluation), phase
// profiling, and the shared result renderer.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/alloc_track.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/event_profile.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/parallel.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "simnet/network.hpp"
#include "simnet/simulator.hpp"
#include "util/flags.hpp"

namespace scion::obs {
namespace {

using util::TimePoint;

// --- JSON writer / parser ----------------------------------------------------

TEST(ObsJson, WriterProducesParseableDocument) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "a \"quoted\"\nstring");
  w.kv("count", std::uint64_t{42});
  w.kv("delta", std::int64_t{-7});
  w.kv("ratio", 0.5);
  w.kv("on", true);
  w.key("list").begin_array();
  w.value(1);
  w.value_null();
  w.end_array();
  w.end_object();

  std::string error;
  const auto doc = parse_json(std::move(w).take(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("name")->as_string(), "a \"quoted\"\nstring");
  EXPECT_EQ(doc->find("count")->as_number(), 42.0);
  EXPECT_EQ(doc->find("delta")->as_number(), -7.0);
  EXPECT_EQ(doc->find("ratio")->as_number(), 0.5);
  EXPECT_TRUE(doc->find("on")->as_bool());
  ASSERT_TRUE(doc->find("list")->is_array());
  EXPECT_EQ(doc->find("list")->as_array().size(), 2u);
  EXPECT_TRUE(doc->find("list")->as_array()[1].is_null());
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(ObsJson, ParserRejectsMalformedInput) {
  EXPECT_FALSE(parse_json("{\"a\": }").has_value());
  EXPECT_FALSE(parse_json("{\"a\": 1} trailing").has_value());
  EXPECT_FALSE(parse_json("").has_value());
}

// --- metrics registry --------------------------------------------------------

TEST(ObsMetrics, CounterGaugeHistogramSemantics) {
  Counter c;
  c.add(3);
  c.add(4);
  EXPECT_EQ(c.value(), 7u);

  Gauge g;
  g.set_max(10);
  g.set_max(5);
  EXPECT_EQ(g.value(), 10);
  g.set_max(12);
  EXPECT_EQ(g.value(), 12);

  Histogram h{{1.0, 10.0}};
  h.observe(0.5);   // bucket 0
  h.observe(10.0);  // <= 10: bucket 1
  h.observe(99.0);  // overflow
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 109.5);
}

TEST(ObsMetrics, RegistryFindsOrCreatesStableHandles) {
  MetricsRegistry registry;
  Counter& a = registry.counter("test.a");
  a.add(1);
  // Same name -> same handle; creating others must not invalidate it.
  for (int i = 0; i < 100; ++i) {
    registry.counter("test.fill" + std::to_string(i));
  }
  EXPECT_EQ(&registry.counter("test.a"), &a);
  EXPECT_EQ(a.value(), 1u);
}

TEST(ObsMetrics, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test.c");
  Gauge& g = registry.gauge("test.g");
  Histogram& h = registry.histogram("test.h");
  c.add(5);
  g.set_max(5);
  h.observe(5);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  // The handles are still the registered objects.
  EXPECT_EQ(&registry.counter("test.c"), &c);
  c.add(2);
  EXPECT_EQ(registry.counter("test.c").value(), 2u);
}

TEST(ObsMetrics, ToJsonRoundTrips) {
  MetricsRegistry registry;
  registry.counter("n.events").add(3);
  registry.gauge("n.depth").set_max(9);
  registry.histogram("n.sizes", {8.0, 64.0}).observe(100.0);

  std::string error;
  const auto doc = parse_json(registry.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("counters")->find("n.events")->as_number(), 3.0);
  EXPECT_EQ(doc->find("gauges")->find("n.depth")->as_number(), 9.0);
  const JsonValue* h = doc->find("histograms")->find("n.sizes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->as_number(), 1.0);
  EXPECT_EQ(h->find("bucket_counts")->as_array().back().as_number(), 1.0);
}

// --- recording macros --------------------------------------------------------

TEST(ObsMetrics, MacrosRecordIntoTheGlobalRegistry) {
  MetricsRegistry::global().reset();
  int evaluations = 0;
  const auto delta = [&] {
    ++evaluations;
    return 2;
  };
  SCION_METRIC_COUNT("test.macro_counter", delta());
  SCION_METRIC_GAUGE_MAX("test.macro_gauge", 11);
  SCION_METRIC_OBSERVE("test.macro_hist", 3.0);
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(MetricsRegistry::global().counter("test.macro_counter").value(),
            2u);
  EXPECT_EQ(MetricsRegistry::global().gauge("test.macro_gauge").value(), 11);
  EXPECT_EQ(MetricsRegistry::global().histogram("test.macro_hist").count(),
            1u);
  MetricsRegistry::global().reset();
}

void record_shard_gauge(std::int64_t v) {
  SCION_METRIC_GAUGE_MAX("test.shard_gauge", v);
}

TEST(ObsMetrics, TaskShardKeepsOneHighWaterMarkPerGauge) {
  MetricsRegistry::global().reset();
  record_shard_gauge(0);  // interns the gauge outside the measurement
  TaskCapture capture;
  capture.begin();
  const std::uint64_t allocs_before = thread_allocs();
  // 7919 is coprime to 10000: every value 0..9999 once, the max mid-run.
  for (std::int64_t i = 0; i < 10000; ++i) record_shard_gauge(i * 7919 % 10000);
  const std::uint64_t allocs = thread_allocs() - allocs_before;
  capture.end();
  EXPECT_LE(allocs, 1u);
  EXPECT_EQ(MetricsRegistry::global().gauge("test.shard_gauge").value(), 0);
  capture.merge();
  EXPECT_EQ(MetricsRegistry::global().gauge("test.shard_gauge").value(), 9999);
  MetricsRegistry::global().reset();
}

// --- tracing -----------------------------------------------------------------

TEST(ObsTrace, EventsRoundTripThroughJsonl) {
  std::ostringstream out;
  TraceSink sink{out};
  sink.event(TimePoint::origin() + util::Duration::seconds(2),
             Category::kBeacon, "originate",
             {{"as", "1-17"}, {"egress", 42u}, {"depth", -3}, {"ok", true},
              {"ratio", 0.25}});
  sink.event(TimePoint::origin(), Category::kBgp, "update", {});
  EXPECT_EQ(sink.events_written(), 2u);

  std::istringstream lines{out.str()};
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  std::string error;
  auto doc = parse_json(line, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("t")->as_number(), 2e9);
  EXPECT_EQ(doc->find("cat")->as_string(), "beacon");
  EXPECT_EQ(doc->find("ev")->as_string(), "originate");
  EXPECT_EQ(doc->find("as")->as_string(), "1-17");
  EXPECT_EQ(doc->find("egress")->as_number(), 42.0);
  EXPECT_EQ(doc->find("depth")->as_number(), -3.0);
  EXPECT_TRUE(doc->find("ok")->as_bool());
  EXPECT_EQ(doc->find("ratio")->as_number(), 0.25);

  ASSERT_TRUE(std::getline(lines, line));
  doc = parse_json(line, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("cat")->as_string(), "bgp");
  EXPECT_FALSE(std::getline(lines, line));  // exactly two lines
}

TEST(ObsTrace, CategoryFiltersDropDisabledEvents) {
  std::ostringstream out;
  TraceSink sink{out};
  ASSERT_TRUE(sink.set_filter("beacon,bgp"));
  EXPECT_TRUE(sink.enabled(Category::kBeacon));
  EXPECT_TRUE(sink.enabled(Category::kBgp));
  EXPECT_FALSE(sink.enabled(Category::kSimnet));
  sink.event(TimePoint::origin(), Category::kSimnet, "drop", {});
  EXPECT_EQ(sink.events_written(), 0u);
  EXPECT_TRUE(out.str().empty());
  sink.event(TimePoint::origin(), Category::kBeacon, "keep", {});
  EXPECT_EQ(sink.events_written(), 1u);
}

TEST(ObsTrace, FilterRejectsUnknownCategories) {
  std::ostringstream out;
  TraceSink sink{out};
  sink.disable_all();
  EXPECT_FALSE(sink.set_filter("beacon,nonsense"));
  // Unknown name changes nothing.
  EXPECT_FALSE(sink.enabled(Category::kBeacon));
  EXPECT_TRUE(sink.set_filter("all"));
  EXPECT_TRUE(sink.enabled(Category::kSig));
  EXPECT_TRUE(sink.set_filter(""));
  EXPECT_TRUE(sink.enabled(Category::kExperiment));
}

TEST(ObsTrace, CategoryNamesRoundTrip) {
  for (unsigned c = 0; c < static_cast<unsigned>(Category::kCount); ++c) {
    const auto category = static_cast<Category>(c);
    const auto parsed = category_from_string(to_string(category));
    ASSERT_TRUE(parsed.has_value()) << to_string(category);
    EXPECT_EQ(*parsed, category);
  }
  EXPECT_FALSE(category_from_string("bogus").has_value());
}

TEST(ObsTrace, EventCategoryFilterCombos) {
  std::ostringstream out;
  TraceSink sink{out};
  // The event category alone.
  ASSERT_TRUE(sink.set_filter("event"));
  EXPECT_TRUE(sink.enabled(Category::kEvent));
  EXPECT_FALSE(sink.enabled(Category::kBeacon));
  EXPECT_FALSE(sink.enabled(Category::kFault));
  // Combined with others.
  ASSERT_TRUE(sink.set_filter("event,fault,simnet"));
  EXPECT_TRUE(sink.enabled(Category::kEvent));
  EXPECT_TRUE(sink.enabled(Category::kFault));
  EXPECT_TRUE(sink.enabled(Category::kSimnet));
  EXPECT_FALSE(sink.enabled(Category::kBgp));
  // "all" must include the new category (kAllMask tracks kCount).
  ASSERT_TRUE(sink.set_filter("all"));
  EXPECT_TRUE(sink.enabled(Category::kEvent));
  // Filtered writes: only the enabled category lands in the stream.
  ASSERT_TRUE(sink.set_filter("event"));
  sink.event(TimePoint::origin(), Category::kBeacon, "dropped", {});
  sink.event(TimePoint::origin(), Category::kEvent, "kept", {});
  EXPECT_EQ(sink.events_written(), 1u);
  EXPECT_NE(out.str().find("\"cat\":\"event\""), std::string::npos);
  EXPECT_EQ(to_string(Category::kEvent), std::string{"event"});
  ASSERT_TRUE(category_from_string("event").has_value());
  EXPECT_EQ(*category_from_string("event"), Category::kEvent);
}

TEST(ObsTrace, MacroSkipsFieldEvaluationWhenOff) {
  set_trace_sink(nullptr);
  int evaluations = 0;
  const auto field_value = [&] {
    ++evaluations;
    return 1;
  };
  // No sink installed: fields must not be evaluated.
  SCION_TRACE(Category::kBeacon, TimePoint::origin(), "e",
              {"v", field_value()});
  EXPECT_EQ(evaluations, 0);

  std::ostringstream out;
  TraceSink sink{out};
  sink.set_filter("bgp");
  set_trace_sink(&sink);
  // Sink installed but category disabled: still not evaluated.
  SCION_TRACE(Category::kBeacon, TimePoint::origin(), "e",
              {"v", field_value()});
  EXPECT_EQ(evaluations, 0);
  SCION_TRACE(Category::kBgp, TimePoint::origin(), "e", {"v", field_value()});
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(sink.events_written(), 1u);
  set_trace_sink(nullptr);
}

// --- phase profiling ---------------------------------------------------------

TEST(ObsProfile, PhasesAccumulateAndStopIsIdempotent) {
  PhaseProfiler::global().reset();
  {
    ProfilePhase phase{"test.phase"};
    phase.stop();
    phase.stop();  // idempotent: records exactly once
  }                // destructor after stop(): still once
  { ProfilePhase phase{"test.phase"}; }
  const auto& phases = PhaseProfiler::global().phases();
  const auto it = phases.find("test.phase");
  ASSERT_NE(it, phases.end());
  EXPECT_EQ(it->second.calls, 2u);
  EXPECT_GE(it->second.wall_ns, 0);
  PhaseProfiler::global().reset();
}

TEST(ObsProfile, ToJsonParses) {
  PhaseProfiler profiler;
  profiler.record("alpha", 1500000000);
  profiler.record("alpha", 500000000);
  std::string error;
  const auto doc = parse_json(profiler.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_EQ(doc->as_array().size(), 1u);
  const JsonValue& p = doc->as_array()[0];
  EXPECT_EQ(p.find("phase")->as_string(), "alpha");
  EXPECT_EQ(p.find("calls")->as_number(), 2.0);
  EXPECT_EQ(p.find("wall_s")->as_number(), 2.0);
}

// --- run manifest ------------------------------------------------------------

TEST(ObsManifest, CaptureRecordsRunAndBuildContext) {
  util::Flags flags;
  flags.set("minutes", "10");
  flags.set("isds", "2");
  const RunManifest m = RunManifest::capture("bench_x", flags, 1234);
  EXPECT_EQ(m.binary, "bench_x");
  EXPECT_EQ(m.seed, 1234u);
  EXPECT_EQ(m.flags.at("minutes"), "10");
  EXPECT_FALSE(m.build_type.empty());
  EXPECT_FALSE(m.git_sha.empty());
  EXPECT_FALSE(m.sanitizers.empty());

  std::string error;
  const auto doc = parse_json(m.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  for (const char* key : {"binary", "seed", "flags", "build_type", "git_sha",
                          "sanitizers", "checked"}) {
    EXPECT_NE(doc->find(key), nullptr) << key;
  }
  EXPECT_EQ(doc->find("seed")->as_number(), 1234.0);
  EXPECT_EQ(doc->find("flags")->find("isds")->as_string(), "2");
}

// --- session -----------------------------------------------------------------

TEST(ObsSessionTest, MetricsDocumentHasTheFullSchema) {
  util::Flags flags;
  flags.set("seed", "7");
  ObsSession session{"test_obs", flags, 7};
  SCION_METRIC_COUNT("test.session_counter", 1);
  { ProfilePhase phase{"test.session_phase"}; }

  std::string error;
  const auto doc = parse_json(session.metrics_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("schema")->as_string(), "scion-mpr-metrics-v1");
  EXPECT_EQ(doc->find("manifest")->find("binary")->as_string(), "test_obs");
  ASSERT_TRUE(doc->find("metrics")->is_object());
  ASSERT_TRUE(doc->find("phases")->is_array());
  EXPECT_EQ(doc->find("metrics")
                ->find("counters")
                ->find("test.session_counter")
                ->as_number(),
            1.0);
  session.finish();
  MetricsRegistry::global().reset();
  PhaseProfiler::global().reset();
}

// --- nested phase attribution ------------------------------------------------

TEST(ObsProfile, NestedPhasesAttributeAllocsToInnermost) {
  PhaseProfiler::global().reset();
  // Warm pass: both phase slots exist afterwards, so the measured pass does
  // not see the profiler's own map-insertion allocations.
  {
    ProfilePhase outer{"test.nested_outer"};
    ProfilePhase inner{"test.nested_inner"};
  }
  const auto snapshot = PhaseProfiler::global().phases();  // copy
  {
    ProfilePhase outer{"test.nested_outer"};
    {
      ProfilePhase inner{"test.nested_inner"};
      for (int i = 0; i < 32; ++i) {
        auto block = std::make_unique<char[]>(64);
        block[0] = static_cast<char>(i);
        ASSERT_EQ(block[0], static_cast<char>(i));
      }
    }
  }
  const auto& phases = PhaseProfiler::global().phases();
  const std::uint64_t inner_delta =
      phases.at("test.nested_inner").allocs -
      snapshot.at("test.nested_inner").allocs;
  const std::uint64_t outer_delta =
      phases.at("test.nested_outer").allocs -
      snapshot.at("test.nested_outer").allocs;
  // The 32 block allocations belong to the innermost phase; the parent may
  // only see the profiler's own bookkeeping (span log growth), never the
  // child's workload.
  EXPECT_GE(inner_delta, 32u);
  EXPECT_LE(outer_delta, 8u);
  PhaseProfiler::global().reset();
}

// --- event profiling ---------------------------------------------------------

TEST(ObsEventProfile, InternReturnsStableIdsAndKeepsTableAcrossReset) {
  const EventLabel a = event_label("test.intern_a");
  const EventLabel b = event_label("test.intern_b");
  EXPECT_FALSE(a.is_default());
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(event_label("test.intern_a").id(), a.id());
  EventProfiler::global().reset_counters();
  // reset_counters clears stats, not the table: cached handles stay valid.
  EXPECT_EQ(event_label("test.intern_a").id(), a.id());
  EXPECT_EQ(EventProfiler::global().label_name(a.id()), "test.intern_a");
  EXPECT_EQ(EventProfiler::global().label_name(0), "(unlabeled)");
}

TEST(ObsEventProfile, MergeIsCommutativeAndJsonSortsLabels) {
  EventProfiler profiler;
  const EventLabel beta = profiler.intern("test.beta");
  const EventLabel alpha = profiler.intern("test.alpha");
  std::vector<LabelStats> shard_a(profiler.label_count());
  shard_a[beta.id()] = LabelStats{3, 6, 600, 30};
  std::vector<LabelStats> shard_b(profiler.label_count());
  shard_b[alpha.id()] = LabelStats{2, 10, 100, 20};
  shard_b[beta.id()] = LabelStats{1, 1, 1, 1};
  const std::vector<QueueSample> samples_a{{0, 4}, {100, 2}};
  const std::vector<QueueSample> samples_b{{0, 1}, {100, 9}};

  EventProfiler forward;
  forward.intern("test.beta");
  forward.intern("test.alpha");
  forward.merge(shard_a, samples_a);
  forward.merge(shard_b, samples_b);

  EventProfiler reverse;
  reverse.intern("test.beta");
  reverse.intern("test.alpha");
  reverse.merge(shard_b, samples_b);
  reverse.merge(shard_a, samples_a);

  // Merge order (i.e. --jobs scheduling) cannot change the result.
  EXPECT_EQ(forward.to_json(), reverse.to_json());
  EXPECT_EQ(forward.total_events(), 6u);
  EXPECT_EQ(forward.attributed_events(), 6u);

  std::string error;
  const auto doc = parse_json(forward.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const auto& labels = doc->find("labels")->as_array();
  ASSERT_EQ(labels.size(), 2u);
  // Sorted by name despite reversed intern order.
  EXPECT_EQ(labels[0].find("label")->as_string(), "test.alpha");
  EXPECT_EQ(labels[1].find("label")->as_string(), "test.beta");
  EXPECT_EQ(labels[1].find("events")->as_number(), 4.0);
  EXPECT_EQ(labels[1].find("allocs")->as_number(), 7.0);
  // Queue samples merge per-timestamp max.
  const auto& samples = doc->find("queue_samples")->as_array();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].find("depth")->as_number(), 4.0);
  EXPECT_EQ(samples[1].find("depth")->as_number(), 9.0);
}

TEST(ObsEventProfile, TopAllocatingLabelsOrderByAllocsThenName) {
  EventProfiler profiler;
  const EventLabel a = profiler.intern("test.a");
  const EventLabel b = profiler.intern("test.b");
  const EventLabel c = profiler.intern("test.c");
  std::vector<LabelStats> stats(profiler.label_count());
  stats[a.id()] = LabelStats{1, 5, 0, 0};
  stats[b.id()] = LabelStats{1, 9, 0, 0};
  stats[c.id()] = LabelStats{1, 5, 0, 0};
  profiler.merge(stats, {});
  const auto top = profiler.top_allocating_labels(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "test.b");
  EXPECT_EQ(top[0].second, 9u);
  EXPECT_EQ(top[1].first, "test.a");  // tie with test.c: name order
}

TEST(ObsEventProfile, ShardSamplesQueueOnGridAndDecimatesWhenFull) {
  EventProfiler::global().reset_counters();
  {
    EventShard shard;
    // 600 grid crossings at 100ms: forces at least one decimation (cap 512),
    // after which surviving timestamps are multiples of the doubled interval.
    for (std::int64_t i = 0; i < 600; ++i) {
      shard.maybe_sample_queue(i * 100'000'000, static_cast<std::uint64_t>(i));
    }
  }  // destructor flushes into the global profiler
  const auto timeline = EventProfiler::global().queue_timeline();
  ASSERT_FALSE(timeline.empty());
  EXPECT_LE(timeline.size(), 512u);
  for (const QueueSample& s : timeline) {
    EXPECT_EQ(s.t_ns % 200'000'000, 0) << s.t_ns;
  }
  EventProfiler::global().reset_counters();
}

TEST(ObsEventProfile, SimulatorAttributesLabeledEvents) {
  EventProfiler::global().reset_counters();
  EventProfiler::global().set_enabled(true);
  static const EventLabel kTick = event_label("test.sim_tick");
  {
    sim::Simulator simulator;
    simulator.schedule_at(TimePoint::origin() + util::Duration::seconds(1),
                          kTick, [] {});
    simulator.schedule_at(TimePoint::origin() + util::Duration::seconds(2),
                          kTick, [] {});
    simulator.schedule_at(TimePoint::origin() + util::Duration::seconds(3),
                          [] {});  // unlabeled on purpose
    simulator.run();
  }
  EXPECT_EQ(EventProfiler::global().total_events(), 3u);
  EXPECT_EQ(EventProfiler::global().attributed_events(), 2u);
  const auto labels = EventProfiler::global().label_snapshot();
  bool found = false;
  for (const auto& [name, stats] : labels) {
    if (name == "test.sim_tick") {
      found = true;
      EXPECT_EQ(stats.events, 2u);
    }
  }
  EXPECT_TRUE(found);
  EventProfiler::global().reset_counters();
}

// A delivery whose sender passed no label is unattributed, exactly like an
// unlabeled schedule, so the 100 % attribution checks catch it.
TEST(ObsEventProfile, NetworkAttributesOnlyLabeledSends) {
  EventProfiler::global().reset_counters();
  EventProfiler::global().set_enabled(true);
  static const EventLabel kDeliver = event_label("test.net_deliver");
  {
    sim::Simulator simulator;
    sim::Network net{simulator};
    const sim::NodeId a = net.add_node();
    const sim::NodeId b = net.add_node();
    const sim::ChannelId ch =
        net.add_channel(a, b, util::Duration::milliseconds(1));
    net.send(ch, a, util::Bytes{10}, 0, kDeliver);
    net.send(ch, a, util::Bytes{10}, 0);  // unlabeled on purpose
    simulator.run();
  }
  EXPECT_EQ(EventProfiler::global().total_events(), 2u);
  EXPECT_EQ(EventProfiler::global().attributed_events(),
            EventProfiler::global().total_events() - 1);
  EventProfiler::global().reset_counters();
}

TEST(ObsEventProfile, DisabledProfilerRecordsNothing) {
  EventProfiler::global().reset_counters();
  EventProfiler::global().set_enabled(false);
  {
    sim::Simulator simulator;
    simulator.schedule_at(TimePoint::origin() + util::Duration::seconds(1),
                          event_label("test.disabled_tick"), [] {});
    simulator.run();
  }
  EXPECT_EQ(EventProfiler::global().total_events(), 0u);
  EventProfiler::global().set_enabled(true);
  EventProfiler::global().reset_counters();
}

// --- chrome trace export -----------------------------------------------------

TEST(ObsChromeTrace, RendersPhasesLabelSlicesAndQueueCounters) {
  PhaseProfiler phases;
  phases.record("stage.one", 1'000'000);
  phases.record_span("stage.one", 500, 1'000'500, 0);

  EventProfiler events;
  const EventLabel lbl = events.intern("test.chrome_label");
  std::vector<LabelStats> stats(events.label_count());
  stats[lbl.id()] = LabelStats{4, 2, 128, 2'000};
  events.merge(stats, {{0, 3}, {100'000'000, 7}});

  const std::string json = chrome_trace_json(phases, events);
  std::string error;
  const auto doc = parse_json(json, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("displayTimeUnit")->as_string(), "ms");
  const auto& trace_events = doc->find("traceEvents")->as_array();
  bool saw_phase_slice = false;
  bool saw_label_slice = false;
  bool saw_counter = false;
  bool saw_metadata = false;
  for (const JsonValue& e : trace_events) {
    const std::string& ph = e.find("ph")->as_string();
    const std::string& name = e.find("name")->as_string();
    if (ph == "M") saw_metadata = true;
    if (ph == "X" && name == "stage.one") {
      saw_phase_slice = true;
      EXPECT_EQ(e.find("dur")->as_number(), 1000.0);  // 1ms in µs
    }
    if (ph == "X" && name == "test.chrome_label") {
      saw_label_slice = true;
      EXPECT_EQ(e.find("args")->find("events")->as_number(), 4.0);
      EXPECT_EQ(e.find("args")->find("allocs")->as_number(), 2.0);
    }
    if (ph == "C" && name == "queue_depth") saw_counter = true;
  }
  EXPECT_TRUE(saw_metadata);
  EXPECT_TRUE(saw_phase_slice);
  EXPECT_TRUE(saw_label_slice);
  EXPECT_TRUE(saw_counter);
}

// --- result renderer ---------------------------------------------------------

TEST(ObsReport, TableAlignsAndTrims) {
  Table t{"Title",
          {Column{"name", Align::kLeft, 6}, Column{"n", Align::kRight, 4}}};
  t.row({"a", "1"});
  t.row({"longer", "1000"});
  EXPECT_EQ(t.to_text(),
            "Title\n"
            "  name      n\n"
            "  a         1\n"
            "  longer 1000\n");
}

TEST(ObsReport, TableJsonKeysRowsByHeader) {
  Table t{"T", {Column{"k", Align::kLeft, 0}, Column{"v", Align::kRight, 0}}};
  t.row({"x", "1"});
  JsonWriter w;
  t.append_json(w);
  std::string error;
  const auto doc = parse_json(std::move(w).take(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("title")->as_string(), "T");
  ASSERT_EQ(doc->find("rows")->as_array().size(), 1u);
  EXPECT_EQ(doc->find("rows")->as_array()[0].find("k")->as_string(), "x");
  EXPECT_EQ(doc->find("rows")->as_array()[0].find("v")->as_string(), "1");
}

TEST(ObsReport, CdfJsonMatchesCurve) {
  util::EmpiricalCdf cdf;
  for (int i = 1; i <= 4; ++i) cdf.add(i);
  JsonWriter w;
  append_cdf_json(w, cdf, 4);
  std::string error;
  const auto doc = parse_json(std::move(w).take(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_FALSE(doc->find("summary")->as_string().empty());
  const auto& curve = doc->find("curve")->as_array();
  ASSERT_EQ(curve.size(), cdf.curve(4).size());
  EXPECT_EQ(curve.back().as_array()[1].as_number(), 1.0);
}

}  // namespace
}  // namespace scion::obs
