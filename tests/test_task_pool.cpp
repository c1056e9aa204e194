// Tests for the deterministic parallel execution layer (src/exec):
// order preservation, caller-participates scheduling, exception
// propagation, nesting, the telemetry-merge
// determinism contract (jobs=1, 2 and 8 produce byte-identical metric and
// trace output, with and without nested batches), and the check that no
// batch starts inside an open ProfilePhase.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/task_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/time.hpp"

namespace scion::exec {
namespace {

TEST(TaskPool, JobsResolveAgainstDefault) {
  EXPECT_EQ(default_jobs(), 1u);  // the serial default
  EXPECT_EQ(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(5), 5u);
  set_default_jobs(4);
  EXPECT_EQ(default_jobs(), 4u);
  EXPECT_EQ(resolve_jobs(0), 4u);
  EXPECT_EQ(resolve_jobs(2), 2u);
  set_default_jobs(0);  // 0 clamps to 1
  EXPECT_EQ(default_jobs(), 1u);
}

TEST(TaskPool, SingleJobRunsInline) {
  std::vector<int> order;
  parallel_for_n(
      8, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  // With one executor the caller runs every task in index order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(TaskPool, ParallelMapPreservesInputOrder) {
  std::vector<int> items;
  for (int i = 0; i < 200; ++i) items.push_back(i);
  const std::vector<int> out = parallel_map(
      items, [](int v) { return v * v; }, 8);
  ASSERT_EQ(out.size(), items.size());
  for (int i = 0; i < 200; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(TaskPool, ParallelMapMatchesSerialForAnyJobs) {
  std::vector<int> items;
  for (int i = 0; i < 64; ++i) items.push_back(i * 3 + 1);
  const auto fn = [](int v) { return v * 7 - 2; };
  const std::vector<int> serial = parallel_map(items, fn, 1);
  for (const std::size_t jobs : {2u, 3u, 8u}) {
    EXPECT_EQ(parallel_map(items, fn, jobs), serial) << "jobs=" << jobs;
  }
}

TEST(TaskPool, EmptyInputYieldsEmptyOutput) {
  const std::vector<int> out =
      parallel_map(std::vector<int>{}, [](int v) { return v; }, 4);
  EXPECT_TRUE(out.empty());
}

TEST(TaskPool, LowestIndexExceptionWins) {
  try {
    parallel_for_n(
        32,
        [](std::size_t i) {
          if (i == 7 || i == 23) throw std::runtime_error{std::to_string(i)};
        },
        8);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Both tasks fail on every run; the batch surfaces the earliest by task
    // index, not by completion time.
    EXPECT_STREQ(e.what(), "7");
  }
}

TEST(TaskPool, EveryTaskRunsDespiteFailures) {
  std::vector<char> ran(64, 0);
  try {
    parallel_for_n(
        64,
        [&](std::size_t i) {
          ran[i] = 1;  // each slot is written only by its own task
          if (i % 10 == 3) throw std::runtime_error{"boom"};
        },
        4);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  for (std::size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i], 1) << "task " << i << " never ran";
  }
}

TEST(TaskPool, NestedParallelMapWorks) {
  // An inner batch inside a task must not deadlock or corrupt ordering: the
  // inner merge runs on the outer task's thread, inside its capture.
  std::vector<int> outer{0, 1, 2, 3};
  const std::vector<int> out = parallel_map(
      outer,
      [](int o) {
        std::vector<int> inner{1, 2, 3, 4};
        const std::vector<int> products =
            parallel_map(inner, [o](int v) { return v * (o + 1); }, 2);
        int sum = 0;
        for (const int p : products) sum += p;
        return sum;  // 10 * (o + 1)
      },
      4);
  EXPECT_EQ(out, (std::vector<int>{10, 20, 30, 40}));
}

/// Runs a telemetry-heavy workload at the given job count and returns the
/// metrics JSON and the raw trace stream it produced. With `nested`, every
/// task also runs an inner batch whose captures merge into the task's own
/// shard and trace buffer before the task's capture merges into the
/// registry totals.
std::pair<std::string, std::string> telemetry_run(std::size_t jobs,
                                                  bool nested) {
  obs::MetricsRegistry::global().reset();
  std::ostringstream trace_out;
  obs::TraceSink sink{trace_out};
  sink.enable_all();
  obs::set_trace_sink(&sink);

  parallel_for_n(
      24,
      [&](std::size_t i) {
        SCION_METRIC_COUNT("test.pool.tasks", 1);
        SCION_METRIC_COUNT("test.pool.work", i);
        SCION_METRIC_GAUGE_MAX("test.pool.high_water",
                               static_cast<std::int64_t>(i));
        // Floating-point histogram sums are the determinism-sensitive part:
        // the merge order must not depend on the worker schedule.
        SCION_METRIC_OBSERVE("test.pool.value", 0.1 * static_cast<double>(i));
        SCION_TRACE(obs::Category::kExperiment,
                    util::TimePoint::origin() +
                        util::Duration::seconds(static_cast<std::int64_t>(i)),
                    "task", {"i", i});
        if (!nested) return;
        parallel_for_n(
            6,
            [i](std::size_t j) {
              SCION_METRIC_COUNT("test.pool.inner", j + 1);
              SCION_METRIC_OBSERVE("test.pool.inner_value",
                                   0.1 * static_cast<double>(i * 6 + j));
              SCION_TRACE(obs::Category::kExperiment,
                          util::TimePoint::origin() +
                              util::Duration::seconds(
                                  static_cast<std::int64_t>(j)),
                          "inner", {"i", i}, {"j", j});
            },
            jobs);
      },
      jobs);

  obs::set_trace_sink(nullptr);
  return {obs::MetricsRegistry::global().to_json(), trace_out.str()};
}

TEST(TaskPool, TelemetryIsByteIdenticalAcrossJobCounts) {
  for (const bool nested : {false, true}) {
    const auto [metrics1, trace1] = telemetry_run(1, nested);
    EXPECT_NE(trace1.find("\"ev\":\"task\""), std::string::npos);
    // 24 tasks x 6 inner tasks, each adding j + 1: 24 * 21.
    EXPECT_EQ(metrics1.find("\"test.pool.inner\":504") != std::string::npos,
              nested)
        << metrics1;
    EXPECT_EQ(trace1.find("\"ev\":\"inner\"") != std::string::npos, nested);
    for (const std::size_t jobs : {2u, 8u}) {
      const auto [metrics, trace] = telemetry_run(jobs, nested);
      EXPECT_EQ(metrics, metrics1) << "jobs=" << jobs << " nested=" << nested;
      EXPECT_EQ(trace, trace1) << "jobs=" << jobs << " nested=" << nested;
    }
  }
  obs::MetricsRegistry::global().reset();
}

TEST(TaskPool, BatchStartsOnceEveryPhaseIsClosed) {
  obs::ProfilePhase setup{"test.setup"};
  EXPECT_TRUE(obs::phase_open_on_this_thread());
  setup.stop();
  EXPECT_FALSE(obs::phase_open_on_this_thread());
  // Tasks open their own phases, and close them before the next batch.
  for (int batch = 0; batch < 2; ++batch) {
    parallel_for_n(
        3, [](std::size_t) { const obs::ProfilePhase phase{"test.task"}; },
        2);
  }
  EXPECT_FALSE(obs::phase_open_on_this_thread());
}

#if SCION_CHECK_ENABLED
// A phase around a batch would count the allocations of whichever tasks the
// schedule gave the calling thread.
TEST(TaskPoolDeathTest, BatchInsideOpenPhaseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        const obs::ProfilePhase phase{"test.enclosing"};
        parallel_for_n(2, [](std::size_t) {}, 1);
      },
      "parallel batch started inside an open ProfilePhase");
}
#endif

}  // namespace
}  // namespace scion::exec
