// Per-task telemetry capture for deterministic parallel execution.
//
// The problem: metrics and traces are recorded from inside simulation code
// that exec::parallel_for_n may run on any of its threads, in any
// completion order — but the telemetry outputs must be byte-identical for
// every --jobs value. A global mutex would serialize the hot path AND still
// leave the *order* (and therefore floating-point histogram sums and trace
// line order) dependent on scheduling.
//
// The solution: one TaskCapture per task, not per worker. While a task
// executes, its capture is the thread's current MetricShard (obs/metrics)
// and its thread-local TraceSink override (obs/trace) writes to a private
// buffer, so the task's recordings never touch shared state. After the
// whole batch completes, exec::parallel_for_n merges captures strictly in
// task-index order into the caller's context — the outer task's capture for
// nested parallelism, or the registry totals / process-wide sink at top
// level. Since the task decomposition itself is independent of the job
// count, the merged result equals what a --jobs=1 run produces, byte for
// byte. The capture's own set-up and merge allocate outside the run's
// counts (obs::UncountedAllocs).
#pragma once

#include <memory>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace scion::obs {

class TaskCapture {
 public:
  TaskCapture() = default;
  TaskCapture(const TaskCapture&) = delete;
  TaskCapture& operator=(const TaskCapture&) = delete;

  /// Starts capturing on the calling (worker) thread. Installs the shard
  /// and, when tracing is active, a buffer sink with the parent's category
  /// mask.
  void begin();

  /// Stops capturing on the calling (worker) thread; restores whatever was
  /// installed before begin().
  void end();

  /// Folds this capture into the context active on the *calling* thread
  /// (the batch's caller, after the batch). Call in task-index order.
  void merge();

 private:
  MetricShard shard_;
  std::ostringstream trace_buf_;
  std::unique_ptr<TraceSink> trace_sink_;
  MetricShard* prev_shard_{nullptr};
  TraceSink* prev_override_{nullptr};
};

}  // namespace scion::obs
