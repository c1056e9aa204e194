#include "obs/parallel.hpp"

#include "obs/alloc_track.hpp"

namespace scion::obs {

void TaskCapture::begin() {
  const UncountedAllocs uncounted;
  prev_shard_ = set_current_shard(&shard_);
  // trace_sink() here resolves the worker thread's context: the enclosing
  // task's buffer sink for nested parallelism (same thread), else the
  // process-wide sink. Either way the capture inherits its category mask so
  // filtering behaves exactly as in a serial run.
  if (TraceSink* parent = trace_sink(); parent != nullptr) {
    trace_sink_ = std::make_unique<TraceSink>(trace_buf_);
    trace_sink_->set_mask(parent->mask());
    prev_override_ = set_thread_trace_override(trace_sink_.get());
  }
}

void TaskCapture::end() {
  set_current_shard(prev_shard_);
  prev_shard_ = nullptr;
  if (trace_sink_ != nullptr) {
    set_thread_trace_override(prev_override_);
    prev_override_ = nullptr;
  }
}

void TaskCapture::merge() {
  const UncountedAllocs uncounted;
  MetricsRegistry::global().fold(shard_);
  if (trace_sink_ != nullptr && trace_sink_->events_written() > 0) {
    if (TraceSink* parent = trace_sink(); parent != nullptr) {
      parent->write_raw(trace_buf_.str(), trace_sink_->events_written());
    }
  }
}

}  // namespace scion::obs
