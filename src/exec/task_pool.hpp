// Deterministic parallel execution for the experiment pipeline.
//
// The paper's evaluation loops are embarrassingly parallel — per-pair
// max-flow evaluation, per-parameter-point grid search, independent series
// runs — but the repository's verification story rests on byte-identical
// outputs (ROADMAP, test_determinism). This layer makes the two compatible:
//
//  - Work is decomposed into *tasks* whose count and content never depend
//    on the job count; `--jobs` only changes how many threads claim task
//    indices from the batch's shared counter.
//  - Results are written into pre-sized slots by task index, so the output
//    vector is order-preserving regardless of completion order.
//  - Telemetry recorded inside a task goes to a private obs::TaskCapture
//    (thread-local metric shard + trace buffer) and is merged in task-index
//    order after the batch — never in completion order (see obs/parallel.hpp).
//  - Tasks needing randomness take a util::Rng::substream(seed, task_index)
//    (parallel_map_seeded), a pure function of the task index.
//
// Contract: run(jobs=J) is byte-identical to run(jobs=1) for every J. The
// simlint `raw-thread` rule bans std::thread/std::async outside this file so
// all parallelism inherits the contract.
//
// Exceptions thrown by task bodies are captured per slot and, after the
// batch completes (every task still runs) and telemetry is merged, the
// lowest-index exception is rethrown — again independent of scheduling.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace scion::exec {

/// Process-wide default worker count used when a config's `jobs` field or a
/// parallel_map call leaves jobs at 0. Set once at startup from --jobs
/// (bench_main, the CLI); defaults to 1 (serial).
std::size_t default_jobs();
void set_default_jobs(std::size_t jobs);

/// 0 -> default_jobs(); anything else clamped to at least 1.
std::size_t resolve_jobs(std::size_t jobs);

/// Runs fn(0..n-1) as one batch and returns once every task finished and
/// its telemetry capture merged in index order. `jobs` counts executors:
/// the caller is one, so jobs=1 starts no thread and runs every task inline
/// in index order, and otherwise min(jobs, n) - 1 threads are started and
/// joined. `fn` is invoked concurrently and must only mutate task-local or
/// per-index state. Nests: a task may call parallel_for_n itself.
void parallel_for_n(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t jobs = 0);

/// Order-preserving parallel map over [0, n): out[i] = fn(i). The job-count
/// determinism contract of parallel_for_n applies; fn must be safe to
/// invoke concurrently.
template <typename Fn>
auto parallel_map_n(std::size_t n, Fn&& fn, std::size_t jobs = 0) {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<std::optional<R>> slots(n);
  parallel_for_n(n, [&](std::size_t i) { slots[i].emplace(fn(i)); }, jobs);
  std::vector<R> out;
  out.reserve(n);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

/// Order-preserving parallel map over a vector: out[i] = fn(items[i]).
template <typename T, typename Fn>
auto parallel_map(const std::vector<T>& items, Fn&& fn, std::size_t jobs = 0) {
  return parallel_map_n(
      items.size(), [&](std::size_t i) { return fn(items[i]); }, jobs);
}

/// parallel_map where each task additionally receives its own private
/// util::Rng substream derived from (seed, task index) — independent of the
/// worker that runs it and of the job count.
template <typename T, typename Fn>
auto parallel_map_seeded(const std::vector<T>& items, std::uint64_t seed,
                         Fn&& fn, std::size_t jobs = 0) {
  return parallel_map_n(
      items.size(),
      [&](std::size_t i) {
        util::Rng rng = util::Rng::substream(seed, i);
        return fn(items[i], rng);
      },
      jobs);
}

}  // namespace scion::exec
