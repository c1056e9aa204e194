#include "exec/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "obs/parallel.hpp"
#include "obs/profile.hpp"
#include "util/check.hpp"

namespace scion::exec {

namespace {

// Set once at startup (bench_main / CLI flag parsing) before any parallel
// region exists; read-only afterwards. simlint:allow(mutable-global)
std::size_t g_default_jobs = 1;

}  // namespace

std::size_t default_jobs() { return g_default_jobs; }

void set_default_jobs(std::size_t jobs) {
  g_default_jobs = jobs == 0 ? 1 : jobs;
}

std::size_t resolve_jobs(std::size_t jobs) {
  if (jobs == 0) return default_jobs();
  return jobs;
}

void parallel_for_n(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t jobs) {
  SCION_CHECK(!obs::phase_open_on_this_thread(),
              "parallel batch started inside an open ProfilePhase");
  if (n == 0) return;
  std::vector<obs::TaskCapture> captures(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      captures[i].begin();
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      captures[i].end();
    }
  };
  {
    const std::size_t helpers = std::min(resolve_jobs(jobs), n) - 1;
    std::vector<std::jthread> threads;
    threads.reserve(helpers);
    for (std::size_t t = 0; t < helpers; ++t) threads.emplace_back(drain);
    // The caller is an executor too: with jobs=1 this runs every task, in
    // index order — exactly the serial trajectory.
    drain();
  }  // Joins the threads; their writes to captures and errors happen-before.
  // Merge telemetry first (every task ran, even past failures), then surface
  // the lowest-index failure.
  for (obs::TaskCapture& capture : captures) capture.merge();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace scion::exec
