#include "obs/alloc_track.hpp"

#include <cstdio>
#include <cstdlib>
#include <new>

#include "obs/event_profile.hpp"

namespace {

// Trivially-initialized TLS: safe to bump from the earliest allocation,
// including ones made while other thread_locals construct. File scope so
// both the scion::obs accessors and the global operator new can see them.
// Per-thread counters read back (thread_allocs / thread_alloc_bytes) and
// rewound (UncountedAllocs) only by the owning thread.
thread_local std::uint64_t t_allocs = 0;       // simlint:allow(mutable-global)
thread_local std::uint64_t t_alloc_bytes = 0;  // simlint:allow(mutable-global)

void* counted_malloc(std::size_t size) noexcept {
  ++t_allocs;
  t_alloc_bytes += size;
  return std::malloc(size != 0 ? size : 1);
}

void* counted_aligned(std::size_t size, std::size_t align) noexcept {
  ++t_allocs;
  t_alloc_bytes += size;
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : align) != 0) return nullptr;
  return p;
}

/// Standard throwing-new contract: retry through the installed new_handler
/// until it gives up.
template <typename Alloc>
void* alloc_or_throw(std::size_t size, Alloc alloc) {
  for (;;) {
    if (void* p = alloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc{};
    handler();
  }
}

}  // namespace

namespace scion::obs {

std::uint64_t thread_allocs() { return t_allocs; }

std::uint64_t thread_alloc_bytes() { return t_alloc_bytes; }

UncountedAllocs::UncountedAllocs()
    : allocs_{t_allocs}, alloc_bytes_{t_alloc_bytes} {}

UncountedAllocs::~UncountedAllocs() {
  t_allocs = allocs_;
  t_alloc_bytes = alloc_bytes_;
}

AllocBudgetResult check_alloc_budget(std::string_view phase,
                                     std::uint64_t allocs,
                                     std::uint64_t events,
                                     double budget_per_event) {
  AllocBudgetResult out;
  out.per_event =
      events == 0 ? static_cast<double>(allocs)
                  : static_cast<double>(allocs) / static_cast<double>(events);
  out.ok = out.per_event <= budget_per_event;
  if (!out.ok) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "alloc budget exceeded in phase '%.*s': %.3f allocs/event "
                  "(%llu allocs / %llu events), budget %.3f",
                  static_cast<int>(phase.size()), phase.data(), out.per_event,
                  static_cast<unsigned long long>(allocs),
                  static_cast<unsigned long long>(events), budget_per_event);
    out.message = buf;
    // Point the breach at its handler: the event profiler knows which event
    // labels allocated the most during the measured run.
    const auto top = EventProfiler::global().top_allocating_labels(3);
    if (!top.empty()) {
      out.message += "; top allocating event labels:";
      for (std::size_t i = 0; i < top.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s %s (%llu allocs)",
                      i == 0 ? "" : ",", top[i].first.c_str(),
                      static_cast<unsigned long long>(top[i].second));
        out.message += buf;
      }
    }
  }
  return out;
}

}  // namespace scion::obs

// The global counting operator new/delete pair. Lives in scion_obs (which
// every binary links); the references to thread_allocs() from
// obs/profile.cpp and the budget tests pull this object file into each
// link, bringing the replacements along. Every new form counts; every
// delete form forwards straight to free (deallocation is not budgeted).

void* operator new(std::size_t size) {
  return alloc_or_throw(size, counted_malloc);
}
void* operator new[](std::size_t size) {
  return alloc_or_throw(size, counted_malloc);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return alloc_or_throw(size, [align](std::size_t n) {
    return counted_aligned(n, static_cast<std::size_t>(align));
  });
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return alloc_or_throw(size, [align](std::size_t n) {
    return counted_aligned(n, static_cast<std::size_t>(align));
  });
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
