// Move-only type-erased value with inline storage: std::any without the
// per-message heap allocation.
//
// libstdc++'s std::any keeps only pointer-sized payloads inline, so a
// simnet Message carrying a shared_ptr<const Pcb> (16 bytes) heap-allocates
// on every send. SmallAny<Capacity> stores payloads up to Capacity bytes
// inline (heap fallback above that, caught by the allocation budgets in
// test_alloc_budget) and is move-only, so ref-counted payloads move through
// the network without touching their control blocks.
//
// Type identity uses per-type tag addresses instead of RTTI: get<T>() on a
// SmallAny holding another type is a SCION_CHECK failure (a protocol bug —
// a node decoding a payload type it never receives), not a fallible query.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "util/check.hpp"

namespace scion::util {

namespace detail {
/// One byte per distinct payload type; the address is the type's identity.
template <typename T>
inline constexpr char small_any_tag = 0;
}  // namespace detail

template <std::size_t Capacity>
class SmallAny {
 public:
  SmallAny() = default;

  template <typename V>
    requires(!std::is_same_v<std::remove_cvref_t<V>, SmallAny>)
  SmallAny(V&& value) {  // NOLINT(google-explicit-constructor)
    using T = std::remove_cvref_t<V>;
    if constexpr (fits_inline<T>()) {
      ::new (static_cast<void*>(buf_)) T(std::forward<V>(value));
      manager_ = &inline_manage<T>;
    } else {
      ::new (static_cast<void*>(buf_)) T*(new T(std::forward<V>(value)));
      manager_ = &heap_manage<T>;
    }
    tag_ = &detail::small_any_tag<T>;
  }

  SmallAny(SmallAny&& other) noexcept { move_from(other); }

  SmallAny& operator=(SmallAny&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallAny(const SmallAny&) = delete;
  SmallAny& operator=(const SmallAny&) = delete;

  ~SmallAny() { reset(); }

  bool has_value() const { return tag_ != nullptr; }

  template <typename T>
  bool holds() const {
    return tag_ == &detail::small_any_tag<T>;
  }

  /// The stored value; the stored type must be exactly `T`.
  template <typename T>
  const T& get() const {
    SCION_CHECK(holds<T>(), "SmallAny holds a different payload type");
    return *ptr<T>();
  }

  template <typename T>
  static constexpr bool fits_inline() {
    return sizeof(T) <= Capacity && alignof(T) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<T>;
  }

 private:
  enum class Op { kMoveTo, kDestroy };
  using Manager = void (*)(Op, unsigned char* self, unsigned char* dst);

  template <typename T>
  static void inline_manage(Op op, unsigned char* self, unsigned char* dst) {
    T* v = std::launder(reinterpret_cast<T*>(self));
    if (op == Op::kMoveTo) ::new (static_cast<void*>(dst)) T(std::move(*v));
    v->~T();
  }

  template <typename T>
  static void heap_manage(Op op, unsigned char* self, unsigned char* dst) {
    T** slot = std::launder(reinterpret_cast<T**>(self));
    if (op == Op::kMoveTo) {
      ::new (static_cast<void*>(dst)) T*(*slot);
    } else {
      delete *slot;
    }
  }

  template <typename T>
  const T* ptr() const {
    if constexpr (fits_inline<T>()) {
      return std::launder(reinterpret_cast<const T*>(buf_));
    } else {
      return *std::launder(reinterpret_cast<T* const*>(buf_));
    }
  }

  void move_from(SmallAny& other) noexcept {
    if (!other.tag_) return;
    other.manager_(Op::kMoveTo, other.buf_, buf_);
    manager_ = other.manager_;
    tag_ = other.tag_;
    other.manager_ = nullptr;
    other.tag_ = nullptr;
  }

  void reset() noexcept {
    if (!tag_) return;
    manager_(Op::kDestroy, buf_, nullptr);
    manager_ = nullptr;
    tag_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[Capacity];
  Manager manager_{nullptr};
  const char* tag_{nullptr};
};

}  // namespace scion::util
