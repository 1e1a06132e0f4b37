// Fixed-capacity history ring for forecasting state (past observations, past
// errors). Indexed by "ago": ago=1 is the most recent element.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace scd::forecast {

template <typename V>
class HistoryRing {
 public:
  explicit HistoryRing(std::size_t capacity) : capacity_(capacity) {
    assert(capacity_ >= 1);
    slots_.reserve(capacity_);
  }

  /// The slot the next commit() makes the most recent element: the oldest
  /// element's slot once the ring is full. While the ring is not full the
  /// slot is added as a copy of `shape` on first use; slots never move, as
  /// the capacity is reserved up front. Calls before the commit() return
  /// the same slot, so a model fills it one cell range at a time while
  /// back() still reads the elements it held before.
  V& next(const V& shape) {
    const std::size_t i = next_slot();
    if (i == slots_.size()) slots_.push_back(shape);
    return slots_[i];
  }

  /// Makes the next() slot the most recent element, evicting the oldest
  /// when the ring is full. Precondition: next() was called since the last
  /// commit().
  void commit() noexcept {
    assert(next_slot() < slots_.size());
    head_ = next_slot();
    if (size_ < capacity_) ++size_;
  }

  void push(const V& v) {
    next(v) = v;
    commit();
  }

  /// Element observed `ago` steps in the past (1 = most recent).
  [[nodiscard]] const V& back(std::size_t ago) const noexcept {
    return slots_[slot(ago)];
  }

  /// The ring's field list (common/bytes.h): the element count, then the
  /// elements oldest first. A reader refills it from slot 0 with copies of
  /// `shape` (any signal of the elements' structure) and reads each in.
  template <class Ar, class Self>
  static void transfer(Ar& ar, Self& ring, const V& shape) {
    std::uint64_t n = ring.size();
    ar.field(n);
    if constexpr (Ar::kReads) {
      if (n > ring.capacity_) {
        throw common::FieldError("history ring holds " + std::to_string(n) +
                                 " elements but capacity is " +
                                 std::to_string(ring.capacity_));
      }
      ring.slots_.assign(n, shape);
      ring.size_ = n;
      ring.head_ = n == 0 ? 0 : n - 1;
    }
    for (std::size_t ago = n; ago >= 1; --ago) {
      ar.field(ring.slots_[ring.slot(ago)]);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  [[nodiscard]] std::size_t slot(std::size_t ago) const noexcept {
    assert(ago >= 1 && ago <= size_);
    return (head_ + capacity_ - (ago - 1)) % capacity_;
  }

  [[nodiscard]] std::size_t next_slot() const noexcept {
    return size_ < capacity_ ? size_ : (head_ + 1) % capacity_;
  }

  std::size_t capacity_;
  std::size_t size_ = 0;   // elements held
  std::size_t head_ = 0;   // slot of the most recent element
  std::vector<V> slots_;
};

}  // namespace scd::forecast
