#ifndef PPP_OBS_RING_H_
#define PPP_OBS_RING_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

namespace ppp::obs {

/// Bounded, mutex-guarded ring of records that overwrites its oldest record
/// when full: the store behind the query log and the operator audit.
/// Thread-safe: records are appended from whichever thread closes an
/// executor, and snapshots are taken by concurrent introspection scans.
template <typename T>
class Ring {
 public:
  Ring(size_t capacity, bool enabled)
      : enabled_(enabled), ring_(std::max<size_t>(capacity, 1)) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Appends one record; past capacity the oldest record is overwritten
  /// (counted in evicted()). No-op while disabled.
  void Append(T record) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (size_ == ring_.size()) {
      // Full: the slot at head_ holds the oldest record; overwrite it and
      // advance the ring.
      ring_[head_] = std::move(record);
      head_ = (head_ + 1) % ring_.size();
      evicted_.fetch_add(1, std::memory_order_relaxed);
    } else {
      At(size_) = std::move(record);
      ++size_;
    }
    total_.fetch_add(1, std::memory_order_relaxed);
  }

  /// All retained records, oldest first.
  std::vector<T> Snapshot() const {
    return Tail(std::numeric_limits<size_t>::max());
  }

  /// The most recent `n` records, oldest first.
  std::vector<T> Tail(size_t n) const {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t count = std::min(n, size_);
    std::vector<T> out;
    out.reserve(count);
    for (size_t i = size_ - count; i < size_; ++i) out.push_back(At(i));
    return out;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }
  /// Records ever appended (including since-evicted ones).
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }
  /// Records overwritten by ring wraparound.
  uint64_t evicted() const {
    return evicted_.load(std::memory_order_relaxed);
  }

  /// Shrinks or grows the ring (to at least one slot); shrinking keeps the
  /// newest records.
  void set_capacity(size_t n) {
    n = std::max<size_t>(n, 1);
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<T> fresh(n);
    const size_t keep = std::min(size_, n);
    for (size_t i = 0; i < keep; ++i) {
      fresh[i] = std::move(At(size_ - keep + i));
    }
    ring_ = std::move(fresh);
    head_ = 0;
    size_ = keep;
  }
  size_t capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
  }

  /// Drops all retained records and zeroes total/evicted.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (T& r : ring_) r = T{};
    head_ = 0;
    size_ = 0;
    total_.store(0, std::memory_order_relaxed);
    evicted_.store(0, std::memory_order_relaxed);
  }

 private:
  /// The `i`-th oldest retained record; callers hold mu_.
  T& At(size_t i) { return ring_[(head_ + i) % ring_.size()]; }
  const T& At(size_t i) const { return ring_[(head_ + i) % ring_.size()]; }

  std::atomic<bool> enabled_;
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> evicted_{0};
  mutable std::mutex mu_;
  std::vector<T> ring_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace ppp::obs

#endif  // PPP_OBS_RING_H_
