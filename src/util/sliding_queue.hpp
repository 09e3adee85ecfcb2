#pragma once

#include <cstddef>
#include <vector>

namespace fpgafu {

/// Unbounded FIFO over one vector and a read index.  It empties its storage
/// (keeping the capacity) whenever it drains, and compacts when the consumed
/// prefix outgrows the live tail, so a steady stream reuses one buffer
/// instead of allocating and freeing std::deque chunks.
template <typename T>
class SlidingQueue {
 public:
  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }

  const T& operator[](std::size_t i) const { return items_[head_ + i]; }
  const T& front() const { return items_[head_]; }
  const T& back() const { return items_.back(); }
  auto begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  auto end() const { return items_.end(); }

  void push_back(const T& value) { items_.push_back(value); }

  /// Drop the `n` oldest items (n <= size()).
  void pop_front(std::size_t n = 1) {
    head_ += n;
    if (head_ == items_.size()) {
      clear();
    } else if (head_ >= kCompactAt && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  /// Consumed items tolerated before a compaction (which moves the live
  /// tail, so it runs at most once per kCompactAt pops).
  static constexpr std::size_t kCompactAt = 1024;

  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace fpgafu
