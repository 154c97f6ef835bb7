// Append-only array kept in fixed-size pages that never move.
//
// The device's op slab holds one record per page op in flight, and its
// high-water mark ranges from a few dozen (a small admission window) to
// hundreds of thousands (a write backlog on two channels). A std::vector
// there copies every record each time it doubles, so at its peak the old
// and the new array are live at once, and a copy allocates the whole
// array. PagedVector stores elements in pages of kPageSize: growth
// allocates one page and copies nothing, element addresses stay stable,
// and a copy allocates only the pages that hold elements.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace ssdk::util {

template <typename T>
class PagedVector {
 public:
  /// Elements per page. Small, because every non-empty container pays for
  /// a page — a forked device with a handful of ops in flight copies one —
  /// and a power of two, so indexing is a shift and a mask.
  static constexpr std::size_t kPageSize = 256;

  PagedVector() = default;
  PagedVector(const PagedVector& other) { copy_pages_from(other); }
  PagedVector& operator=(const PagedVector& other) {
    if (this != &other) {
      PagedVector copy(other);
      *this = std::move(copy);
    }
    return *this;
  }
  /// A moved-from vector is empty and usable.
  PagedVector(PagedVector&& other) noexcept
      : pages_(std::move(other.pages_)), size_(std::exchange(other.size_, 0)) {}
  PagedVector& operator=(PagedVector&& other) noexcept {
    pages_ = std::move(other.pages_);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Pages allocated: the ones holding elements, plus any clear() kept.
  std::size_t page_count() const { return pages_.size(); }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return pages_[i / kPageSize]->items[i % kPageSize];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return pages_[i / kPageSize]->items[i % kPageSize];
  }

  /// Append a value-initialized element and return it; allocates a page
  /// only when the last one is full.
  T& emplace_back() {
    if (size_ == pages_.size() * kPageSize) {
      pages_.push_back(std::make_unique<Page>());
    }
    T& slot = pages_[size_ / kPageSize]->items[size_ % kPageSize];
    ++size_;
    slot = T{};
    return slot;
  }

  /// Replace the contents with `n` copies of `value`.
  void assign(std::size_t n, const T& value) {
    clear();
    for (std::size_t i = 0; i < n; ++i) emplace_back() = value;
  }

  /// Drop every element; the pages stay allocated for reuse.
  void clear() { size_ = 0; }

 private:
  struct Page {
    T items[kPageSize];
  };

  void copy_pages_from(const PagedVector& other) {
    const std::size_t used = (other.size_ + kPageSize - 1) / kPageSize;
    pages_.reserve(used);
    for (std::size_t p = 0; p < used; ++p) {
      pages_.push_back(std::make_unique<Page>(*other.pages_[p]));
    }
    size_ = other.size_;
  }

  std::vector<std::unique_ptr<Page>> pages_;
  std::size_t size_ = 0;
};

}  // namespace ssdk::util
