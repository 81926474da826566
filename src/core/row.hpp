#pragma once
// The two value rows a planned run and a raw record carry.
//
// FactorRow is an immutable, reference-counted row of factor values.  A
// level-only plan interns one row per factorial cell, so every replicate
// of the cell -- and every record the engine builds from it -- points at
// the same storage: copying a row is a handle copy and one atomic
// increment, never an allocation.  MetricRow holds a run's measured
// values inline up to kInlineCapacity and spills to the heap only above
// it, so a typical record owns no heap memory at all.  Together they make
// the engine -> sink path allocation-free per record while keeping every
// raw value (the paper's "keep all information" rule costs no more than
// the handle it takes to name it).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "core/value.hpp"

namespace cal {

/// Immutable, shared row of factor values (plan factor order).  Reads
/// like a const std::vector<Value>; copies share storage.
class FactorRow {
 public:
  using value_type = Value;
  using const_iterator = const Value*;
  using iterator = const_iterator;

  FactorRow() noexcept = default;
  FactorRow(std::vector<Value> values);             // NOLINT(google-explicit-constructor)
  FactorRow(std::initializer_list<Value> values);   // NOLINT(google-explicit-constructor)
  /// Copies `values` (e.g. a reused scratch buffer) into a new row.
  explicit FactorRow(std::span<const Value> values);

  FactorRow(const FactorRow& other) noexcept : block_(other.block_) {
    if (block_) block_->refs.fetch_add(1);
  }
  FactorRow(FactorRow&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  /// Copy and move assignment in one: `other` is this row's old handle
  /// on the way out.
  FactorRow& operator=(FactorRow other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~FactorRow() {
    if (block_ && block_->refs.fetch_sub(1) == 1) destroy(block_);
  }

  std::size_t size() const noexcept { return block_ ? block_->size : 0; }
  bool empty() const noexcept { return size() == 0; }
  const Value* data() const noexcept {
    return block_ ? block_->values() : nullptr;
  }
  const Value* begin() const noexcept { return data(); }
  const Value* end() const noexcept { return data() + size(); }
  const Value& operator[](std::size_t i) const noexcept { return data()[i]; }
  /// Bounds-checked access; throws std::out_of_range.
  const Value& at(std::size_t i) const;

  /// True when both rows are handles to one shared storage.
  bool shares_storage_with(const FactorRow& other) const noexcept {
    return block_ == other.block_;
  }

  /// Element-wise Value equality, exactly as std::vector<Value>'s.
  friend bool operator==(const FactorRow& a, const FactorRow& b);

 private:
  /// Header of the single allocation holding a row: the count of
  /// handles, the width, then `size` Values.
  struct Block {
    std::atomic<std::size_t> refs{1};
    std::size_t size = 0;
    Value* values() noexcept;
  };
  static_assert(sizeof(Block) % alignof(Value) == 0);

  template <class Construct>
  void build(std::size_t n, Construct&& construct);
  static void destroy(Block* block) noexcept;

  Block* block_ = nullptr;
};

/// A run's measured values (Engine metric order): inline up to
/// kInlineCapacity, heap above it.  Reads and grows like a
/// std::vector<double>.
class MetricRow {
 public:
  static constexpr std::size_t kInlineCapacity = 4;

  using value_type = double;
  using const_iterator = const double*;
  using iterator = double*;

  MetricRow() noexcept = default;
  MetricRow(std::initializer_list<double> values) {  // NOLINT(google-explicit-constructor)
    assign(values.begin(), values.end());
  }
  MetricRow(const MetricRow& other) { assign(other.begin(), other.end()); }
  MetricRow(MetricRow&& other) noexcept { take(other); }
  MetricRow& operator=(const MetricRow& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  MetricRow& operator=(MetricRow&& other) noexcept {
    if (this != &other) {
      delete[] heap_;
      take(other);
    }
    return *this;
  }
  ~MetricRow() { delete[] heap_; }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  /// True once the row has outgrown its inline storage.
  bool spilled() const noexcept { return heap_ != nullptr; }

  double* data() noexcept { return heap_ ? heap_ : inline_; }
  const double* data() const noexcept { return heap_ ? heap_ : inline_; }
  double* begin() noexcept { return data(); }
  double* end() noexcept { return data() + size_; }
  const double* begin() const noexcept { return data(); }
  const double* end() const noexcept { return data() + size_; }
  double& operator[](std::size_t i) noexcept { return data()[i]; }
  const double& operator[](std::size_t i) const noexcept { return data()[i]; }

  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }
  void push_back(double v) {
    if (size_ == capacity_) grow(2 * capacity_);
    data()[size_++] = v;
  }
  void resize(std::size_t n) {
    reserve(n);
    if (n > size_) std::fill(data() + size_, data() + n, 0.0);
    size_ = static_cast<std::uint32_t>(n);
  }
  void assign(const double* first, const double* last) {
    size_ = 0;
    reserve(static_cast<std::size_t>(last - first));
    size_ = static_cast<std::uint32_t>(std::copy(first, last, data()) - data());
  }

  /// Copies out as a vector, so code that keeps metric samples as
  /// std::vector<double> reads a row without spelling the conversion.
  operator std::vector<double>() const {  // NOLINT(google-explicit-constructor)
    return std::vector<double>(begin(), end());
  }

  /// Element-wise double equality, exactly as std::vector<double>'s.
  friend bool operator==(const MetricRow& a, const MetricRow& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  void grow(std::size_t n);
  /// Takes `other`'s contents, leaving it empty and inline; this row
  /// holds no heap block of its own.
  void take(MetricRow& other) noexcept {
    size_ = other.size_;
    capacity_ = other.capacity_;
    heap_ = std::exchange(other.heap_, nullptr);
    if (!heap_) std::copy(other.inline_, other.inline_ + size_, inline_);
    other.size_ = 0;
    other.capacity_ = kInlineCapacity;
  }

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineCapacity;
  double* heap_ = nullptr;  ///< non-null once spilled
  double inline_[kInlineCapacity] = {};
};

}  // namespace cal
