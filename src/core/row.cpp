#include "core/row.hpp"

#include <algorithm>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

namespace cal {

Value* FactorRow::Block::values() noexcept {
  return std::launder(reinterpret_cast<Value*>(this + 1));
}

template <class Construct>
void FactorRow::build(std::size_t n, Construct&& construct) {
  if (n == 0) return;  // the empty row owns no storage
  void* memory = ::operator new(sizeof(Block) + n * sizeof(Value));
  Block* block = new (memory) Block;
  Value* values = reinterpret_cast<Value*>(block + 1);
  try {
    // `size` counts the constructed values, so a throwing copy unwinds
    // exactly what was built.
    for (; block->size < n; ++block->size) {
      construct(values + block->size, block->size);
    }
  } catch (...) {
    destroy(block);
    throw;
  }
  block_ = block;
}

void FactorRow::destroy(Block* block) noexcept {
  std::destroy_n(block->values(), block->size);
  block->~Block();
  ::operator delete(block);
}

FactorRow::FactorRow(std::vector<Value> values) {
  build(values.size(), [&](Value* at, std::size_t i) {
    new (at) Value(std::move(values[i]));
  });
}

FactorRow::FactorRow(std::initializer_list<Value> values)
    : FactorRow(std::span<const Value>(values.begin(), values.size())) {}

FactorRow::FactorRow(std::span<const Value> values) {
  build(values.size(),
        [&](Value* at, std::size_t i) { new (at) Value(values[i]); });
}

const Value& FactorRow::at(std::size_t i) const {
  if (i >= size()) {
    throw std::out_of_range("FactorRow: index " + std::to_string(i) +
                            " >= width " + std::to_string(size()));
  }
  return data()[i];
}

bool operator==(const FactorRow& a, const FactorRow& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

void MetricRow::grow(std::size_t n) {
  double* heap = new double[n];
  std::copy(begin(), end(), heap);
  delete[] heap_;
  heap_ = heap;
  capacity_ = static_cast<std::uint32_t>(n);
}

}  // namespace cal
