#include "query/block_source.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"

namespace cal::query {

namespace ar = io::archive;

void ColumnSet::merge(const ColumnSet& other) {
  for (std::size_t i = 0; i < flags.size() && i < other.flags.size(); ++i) {
    flags[i] |= other.flags[i];
  }
}

std::vector<std::uint32_t> ColumnSet::column_ids() const {
  std::vector<std::uint32_t> ids;
  for (std::size_t id = 0; id < flags.size(); ++id) {
    if (flags[id]) ids.push_back(static_cast<std::uint32_t>(id));
  }
  return ids;
}

void decode_columns(const std::string& raw, const ColumnSet& needs,
                    std::size_t records, std::size_t n_factors,
                    std::size_t n_metrics, DecodedColumns* d) {
  // The one decode chokepoint both the direct and the cached block
  // sources funnel through: every block decode shows up here.
  CAL_SPAN("query.decode_block");
  CAL_TIME_SCOPE("query.decode_seconds");
  if (d->columns.empty()) {
    // First decode of this block (a second call only tops up columns).
    CAL_COUNT("query.blocks_decoded", 1);
    d->records = records;
    d->columns.resize(ar::block_columns(n_factors, n_metrics));
  }
  const ar::BlockView view(raw, n_factors, n_metrics);
  for (std::size_t id = 0; id < d->columns.size(); ++id) {
    if (!needs.has(id) || d->columns[id]) continue;
    auto column = std::make_shared<const ar::Column>(view.column(id));
    // The scan loop runs to the manifest's record count; a decoded
    // column of any other length means the manifest and the block image
    // disagree, so check every column before it can be indexed out of
    // bounds.
    if (column->size() != records) {
      throw std::runtime_error(
          "query: block decoded to " + std::to_string(column->size()) +
          " records but the manifest declares " + std::to_string(records));
    }
    d->columns[id] = std::move(column);
  }
}

void BlockSource::scan_filtered(
    const std::vector<std::size_t>& blocks, const ColumnSet& out_needs,
    const std::vector<char>& uncertain, const MaskProgram* program,
    core::WorkerPool* pool,
    const std::function<void(std::size_t, const DecodedColumns&,
                             const std::vector<char>*)>& body) const {
  if (uncertain.size() != blocks.size()) {
    throw std::invalid_argument(
        "query: scan_filtered needs one uncertainty flag per block");
  }
  std::vector<ColumnSet> needs(blocks.size(), out_needs);
  for (std::size_t i = 0; i < needs.size(); ++i) {
    if (program && uncertain[i]) needs[i].merge(program->needs());
  }
  scan(blocks, needs, pool,
       [&](std::size_t ordinal, const DecodedColumns& d) {
         if (!program || !uncertain[ordinal]) {
           body(ordinal, d, nullptr);
           return;
         }
         std::vector<char> mask;
         program->eval(d, mask);
         body(ordinal, d, &mask);
       });
}

void DirectBlockSource::scan(
    const std::vector<std::size_t>& blocks,
    const std::vector<ColumnSet>& needs, core::WorkerPool* pool,
    const std::function<void(std::size_t, const DecodedColumns&)>& body)
    const {
  if (needs.size() != blocks.size()) {
    throw std::invalid_argument(
        "query: scan needs one ColumnSet per block");
  }
  const ar::Manifest& manifest = reader_.manifest();
  reader_.scan_blocks(
      blocks, pool,
      [&](std::size_t ordinal, std::size_t block, const std::string& raw) {
        DecodedColumns d;
        decode_columns(raw, needs[ordinal], manifest.blocks[block].records,
                       manifest.factor_names.size(),
                       manifest.metric_names.size(), &d);
        body(ordinal, d);
      });
}

void DirectBlockSource::scan_filtered(
    const std::vector<std::size_t>& blocks, const ColumnSet& out_needs,
    const std::vector<char>& uncertain, const MaskProgram* program,
    core::WorkerPool* pool,
    const std::function<void(std::size_t, const DecodedColumns&,
                             const std::vector<char>*)>& body) const {
  if (uncertain.size() != blocks.size()) {
    throw std::invalid_argument(
        "query: scan_filtered needs one uncertainty flag per block");
  }
  const ar::Manifest& manifest = reader_.manifest();
  const std::size_t n_factors = manifest.factor_names.size();
  const std::size_t n_metrics = manifest.metric_names.size();
  reader_.scan_blocks(
      blocks, pool,
      [&](std::size_t ordinal, std::size_t block, const std::string& raw) {
        const std::size_t records = manifest.blocks[block].records;
        DecodedColumns d;
        std::vector<char> mask;
        const bool filter = program && uncertain[ordinal];
        if (filter) {
          decode_columns(raw, program->needs(), records, n_factors,
                         n_metrics, &d);
          program->eval(d, mask);
          // No record survives: the output columns never decode.
          if (simd::kernels().mask_count(mask.data(), mask.size()) == 0) {
            return;
          }
        }
        decode_columns(raw, out_needs, records, n_factors, n_metrics, &d);
        body(ordinal, d, filter ? &mask : nullptr);
      });
}

}  // namespace cal::query
