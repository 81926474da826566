#include "serve/cached_source.hpp"

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/fault.hpp"
#include "obs/trace.hpp"

namespace cal::serve {

using query::ColumnSet;
using query::DecodedColumns;

void CachingBlockSource::scan_filtered(
    const std::vector<std::size_t>& blocks, const ColumnSet& out_needs,
    const std::vector<char>& uncertain, const query::MaskProgram* program,
    core::WorkerPool* pool,
    const std::function<void(std::size_t, const DecodedColumns&,
                             const std::vector<char>*)>& body) const {
  if (uncertain.size() != blocks.size()) {
    throw std::invalid_argument(
        "query: scan_filtered needs one uncertainty flag per block");
  }
  CAL_SPAN("serve.cached_scan");
  const io::archive::Manifest& manifest = reader_.manifest();
  const std::size_t n_factors = manifest.factor_names.size();
  const std::size_t n_metrics = manifest.metric_names.size();
  const std::size_t n_columns =
      io::archive::block_columns(n_factors, n_metrics);
  const auto key_of = [&](std::size_t block, std::uint32_t id) {
    return BlockCache::Key{bundle_, static_cast<std::uint32_t>(block), id};
  };

  // Look up every needed (block, column); what misses is a hole.
  std::vector<DecodedColumns> columns(blocks.size());
  std::vector<ColumnSet> holes(blocks.size(), ColumnSet(n_columns));
  std::vector<std::size_t> cold;       // ordinals with holes
  std::vector<std::size_t> cold_blocks;
  std::vector<std::size_t> warm;       // ordinals fully cached
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    ColumnSet needs = out_needs;
    if (program && uncertain[i]) needs.merge(program->needs());
    columns[i].records = manifest.blocks[blocks[i]].records;
    columns[i].columns.resize(n_columns);
    bool whole = true;
    for (const std::uint32_t id : needs.column_ids()) {
      columns[i].columns[id] = cache_->get(key_of(blocks[i], id));
      if (!columns[i].columns[id]) {
        holes[i].add(id);
        whole = false;
      }
    }
    if (whole) {
      warm.push_back(i);
    } else {
      cold.push_back(i);
      cold_blocks.push_back(blocks[i]);
    }
  }

  const auto serve = [&](std::size_t i) {
    if (!program || !uncertain[i]) {
      body(i, columns[i], nullptr);
      return;
    }
    std::vector<char> mask;
    program->eval(columns[i], mask);
    body(i, columns[i], &mask);
  };

  // Decode the holes block-parallel, insert them, then serve the block.
  if (!cold.empty()) {
    reader_.scan_blocks(
        cold_blocks, pool,
        [&](std::size_t k, std::size_t block, const std::string& raw) {
          const std::size_t i = cold[k];
          DecodedColumns fresh;
          query::decode_columns(raw, holes[i], columns[i].records, n_factors,
                                n_metrics, &fresh);
          CAL_FAULT_POINT("serve.cache_insert");
          for (const std::uint32_t id : holes[i].column_ids()) {
            cache_->insert(key_of(block, id), fresh.columns[id]);
            columns[i].columns[id] = std::move(fresh.columns[id]);
          }
          serve(i);
        });
  }

  // Fully cached blocks: the warm path.  Parallel because the body
  // (predicate eval + fold) is the remaining cost.
  core::run_indexed(pool, warm.size(),
                    [&](std::size_t, std::size_t k) { serve(warm[k]); });
}

}  // namespace cal::serve
