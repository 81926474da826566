#include "serve/cached_source.hpp"

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/fault.hpp"
#include "obs/trace.hpp"

namespace cal::serve {

namespace {

using query::ColumnSet;
using query::DecodedColumns;

/// Per-block bookkeeping of one scan.
struct BlockWork {
  std::size_t ordinal = 0;  ///< position within the caller's block list
  std::size_t block = 0;    ///< manifest block index
  /// The columns handed to the body: cache hits at claim time, the rest
  /// as this scan (or another) resolves them.
  DecodedColumns columns;
  std::vector<std::uint32_t> owned;    ///< ids this scan must decode
  std::vector<std::uint32_t> pending;  ///< ids another scan is decoding
};

}  // namespace

void CachingBlockSource::scan(
    const std::vector<std::size_t>& blocks,
    const std::vector<query::ColumnSet>& needs, core::WorkerPool* pool,
    const std::function<void(std::size_t, const query::DecodedColumns&)>&
        body) const {
  if (needs.size() != blocks.size()) {
    throw std::invalid_argument("serve: scan needs one ColumnSet per block");
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

  // Phase A: claim every (block, column) against the cache.  Sequential
  // and non-blocking, so two scans claiming in opposite orders cannot
  // deadlock -- ownership is decided instantly, waiting happens only in
  // phase C, after this scan has resolved everything it owns.
  std::vector<BlockWork> work(blocks.size());
  std::vector<std::size_t> ready;     // fully cached: serve immediately
  std::vector<std::size_t> decoding;  // has owned columns: needs the shard
  std::vector<std::size_t> waiting;   // pending columns only
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    BlockWork& w = work[i];
    w.ordinal = i;
    w.block = blocks[i];
    w.columns.records = manifest.blocks[w.block].records;
    w.columns.columns.resize(n_columns);
    for (const std::uint32_t id : needs[i].column_ids()) {
      bool owner = false;
      auto col = cache_->get_or_begin(key_of(w.block, id), &owner);
      if (col) {
        w.columns.columns[id] = std::move(col);
      } else {
        (owner ? w.owned : w.pending).push_back(id);
      }
    }
    if (!w.owned.empty()) {
      decoding.push_back(i);
    } else if (!w.pending.empty()) {
      waiting.push_back(i);
    } else {
      ready.push_back(i);
    }
  }

  // `resolved[i][k]` flips once work[decoding[i]].owned[k] is published
  // (insert).  Written by the worker decoding that block, read by the
  // failure path after the pool barrier -- anything still false there is
  // an ownership this scan must abandon so followers wake and retry.
  std::vector<std::vector<char>> resolved(decoding.size());
  for (std::size_t i = 0; i < decoding.size(); ++i) {
    resolved[i].assign(work[decoding[i]].owned.size(), 0);
  }
  const auto abandon_unresolved = [&] {
    for (std::size_t i = 0; i < decoding.size(); ++i) {
      const BlockWork& w = work[decoding[i]];
      for (std::size_t k = 0; k < w.owned.size(); ++k) {
        if (!resolved[i][k]) {
          cache_->abandon(key_of(w.block, w.owned[k]));
        }
      }
    }
  };

  // Resolves a block's pending columns: wait for the owning scan, and
  // when that owner abandoned (wait returns null), re-claim the key --
  // the retry either hits a later insert, joins a newer owner, or wins
  // ownership and decodes just that column sequentially.
  const auto finish_pending = [&](BlockWork& w) {
    for (const std::uint32_t id : w.pending) {
      const BlockCache::Key key = key_of(w.block, id);
      std::shared_ptr<const CachedColumn> col;
      {
        CAL_SPAN("serve.cache.wait");
        col = cache_->wait(key);
      }
      while (!col) {
        bool owner = false;
        col = cache_->get_or_begin(key, &owner);
        if (col) break;
        if (!owner) {
          col = cache_->wait(key);
          continue;
        }
        try {
          std::string image;
          reader_.scan_blocks(
              {w.block}, nullptr,
              [&](std::size_t, std::size_t, const std::string& raw) {
                image = raw;
              });
          DecodedColumns fresh;
          query::decode_columns(image, ColumnSet(n_columns).add(id),
                                w.columns.records, n_factors, n_metrics,
                                &fresh);
          col = fresh.columns[id];
          cache_->insert(key, col);
        } catch (...) {
          cache_->abandon(key);
          throw;
        }
      }
      w.columns.columns[id] = std::move(col);
    }
  };

  try {
    // Phase B: decode owned columns block-parallel and publish them.
    if (!decoding.empty()) {
      std::vector<std::size_t> shard_blocks(decoding.size());
      for (std::size_t i = 0; i < decoding.size(); ++i) {
        shard_blocks[i] = work[decoding[i]].block;
      }
      reader_.scan_blocks(
          shard_blocks, pool,
          [&](std::size_t i, std::size_t block, const std::string& raw) {
            BlockWork& w = work[decoding[i]];
            ColumnSet owned(n_columns);
            for (const std::uint32_t id : w.owned) owned.add(id);
            DecodedColumns fresh;
            query::decode_columns(raw, owned, w.columns.records, n_factors,
                                  n_metrics, &fresh);
            CAL_FAULT_POINT("serve.cache_insert");
            for (std::size_t k = 0; k < w.owned.size(); ++k) {
              const std::uint32_t id = w.owned[k];
              cache_->insert(key_of(block, id), fresh.columns[id]);
              resolved[i][k] = 1;
              w.columns.columns[id] = std::move(fresh.columns[id]);
            }
            // Blocks also waiting on another scan's columns defer to
            // phase C; everything else serves right here.
            if (w.pending.empty()) body(w.ordinal, w.columns);
          });
    }

    // Phase B2: fully-cached blocks -- the warm path.  Parallel because
    // the body (predicate eval + fold) is the remaining cost.
    if (pool != nullptr && ready.size() > 1) {
      pool->run_indexed(ready.size(), [&](std::size_t, std::size_t i) {
        const BlockWork& w = work[ready[i]];
        body(w.ordinal, w.columns);
      });
    } else {
      for (const std::size_t i : ready) {
        body(work[i].ordinal, work[i].columns);
      }
    }

    // Phase C: wait for columns other scans own.  Safe only now: every
    // key this scan owns is resolved, so the scans we wait on can never
    // be waiting on us.  An abandoned key (owner failed) is re-claimed
    // and decoded sequentially -- the slow path of a rare failure.
    for (const std::size_t i : waiting) {
      finish_pending(work[i]);
      body(work[i].ordinal, work[i].columns);
    }
    for (const std::size_t i : decoding) {
      if (work[i].pending.empty()) continue;
      finish_pending(work[i]);
      body(work[i].ordinal, work[i].columns);
    }
  } catch (...) {
    abandon_unresolved();
    throw;
  }
}

}  // namespace cal::serve
