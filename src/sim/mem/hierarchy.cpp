#include "sim/mem/hierarchy.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace cal::sim::mem {

Hierarchy::Hierarchy(const MachineSpec& machine) {
  if (machine.caches.empty()) {
    throw std::invalid_argument("Hierarchy: machine has no caches");
  }
  if (machine.caches.size() > kMaxLevels) {
    throw std::invalid_argument("Hierarchy: more than 8 cache levels");
  }
  caches_.reserve(machine.caches.size());
  std::size_t sets = 0;
  for (const auto& level : machine.caches) {
    caches_.emplace_back(level);
    stall_.push_back(level.miss_stall_cycles);
    set_base_.push_back(sets);
    sets += level.sets();
  }
  set_counts_.resize(sets);
  // Nesting: one line size, and in ascending order of set count each
  // count divides the next, so a line's set at a level with more sets
  // fixes its set at every level with fewer.
  std::vector<std::size_t> set_counts;
  nested_ = true;
  for (const auto& level : machine.caches) {
    set_counts.push_back(level.sets());
    nested_ = nested_ && level.line_bytes == machine.caches[0].line_bytes;
  }
  std::sort(set_counts.begin(), set_counts.end());
  for (std::size_t i = 1; i < set_counts.size(); ++i) {
    nested_ = nested_ && set_counts[i] % set_counts[i - 1] == 0;
  }
  // stall_[i] is charged when an access *hits* at level i; an L1 hit is
  // free here (its cost lives in the issue model), a hit at L2 costs the
  // L1 miss stall, and so on.  Shift accordingly: stall for hitting level
  // i equals the miss stall of level i-1... except the spec already
  // stores "stall when missing here" per level, so hitting level i costs
  // caches[i-1].miss_stall_cycles and memory costs the last level's
  // miss stall plus the memory stall.
  std::vector<double> hit_stall(caches_.size() + 1, 0.0);
  // Must stay exactly 0.0: stream_pass counts a collapsed run of k L1
  // hits without adding any stall, which is bit-identical to the
  // per-access sum only because each of those k additions adds +0.0.
  hit_stall[0] = 0.0;
  for (std::size_t i = 1; i < caches_.size(); ++i) {
    hit_stall[i] = machine.caches[i - 1].miss_stall_cycles;
  }
  // Throughput-domain memory stall: streaming cores overlap misses
  // (memory-level parallelism), so the exposed stall per line is the
  // serial latency divided by the MLP depth.  Serial pointer chases use
  // sim/mem/latency_model.hpp, which pays the undivided latency.
  hit_stall[caches_.size()] =
      machine.memory_stall_cycles / std::max(machine.memory_mlp, 1.0);
  stall_ = std::move(hit_stall);
}

std::pair<pmu::Event, pmu::Event> Hierarchy::pmu_events_for_level(
    std::size_t i) const noexcept {
  if (i == 0) return {pmu::Event::kL1Hits, pmu::Event::kL1Misses};
  if (i + 1 == caches_.size()) {
    return {pmu::Event::kLlcHits, pmu::Event::kLlcMisses};
  }
  return {pmu::Event::kL2Hits, pmu::Event::kL2Misses};
}

void Hierarchy::attach_pmu(pmu::PmuFile* file) noexcept {
  pmu_ = file;
  for (std::size_t i = 0; i < caches_.size(); ++i) {
    const auto [hit, miss] = pmu_events_for_level(i);
    caches_[i].attach_pmu(file, hit, miss);
  }
}

void Hierarchy::account_pass(const PassCost& cost,
                             std::uint64_t times) noexcept {
  if (pmu_ == nullptr || times == 0) return;
  if (cost.hits_by_level.size() != caches_.size() + 1) return;
  // Misses at level i are exactly the accesses that were served deeper:
  // every access walks levels top-down until its hit level.
  std::uint64_t deeper = cost.hits_by_level.back();
  for (std::size_t i = caches_.size(); i-- > 0;) {
    const auto [hit, miss] = pmu_events_for_level(i);
    pmu_->count(hit, cost.hits_by_level[i] * times);
    pmu_->count(miss, deeper * times);
    deeper += cost.hits_by_level[i];
  }
  pmu_->count(pmu::Event::kMemAccesses, cost.hits_by_level.back() * times);
  pmu_->count(pmu::Event::kStallCycles, cost.stall_cycles * times);
}

std::size_t Hierarchy::access(std::uint64_t paddr) {
  for (std::size_t i = 0; i < caches_.size(); ++i) {
    if (caches_[i].access(paddr)) {
      // Fill upward so inclusive levels stay warm: levels above `i`
      // already installed the line inside their access() miss path.
      return i;
    }
  }
  return caches_.size();
}

double Hierarchy::stall_for_level(std::size_t level) const noexcept {
  return level < stall_.size() ? stall_[level] : stall_.back();
}

namespace {

/// Walks one strided pass the way stream_pass does and calls
/// `visit(paddr, run)` once per hierarchy walk: `paddr` is the walked
/// access, and the `run - 1` accesses after it stay in its L1 line (and
/// its page), so they are L1 hits on the MRU line that change no cache
/// state.  The current translation -- virtual [seg_lo, seg_lo + seg_len)
/// lies in one page and maps to physical [seg_paddr, seg_paddr +
/// seg_len) -- is re-walked only when the stream leaves it, so a pass
/// translates once per page, and once in total when a wrapping stride
/// keeps landing in the same page.
template <class Visit>
void for_each_walk(const Buffer& buffer, std::size_t stride_bytes,
                   std::size_t count, const Cache& l1, Visit&& visit) {
  const std::size_t size = buffer.size();
  const std::size_t page = buffer.page_bytes();
  const std::size_t line_bytes = l1.spec().line_bytes;
  // Power-of-two strides and pages (the usual ones) shift and mask.
  const bool stride_pow2 = std::has_single_bit(stride_bytes);
  const unsigned stride_shift =
      stride_pow2 ? static_cast<unsigned>(std::countr_zero(stride_bytes)) : 0;
  const std::size_t page_mask = std::has_single_bit(page) ? page - 1 : 0;
  std::size_t seg_lo = 0;
  std::size_t seg_len = 0;
  std::uint64_t seg_paddr = 0;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < count;) {
    if (offset - seg_lo >= seg_len) {
      seg_paddr = buffer.translate(offset);
      seg_lo = offset;
      const std::size_t in_page = static_cast<std::size_t>(
          page_mask != 0 ? seg_paddr & page_mask : seg_paddr % page);
      seg_len = std::min(page - in_page, size - offset);
    }
    const std::uint64_t paddr = seg_paddr + (offset - seg_lo);
    std::size_t run = 1;
    if (stride_bytes < line_bytes) {
      const std::uint64_t left = std::min<std::uint64_t>(
          (l1.line_of(paddr) + 1) * line_bytes - 1 - paddr,  // in the line
          seg_lo + seg_len - 1 - offset);  // in the translation
      const std::size_t more =
          stride_bytes == 0 ? count
          : stride_pow2     ? static_cast<std::size_t>(left >> stride_shift)
                            : static_cast<std::size_t>(left / stride_bytes);
      run += std::min(more, count - i - 1);
    }
    visit(paddr, run);
    i += run;
    offset += run * stride_bytes;
    if (offset >= size) offset %= size;  // cyclic, like the nloops loop
  }
}

}  // namespace

PassCost Hierarchy::stream_pass(const Buffer& buffer, std::size_t stride_bytes,
                                std::size_t count) {
  PassCost cost;
  stream_pass(buffer, stride_bytes, count, cost);
  return cost;
}

void Hierarchy::stream_pass(const Buffer& buffer, std::size_t stride_bytes,
                            std::size_t count, PassCost& out) {
  // assign() reuses existing capacity: with a caller-retained PassCost the
  // per-pass path performs no allocation.
  out.hits_by_level.assign(caches_.size() + 1, 0);
  double stall = 0.0;
  Cache& l1 = caches_.front();
  for_each_walk(buffer, stride_bytes, count, l1,
                [&](std::uint64_t paddr, std::size_t run) {
                  const std::size_t level = access(paddr);
                  ++out.hits_by_level[level];
                  stall += stall_[level];
                  // The collapsed run adds no stall: stall_[0] is 0.0.
                  if (run > 1) {
                    out.hits_by_level[0] += run - 1;
                    l1.credit_mru_hits(run - 1);
                  }
                });
  out.accesses = count;
  out.stall_cycles = static_cast<std::uint64_t>(stall);
  if (pmu_ != nullptr) {
    // Per-access hit/miss events were counted inside the caches; the
    // pass-aggregate memory and stall numbers batch here (one truncation
    // per pass, matching account_pass exactly).
    pmu_->count(pmu::Event::kMemAccesses, out.hits_by_level.back());
    pmu_->count(pmu::Event::kStallCycles, out.stall_cycles);
  }
}

Hierarchy::SteadyCost Hierarchy::steady_state_cost(const Buffer& buffer,
                                                   std::size_t stride_bytes,
                                                   std::size_t count) {
  SteadyCost out;
  steady_state_cost(buffer, stride_bytes, count, out);
  return out;
}

void Hierarchy::steady_state_cost(const Buffer& buffer,
                                  std::size_t stride_bytes, std::size_t count,
                                  SteadyCost& out) {
  two_pass(buffer, stride_bytes, count, out.cold, out.steady);
}

void Hierarchy::two_pass(const Buffer& buffer, std::size_t stride_bytes,
                         std::size_t count, PassCost& cold, PassCost& steady) {
  if (closed_form_applies(buffer, stride_bytes, count)) {
    closed_form_cost(buffer, stride_bytes, count, cold, steady);
    return;
  }
  pmu::PmuFile* const pmu = pmu_;
  attach_pmu(nullptr);
  flush();
  stream_pass(buffer, stride_bytes, count, cold);
  stream_pass(buffer, stride_bytes, count, steady);
  attach_pmu(pmu);
}

void Hierarchy::run_cost(const Buffer& buffer, std::size_t stride_bytes,
                         std::size_t count, std::size_t nloops,
                         RunCost& out) {
  const std::uint64_t later = nloops > 0 ? nloops - 1 : 0;
  if (nested_) {
    out.later.resize(1);
    two_pass(buffer, stride_bytes, count, out.cold, out.later[0].cost);
    out.later[0].passes = later;
    return;
  }

  // Simulate pass 2, 3, ... from empty caches until the replacement
  // state after a pass equals the state after an earlier one: the passes
  // between them then repeat for the rest of the run.
  pmu::PmuFile* const pmu = pmu_;
  attach_pmu(nullptr);
  flush();
  stream_pass(buffer, stride_bytes, count, out.cold);
  std::vector<PassCost> passes;                // pass 2 + i at [i]
  std::vector<std::vector<std::uint64_t>> states(1);  // after pass 1 + i
  append_state(states[0]);
  std::size_t cycle = 0, period = 0;  // passes[cycle, cycle + period) repeat
  std::vector<std::uint64_t> state;
  while (passes.size() < std::max<std::uint64_t>(later, 1)) {
    stream_pass(buffer, stride_bytes, count, passes.emplace_back());
    if (passes.size() == later || states.size() >= kMaxTrackedStates) {
      continue;
    }
    state.clear();
    append_state(state);
    const auto seen = std::find(states.begin(), states.end(), state);
    if (seen != states.end()) {
      cycle = static_cast<std::size_t>(seen - states.begin());
      period = passes.size() - cycle;
      break;
    }
    states.push_back(state);
  }
  attach_pmu(pmu);

  // Pass counts: each simulated pass once (pass 2 not at all when
  // nloops == 1), plus the unsimulated rest spread over the cycle.
  const std::uint64_t rest = later > passes.size() ? later - passes.size() : 0;
  out.later.clear();
  for (std::size_t i = 0; i < passes.size(); ++i) {
    std::uint64_t times = later == 0 ? 0 : 1;
    if (period > 0 && i >= cycle) {
      times += rest / period + ((i - cycle) < rest % period ? 1 : 0);
    }
    const auto same = std::find_if(
        out.later.begin(), out.later.end(), [&](const RunCost::Repeat& r) {
          return r.cost.accesses == passes[i].accesses &&
                 r.cost.stall_cycles == passes[i].stall_cycles &&
                 r.cost.hits_by_level == passes[i].hits_by_level;
        });
    if (same != out.later.end()) {
      same->passes += times;
    } else {
      out.later.push_back({std::move(passes[i]), times});
    }
  }
}

void Hierarchy::account_run(const RunCost& cost) noexcept {
  account_pass(cost.cold, 1);
  for (const RunCost::Repeat& r : cost.later) account_pass(r.cost, r.passes);
}

void Hierarchy::append_state(std::vector<std::uint64_t>& out) const {
  for (const Cache& cache : caches_) cache.append_state(out);
}

bool Hierarchy::closed_form_applies(const Buffer& buffer,
                                    std::size_t stride_bytes,
                                    std::size_t count) {
  const std::size_t line = caches_.front().spec().line_bytes;
  for (const Cache& cache : caches_) {
    if (cache.spec().line_bytes != line) return false;
  }
  if (buffer.page_bytes() % line != 0) return false;
  // No wrap: the last access, (count - 1) * stride, stays below size.
  if (count > 0 && stride_bytes > 0 &&
      count - 1 > (buffer.size() - 1) / stride_bytes) {
    return false;
  }
  // Distinct frames over the pages the buffer spans, so distinct virtual
  // lines are distinct physical lines: one pass over a bitmap of the
  // frame numbers.  They are dense when they come from an allocator's
  // pool; frames too sparse for an O(pages) bitmap go unchecked, and so
  // take the simulated path.
  const std::size_t page = buffer.page_bytes();
  const std::uint32_t* lo = buffer.frames().data() + buffer.offset() / page;
  const std::uint32_t* hi = buffer.frames().data() +
                            (buffer.offset() + buffer.size() - 1) / page + 1;
  const std::size_t words = *std::max_element(lo, hi) / 64 + 1;
  if (words > 4 * static_cast<std::size_t>(hi - lo) + 64) return false;
  frame_scratch_.assign(words, 0);
  for (const std::uint32_t* f = lo; f != hi; ++f) {
    std::uint64_t& word = frame_scratch_[*f / 64];
    const std::uint64_t bit = std::uint64_t{1} << (*f % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
  }
  return true;
}

void Hierarchy::closed_form_cost(const Buffer& buffer,
                                 std::size_t stride_bytes, std::size_t count,
                                 PassCost& cold, PassCost& steady) {
  const std::size_t levels = caches_.size();
  std::fill(set_counts_.begin(), set_counts_.end(), SetCounts{});
  const Cache& l1 = caches_.front();
  // Each level's geometry and counter base, copied into locals: the
  // sweeps' u32 counter stores cannot then force reloads of them.
  struct Level {
    SetIndex index;
    std::size_t base = 0;
    std::uint32_t ways = 0;
  };
  std::array<Level, kMaxLevels> lv;
  for (std::size_t k = 0; k < levels; ++k) {
    lv[k] = {caches_[k].set_index(), set_base_[k],
             static_cast<std::uint32_t>(caches_[k].spec().ways)};
  }
  SetCounts* const counts = set_counts_.data();

  // Cold pass: each walk is the first touch of its line, so it misses
  // every level; the collapsed rest of its run are L1 hits.  The sweep
  // also counts every set's lines.  Stall is summed in walk order, as
  // stream_pass sums it, so the double is bit-identical.
  cold.hits_by_level.assign(levels + 1, 0);
  double stall = 0.0;
  const double memory_stall = stall_[levels];
  std::uint64_t lines = 0;
  for_each_walk(buffer, stride_bytes, count, l1,
                [&](std::uint64_t paddr, std::size_t) {
                  for (std::size_t k = 0; k < levels; ++k) {
                    ++counts[lv[k].base + lv[k].index.set_of(paddr)].rem;
                  }
                  ++lines;
                  stall += memory_stall;
                });
  cold.accesses = count;
  cold.hits_by_level[0] = count - lines;
  cold.hits_by_level[levels] = lines;
  cold.stall_cycles = static_cast<std::uint64_t>(stall);

  // Steady pass: once line y's walk has decremented it, `rem` counts the
  // lines after y in its level-k set (all touched at level k since y, in
  // the cold pass) and `reached` the lines before y there that reached
  // level k this pass.  Those are the distinct lines level k saw in y's
  // set since y, so y hits there iff their sum is below the ways.  y
  // reaches every level down to its hit level; every level's `rem`
  // drops, reached or not.
  steady.hits_by_level.assign(levels + 1, 0);
  stall = 0.0;
  for_each_walk(buffer, stride_bytes, count, l1,
                [&](std::uint64_t paddr, std::size_t run) {
                  std::size_t level = levels;
                  for (std::size_t k = 0; k < levels; ++k) {
                    SetCounts& set =
                        counts[lv[k].base + lv[k].index.set_of(paddr)];
                    --set.rem;
                    if (level == levels) {
                      if (set.rem + set.reached < lv[k].ways) level = k;
                      ++set.reached;
                    }
                  }
                  ++steady.hits_by_level[level];
                  steady.hits_by_level[0] += run - 1;
                  stall += stall_[level];
                });
  steady.accesses = count;
  steady.stall_cycles = static_cast<std::uint64_t>(stall);
}

void Hierarchy::flush() noexcept {
  for (auto& cache : caches_) cache.flush();
}

}  // namespace cal::sim::mem
