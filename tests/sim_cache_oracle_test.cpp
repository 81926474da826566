// Differential property: the cache simulator's fast path against a
// reference model.
//
// The reference below is the straightforward per-access model: one
// 64-bit LRU stamp per way and a global clock, three divisions per level
// per access, and one page-table walk per access.  sim::mem::Cache and
// Hierarchy::stream_pass must agree with it bit for bit -- per-pass
// hits_by_level and stall_cycles, per-level hits()/misses(), every PMU
// event -- over machines x geometries x sizes x strides x page policies
// x buffer offsets, with interleaved single accesses (the pointer-chase
// path) and with and without flushes between passes.  The closed-form
// Hierarchy::steady_state_cost is held to the same reference: flush plus
// two reference passes, from empty caches; Hierarchy::run_cost to flush
// plus all nloops reference passes, on nested geometries (where it
// charges pass 2 for every later pass) and crossed ones (where it finds
// the repeating cycle).  Fixed seed, fixed iteration budget: a failure
// reproduces exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "sim/machine.hpp"
#include "sim/mem/hierarchy.hpp"
#include "sim/mem/page_allocator.hpp"
#include "sim/pmu/pmu.hpp"

namespace cal::sim::mem {
namespace {

// --- Reference model ---------------------------------------------------------

class RefCache {
 public:
  explicit RefCache(const CacheLevelSpec& spec)
      : spec_(spec),
        sets_(spec.sets()),
        ways_(spec.ways),
        tags_(sets_ * ways_, kInvalidTag),
        stamp_(sets_ * ways_, 0) {}

  bool access(std::uint64_t paddr) {
    const std::uint64_t line = paddr / spec_.line_bytes;
    const std::size_t set = static_cast<std::size_t>(line % sets_);
    const std::uint64_t tag = line / sets_;
    const std::size_t base = set * ways_;
    ++clock_;
    std::size_t victim = 0;
    std::uint64_t victim_stamp = ~0ULL;
    for (std::size_t w = 0; w < ways_; ++w) {
      const std::size_t slot = base + w;
      if (tags_[slot] == tag) {
        stamp_[slot] = clock_;
        ++hits_;
        if (pmu_ != nullptr) pmu_->count(hit_);
        return true;
      }
      if (tags_[slot] == kInvalidTag) {
        victim = w;
        victim_stamp = 0;
        continue;
      }
      if (stamp_[slot] < victim_stamp) {
        victim = w;
        victim_stamp = stamp_[slot];
      }
    }
    ++misses_;
    if (pmu_ != nullptr) pmu_->count(miss_);
    tags_[base + victim] = tag;
    stamp_[base + victim] = clock_;
    return false;
  }

  void flush() {
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(stamp_.begin(), stamp_.end(), 0);
  }

  void attach_pmu(pmu::PmuFile* file, pmu::Event hit, pmu::Event miss) {
    pmu_ = file;
    hit_ = hit;
    miss_ = miss;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  static constexpr std::uint64_t kInvalidTag = ~0ULL;

  CacheLevelSpec spec_;
  std::size_t sets_;
  std::size_t ways_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  pmu::PmuFile* pmu_ = nullptr;
  pmu::Event hit_ = pmu::Event::kL1Hits;
  pmu::Event miss_ = pmu::Event::kL1Misses;
};

class RefHierarchy {
 public:
  explicit RefHierarchy(const MachineSpec& machine) {
    for (const auto& level : machine.caches) caches_.emplace_back(level);
    stall_.assign(caches_.size() + 1, 0.0);
    for (std::size_t i = 1; i < caches_.size(); ++i) {
      stall_[i] = machine.caches[i - 1].miss_stall_cycles;
    }
    stall_[caches_.size()] =
        machine.memory_stall_cycles / std::max(machine.memory_mlp, 1.0);
  }

  void attach_pmu(pmu::PmuFile* file) {
    pmu_ = file;
    for (std::size_t i = 0; i < caches_.size(); ++i) {
      if (i == 0) {
        caches_[i].attach_pmu(file, pmu::Event::kL1Hits,
                              pmu::Event::kL1Misses);
      } else if (i + 1 == caches_.size()) {
        caches_[i].attach_pmu(file, pmu::Event::kLlcHits,
                              pmu::Event::kLlcMisses);
      } else {
        caches_[i].attach_pmu(file, pmu::Event::kL2Hits,
                              pmu::Event::kL2Misses);
      }
    }
  }

  std::size_t access(std::uint64_t paddr) {
    for (std::size_t i = 0; i < caches_.size(); ++i) {
      if (caches_[i].access(paddr)) return i;
    }
    return caches_.size();
  }

  PassCost stream_pass(const Buffer& buffer, std::size_t stride_bytes,
                       std::size_t count) {
    PassCost out;
    out.hits_by_level.assign(caches_.size() + 1, 0);
    double stall = 0.0;
    std::size_t offset = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t level = access(buffer.translate(offset));
      ++out.hits_by_level[level];
      stall += stall_[level];
      // Wrap modulo the size.  (The model this reference preserves
      // subtracted the size once, which leaves the buffer -- and reads
      // past its page list -- for strides larger than the buffer.)
      offset = (offset + stride_bytes) % buffer.size();
    }
    out.accesses = count;
    out.stall_cycles = static_cast<std::uint64_t>(stall);
    if (pmu_ != nullptr) {
      pmu_->count(pmu::Event::kMemAccesses, out.hits_by_level.back());
      pmu_->count(pmu::Event::kStallCycles, out.stall_cycles);
    }
    return out;
  }

  void flush() {
    for (auto& cache : caches_) cache.flush();
  }

  const RefCache& level(std::size_t i) const { return caches_.at(i); }

 private:
  std::vector<RefCache> caches_;
  std::vector<double> stall_;
  pmu::PmuFile* pmu_ = nullptr;
};

// --- Inputs -----------------------------------------------------------------

/// The four paper machines plus two geometries the shift/mask path
/// cannot take: a non-power-of-two set count, and a non-power-of-two
/// line size (whose lines straddle 4 KB pages); and one whose levels'
/// set indices cross.
std::vector<MachineSpec> oracle_machines() {
  std::vector<MachineSpec> out = machines::all();
  MachineSpec odd_sets = machines::core_i7_2600();
  odd_sets.name = "odd_sets";
  odd_sets.caches = {{"L1", 12 * 1024, 64, 4, 4.0},     // 48 sets
                     {"L2", 96 * 1024, 64, 8, 12.0},    // 192 sets
                     {"L3", 768 * 1024, 64, 16, 30.0}};  // 768 sets
  out.push_back(odd_sets);
  MachineSpec odd_lines = machines::arm_snowball();
  odd_lines.name = "odd_lines";
  odd_lines.caches = {{"L1", 48 * 64, 48, 2, 6.0},        // 32 sets
                      {"L2", 48 * 1024, 48, 4, 20.0}};   // 256 sets
  out.push_back(odd_lines);
  // Set indices that do not nest, and levels no larger than the one
  // above: each L2 set gathers four L1 sets and the L3 set count is a
  // multiple of neither, so a set can overflow while some of its lines
  // hit above and never reach it.
  MachineSpec crossed_sets = machines::core_i7_2600();
  crossed_sets.name = "crossed_sets";
  crossed_sets.caches = {{"L1", 8 * 1024, 64, 2, 4.0},     // 64 sets
                         {"L2", 8 * 1024, 64, 8, 12.0},    // 16 sets
                         {"L3", 20 * 1024, 64, 8, 30.0}};  // 40 sets
  out.push_back(crossed_sets);
  return out;
}

std::size_t draw_stride(Rng& rng, std::size_t line, std::size_t size) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return static_cast<std::size_t>(rng.uniform_int(1, 4)) * 4;
    case 1:  // any sub-line stride, including odd ones
      return static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(line) - 1));
    case 2: return line;
    case 3:  // multi-line, aligned or not
      return line * static_cast<std::size_t>(rng.uniform_int(2, 17)) +
             (rng.bernoulli(0.5)
                  ? static_cast<std::size_t>(rng.uniform_int(1, 31))
                  : 0);
    case 4: return size;  // every access lands on offset 0
    default:              // larger than the buffer (wraps every access)
      return size + static_cast<std::size_t>(rng.uniform_int(
                        1, 3 * static_cast<std::int64_t>(size)));
  }
}

/// A buffer of log-uniform size up to `max_size` on frames granted by a
/// fresh `policy` allocator.  Half the time it starts, big-block style,
/// at an arbitrary (possibly odd) byte offset into its first page.
Buffer draw_buffer(Rng& rng, const MachineSpec& machine,
                   std::size_t max_size, PagePolicy policy) {
  const std::size_t size = static_cast<std::size_t>(
      rng.log_uniform_int(2, static_cast<std::int64_t>(max_size)));
  const std::size_t offset =
      rng.bernoulli(0.5)
          ? 0
          : static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(machine.page_bytes) - 1));
  const std::size_t pages =
      (offset + size + machine.page_bytes - 1) / machine.page_bytes;
  Rng pool_rng(rng.next_u64());
  PageAllocator allocator(
      pages + 64, policy, pool_rng,
      std::max<std::size_t>(
          machine.l1().size_bytes / machine.l1().ways / machine.page_bytes,
          1));
  return Buffer(allocator.allocate(pages), machine.page_bytes, size, offset);
}

std::string describe(const MachineSpec& machine, PagePolicy policy,
                     std::size_t size, std::size_t offset, std::size_t stride,
                     std::size_t count, bool pmu_on, int iteration) {
  std::ostringstream os;
  os << "iteration " << iteration << " machine=" << machine.name
     << " policy=" << static_cast<int>(policy) << " size=" << size
     << " offset=" << offset << " stride=" << stride << " count=" << count
     << " pmu=" << pmu_on;
  return os.str();
}

void expect_same_cost(const PassCost& fast, const PassCost& ref,
                      const std::string& where) {
  EXPECT_EQ(fast.accesses, ref.accesses) << where;
  EXPECT_EQ(fast.stall_cycles, ref.stall_cycles) << where;
  EXPECT_EQ(fast.hits_by_level, ref.hits_by_level) << where;
}

void expect_same_state(const Hierarchy& fast, const RefHierarchy& ref,
                       const pmu::PmuFile& fast_pmu,
                       const pmu::PmuFile& ref_pmu, const std::string& where) {
  for (std::size_t i = 0; i < fast.level_count(); ++i) {
    EXPECT_EQ(fast.level(i).hits(), ref.level(i).hits())
        << where << " level " << i;
    EXPECT_EQ(fast.level(i).misses(), ref.level(i).misses())
        << where << " level " << i;
  }
  for (const pmu::Event e : pmu::all_events()) {
    EXPECT_EQ(fast_pmu.value(e), ref_pmu.value(e))
        << where << " pmu." << pmu::event_name(e);
  }
}

// --- The property -----------------------------------------------------------

constexpr int kIterationsPerMachine = 200;
constexpr std::size_t kMaxCount = 1 << 16;

TEST(SimCacheOracle, FastPathMatchesReferenceBitForBit) {
  Rng rng(0x0A11CE5);
  const PagePolicy policies[] = {PagePolicy::kRandomPool,
                                 PagePolicy::kSequential,
                                 PagePolicy::kColored};
  for (const MachineSpec& machine : oracle_machines()) {
    const std::size_t line = machine.l1().line_bytes;
    const std::size_t llc = machine.caches.back().size_bytes;
    const std::size_t max_size = std::min<std::size_t>(
        llc * 5 / 2, std::size_t{4} << 20);
    Hierarchy fast(machine);
    RefHierarchy ref(machine);
    pmu::PmuFile fast_pmu;
    pmu::PmuFile ref_pmu;
    for (int it = 0; it < kIterationsPerMachine; ++it) {
      const PagePolicy policy = policies[it % 3];
      const bool pmu_on = rng.bernoulli(0.5);
      fast.attach_pmu(pmu_on ? &fast_pmu : nullptr);
      ref.attach_pmu(pmu_on ? &ref_pmu : nullptr);

      const Buffer buffer = draw_buffer(rng, machine, max_size, policy);
      const std::size_t size = buffer.size();
      const std::size_t offset = buffer.offset();
      const std::size_t stride = draw_stride(rng, line, size);
      // One pass reads size/stride elements; sometimes run past the
      // end so the stream wraps mid-pass.
      std::size_t count = std::max<std::size_t>(size / stride, 1);
      if (rng.bernoulli(0.25)) {
        count = count * 2 +
                static_cast<std::size_t>(rng.uniform_int(1, 7));
      }
      count = std::min(count, kMaxCount);
      const std::string where = describe(machine, policy, size, offset,
                                         stride, count, pmu_on, it);

      // Like MemSystem::measure: flush, cold pass, steady pass -- but
      // now and then keep the previous case's lines warm instead.
      if (rng.bernoulli(0.8)) {
        fast.flush();
        ref.flush();
      }
      for (int pass = 0; pass < 2; ++pass) {
        expect_same_cost(fast.stream_pass(buffer, stride, count),
                         ref.stream_pass(buffer, stride, count),
                         where + " pass " + std::to_string(pass));
      }
      // Pointer-chase style single accesses, then one more pass over
      // the disturbed state.
      const int singles = static_cast<int>(rng.uniform_int(0, 64));
      for (int s = 0; s < singles; ++s) {
        const std::uint64_t paddr = buffer.translate(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size) - 1)));
        ASSERT_EQ(fast.access(paddr), ref.access(paddr))
            << where << " single access " << s;
      }
      expect_same_cost(fast.stream_pass(buffer, stride, count),
                       ref.stream_pass(buffer, stride, count),
                       where + " pass 2");
      expect_same_state(fast, ref, fast_pmu, ref_pmu, where);
      if (HasFailure()) return;
    }
  }
}

// --- The closed-form two-pass cost -------------------------------------------

/// Hierarchy::steady_state_cost against the reference from empty caches:
/// the cold and steady PassCost must equal flush + two reference passes,
/// steady_state_cost must count nothing into the attached PMU, and
/// account_pass(cold, 1) + account_pass(steady, 1) must count exactly
/// what the reference counts over those two passes.  `fast` is reused across
/// calls, so a warm hierarchy must still give the empty-cache answer.
void expect_steady_state_cost_matches(Hierarchy& fast,
                                      const MachineSpec& machine,
                                      const Buffer& buffer,
                                      std::size_t stride, std::size_t count,
                                      const std::string& where) {
  pmu::PmuFile fast_pmu;
  pmu::PmuFile ref_pmu;
  fast.attach_pmu(&fast_pmu);
  RefHierarchy ref(machine);
  ref.attach_pmu(&ref_pmu);

  const Hierarchy::SteadyCost cost =
      fast.steady_state_cost(buffer, stride, count);
  for (const pmu::Event e : pmu::all_events()) {
    EXPECT_EQ(fast_pmu.value(e), 0u)
        << where << " steady_state_cost counted pmu." << pmu::event_name(e);
  }
  expect_same_cost(cost.cold, ref.stream_pass(buffer, stride, count),
                   where + " cold");
  expect_same_cost(cost.steady, ref.stream_pass(buffer, stride, count),
                   where + " steady");

  fast.account_pass(cost.cold, 1);
  fast.account_pass(cost.steady, 1);
  for (const pmu::Event e : pmu::all_events()) {
    EXPECT_EQ(fast_pmu.value(e), ref_pmu.value(e))
        << where << " pmu." << pmu::event_name(e);
  }
  fast.attach_pmu(nullptr);
}

TEST(SimCacheOracle, SteadyStateCostMatchesReferenceFromEmptyCaches) {
  Rng rng(0x5EADC057);
  const PagePolicy policies[] = {PagePolicy::kRandomPool,
                                 PagePolicy::kSequential,
                                 PagePolicy::kColored};
  constexpr int kCasesPerMachine = 120;
  for (const MachineSpec& machine : oracle_machines()) {
    const std::size_t line = machine.l1().line_bytes;
    const std::size_t max_size = std::min<std::size_t>(
        machine.caches.back().size_bytes * 5 / 2, std::size_t{4} << 20);
    Hierarchy fast(machine);
    for (int it = 0; it < kCasesPerMachine; ++it) {
      const PagePolicy policy = policies[it % 3];
      const Buffer buffer = draw_buffer(rng, machine, max_size, policy);
      const std::size_t size = buffer.size();
      // A MultiMAPS pass reads size/stride elements; widen the stride of
      // a huge buffer to keep the reference's per-access walk affordable.
      std::size_t stride = draw_stride(rng, line, size);
      while (size / stride > kMaxCount) stride *= 2;
      const std::size_t count = std::max<std::size_t>(size / stride, 1);
      expect_steady_state_cost_matches(
          fast, machine, buffer, stride, count,
          describe(machine, policy, size, buffer.offset(), stride, count,
                   true, it));
      if (HasFailure()) return;
    }
  }
}

TEST(SimCacheOracle, SteadyStateCostFallbacksMatchReference) {
  // One input per precondition the closed form checks; each must take
  // the simulated path and still equal the reference.
  Rng rng(17);
  const auto random_buffer = [&rng](const MachineSpec& machine,
                                    std::size_t size) {
    PageAllocator allocator(size / machine.page_bytes + 64,
                            PagePolicy::kRandomPool, rng);
    return Buffer(allocator.allocate(size / machine.page_bytes + 1),
                  machine.page_bytes, size, 40);
  };

  // 48 B lines straddle 4 KB pages.
  MachineSpec odd_lines;
  for (const MachineSpec& machine : oracle_machines()) {
    if (machine.name == "odd_lines") odd_lines = machine;
  }
  Hierarchy odd(odd_lines);
  expect_steady_state_cost_matches(odd, odd_lines,
                                   random_buffer(odd_lines, 96 * 1024), 48,
                                   2048, "odd_lines");

  // Levels with different line sizes: two L1 lines share one L2 line.
  MachineSpec mixed = machines::core_i7_2600();
  mixed.caches[1].line_bytes = 128;
  mixed.caches[1].ways = 4;
  Hierarchy mixed_h(mixed);
  expect_steady_state_cost_matches(mixed_h, mixed,
                                   random_buffer(mixed, 512 * 1024), 64,
                                   8192, "mixed line sizes");

  // Pages 0 and 2 map the same frame: their lines alias.
  const MachineSpec i7 = machines::core_i7_2600();
  Hierarchy i7_h(i7);
  const Buffer aliased({5, 9, 5, 2}, 4096, 4 * 4096);
  expect_steady_state_cost_matches(i7_h, i7, aliased, 64, 256,
                                   "repeated frame");
  expect_steady_state_cost_matches(i7_h, i7, aliased, 8, 2048,
                                   "repeated frame, sub-line stride");

  // The pass wraps: every line is touched in more than one run.
  expect_steady_state_cost_matches(i7_h, i7, random_buffer(i7, 64 * 1024),
                                   64, 2 * 1024 + 3, "wrapping count");
}

// --- Every pass of an nloops run ---------------------------------------------

/// Hierarchy::run_cost against flush + `nloops` reference passes: the
/// cold pass, the distinct later costs with their pass counts (in order
/// of first occurrence, pass 2 first), and, through account_run, every
/// PMU event the reference counts over the whole run.
void expect_run_cost_matches(Hierarchy& fast, const MachineSpec& machine,
                             const Buffer& buffer, std::size_t stride,
                             std::size_t count, std::size_t nloops,
                             const std::string& where) {
  pmu::PmuFile fast_pmu;
  pmu::PmuFile ref_pmu;
  RefHierarchy ref(machine);
  ref.attach_pmu(&ref_pmu);
  const PassCost ref_cold = ref.stream_pass(buffer, stride, count);
  std::vector<PassCost> ref_later;
  std::vector<std::uint64_t> ref_times;
  const auto same = [](const PassCost& a, const PassCost& b) {
    return a.accesses == b.accesses && a.stall_cycles == b.stall_cycles &&
           a.hits_by_level == b.hits_by_level;
  };
  for (std::size_t pass = 2; pass <= std::max<std::size_t>(nloops, 2);
       ++pass) {
    if (pass > nloops) ref.attach_pmu(nullptr);  // pass 2 as a diagnostic
    const PassCost cost = ref.stream_pass(buffer, stride, count);
    const std::uint64_t times = pass <= nloops ? 1 : 0;
    const auto seen =
        std::find_if(ref_later.begin(), ref_later.end(),
                     [&](const PassCost& c) { return same(c, cost); });
    if (seen == ref_later.end()) {
      ref_later.push_back(cost);
      ref_times.push_back(times);
    } else {
      ref_times[static_cast<std::size_t>(seen - ref_later.begin())] += times;
    }
  }

  Hierarchy::RunCost run;
  fast.attach_pmu(&fast_pmu);
  fast.run_cost(buffer, stride, count, nloops, run);
  for (const pmu::Event e : pmu::all_events()) {
    EXPECT_EQ(fast_pmu.value(e), 0u)
        << where << " run_cost counted pmu." << pmu::event_name(e);
  }
  expect_same_cost(run.cold, ref_cold, where + " cold");
  ASSERT_EQ(run.later.size(), ref_later.size()) << where;
  for (std::size_t i = 0; i < ref_later.size(); ++i) {
    expect_same_cost(run.later[i].cost, ref_later[i],
                     where + " later cost " + std::to_string(i));
    EXPECT_EQ(run.later[i].passes, ref_times[i])
        << where << " later cost " << i;
  }
  fast.account_run(run);
  for (const pmu::Event e : pmu::all_events()) {
    EXPECT_EQ(fast_pmu.value(e), ref_pmu.value(e))
        << where << " pmu." << pmu::event_name(e);
  }
  fast.attach_pmu(nullptr);
}

/// A random 2- or 3-level geometry with small set counts (so most pairs
/// of levels cross), a common line size, and now and then a second one.
MachineSpec random_geometry(Rng& rng, int index) {
  MachineSpec machine = machines::core_i7_2600();
  machine.name = "random_" + std::to_string(index);
  const std::size_t line = rng.bernoulli(0.8) ? 64 : 32;
  const int levels = static_cast<int>(rng.uniform_int(2, 3));
  machine.caches.clear();
  for (int k = 0; k < levels; ++k) {
    CacheLevelSpec level;
    level.name = "L" + std::to_string(k + 1);
    level.line_bytes = line;
    if (k > 0 && rng.bernoulli(0.1)) level.line_bytes = line * 2;
    level.ways = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const std::size_t sets = static_cast<std::size_t>(rng.uniform_int(1, 48));
    level.size_bytes = level.line_bytes * level.ways * sets;
    level.miss_stall_cycles = 4.0 + 9.0 * k;
    machine.caches.push_back(level);
  }
  return machine;
}

TEST(SimCacheOracle, RunCostMatchesEveryReferencePass) {
  Rng rng(0x4E100B5);
  const PagePolicy policies[] = {PagePolicy::kRandomPool,
                                 PagePolicy::kSequential,
                                 PagePolicy::kColored};
  std::vector<MachineSpec> machines = oracle_machines();
  for (int g = 0; g < 24; ++g) machines.push_back(random_geometry(rng, g));
  std::size_t crossed_cases = 0, cycles_past_pass_2 = 0;
  for (const MachineSpec& machine : machines) {
    Hierarchy fast(machine);
    const std::size_t line = machine.l1().line_bytes;
    const std::size_t max_size = std::min<std::size_t>(
        machine.caches.back().size_bytes * 3, std::size_t{1} << 20);
    const int cases = fast.nested() ? 16 : 40;
    for (int it = 0; it < cases; ++it) {
      const PagePolicy policy = policies[it % 3];
      const Buffer buffer = draw_buffer(rng, machine, max_size, policy);
      const std::size_t size = buffer.size();
      std::size_t stride = draw_stride(rng, line, size);
      while (size / stride > 8192) stride *= 2;
      std::size_t count = std::max<std::size_t>(size / stride, 1);
      if (rng.bernoulli(0.2)) count += count / 2 + 1;  // wraps mid-pass
      const std::size_t nloops =
          static_cast<std::size_t>(rng.uniform_int(1, 8));
      expect_run_cost_matches(
          fast, machine, buffer, stride, count, nloops,
          describe(machine, policy, size, buffer.offset(), stride, count,
                   true, it) +
              " nloops=" + std::to_string(nloops));
      if (HasFailure()) return;
      if (!fast.nested()) {
        ++crossed_cases;
        Hierarchy::RunCost run;
        fast.run_cost(buffer, stride, count, 8, run);
        if (run.later.size() > 1) ++cycles_past_pass_2;
      }
    }
  }
  // The crossed geometries really exercised the cycle search: some runs
  // have a later pass that costs other than pass 2.
  EXPECT_GT(crossed_cases, 400u);
  EXPECT_GT(cycles_past_pass_2, 0u);
}

TEST(SimCacheOracle, PaperMachinesNestAndCrossedSetsDoNot) {
  for (const MachineSpec& machine : machines::all()) {
    EXPECT_TRUE(Hierarchy(machine).nested()) << machine.name;
  }
  for (const MachineSpec& machine : oracle_machines()) {
    if (machine.name == "crossed_sets") {
      EXPECT_FALSE(Hierarchy(machine).nested());
    }
  }
  MachineSpec mixed = machines::core_i7_2600();  // two line sizes
  mixed.caches[1].line_bytes = 128;
  mixed.caches[1].ways = 4;
  EXPECT_FALSE(Hierarchy(mixed).nested());
}

TEST(SimCacheOracle, SameLineRunsAreCountedAsL1Hits) {
  // 8-byte stride over a 4 KB buffer: one walk per 64 B line, seven
  // collapsed L1 hits behind it -- the counts must not show it.
  const MachineSpec machine = machines::core_i7_2600();
  Hierarchy fast(machine);
  RefHierarchy ref(machine);
  pmu::PmuFile fast_pmu;
  pmu::PmuFile ref_pmu;
  fast.attach_pmu(&fast_pmu);
  ref.attach_pmu(&ref_pmu);
  const Buffer buffer({3, 1}, 4096, 4096, 8);  // unaligned, two frames
  const PassCost cold = fast.stream_pass(buffer, 8, 512);
  expect_same_cost(cold, ref.stream_pass(buffer, 8, 512), "cold");
  EXPECT_EQ(cold.hits_by_level[0], 512u - 65u);  // 65 lines touched
  expect_same_state(fast, ref, fast_pmu, ref_pmu, "after cold pass");
}

}  // namespace
}  // namespace cal::sim::mem
