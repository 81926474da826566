#include "query/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "io/archive/column_codec.hpp"
#include "io/csv.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "stats/descriptive.hpp"

namespace cal::query {

namespace ar = io::archive;

std::string Aggregate::label() const {
  switch (kind) {
    case AggKind::kCount: return "count";
    case AggKind::kSum: return "sum(" + metric + ")";
    case AggKind::kMean: return "mean(" + metric + ")";
    case AggKind::kSd: return "sd(" + metric + ")";
    case AggKind::kMin: return "min(" + metric + ")";
    case AggKind::kMax: return "max(" + metric + ")";
  }
  return "?";
}

std::optional<Aggregate> parse_aggregate(const std::string& text) {
  if (text == "count") return Aggregate{AggKind::kCount, ""};
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos || colon + 1 >= text.size()) {
    return std::nullopt;
  }
  const std::string kind = text.substr(0, colon);
  const std::string metric = text.substr(colon + 1);
  if (kind == "sum") return Aggregate{AggKind::kSum, metric};
  if (kind == "mean") return Aggregate{AggKind::kMean, metric};
  if (kind == "sd") return Aggregate{AggKind::kSd, metric};
  if (kind == "min") return Aggregate{AggKind::kMin, metric};
  if (kind == "max") return Aggregate{AggKind::kMax, metric};
  return std::nullopt;
}

namespace {

// --- bound columns and compiled predicates ----------------------------------

/// Compiled predicate node: schema-resolved column ids, bind-time
/// constant folding already applied (kConst subsumes whole decided
/// subtrees).
struct Node {
  enum class Kind { kCmp, kAnd, kOr, kNot, kConst };
  Kind kind = Kind::kConst;
  std::size_t column = 0;  ///< kCmp: column id of the block image
  CmpOp op = CmpOp::kEq;
  Value literal;
  bool truth = true;  ///< kConst
  std::unique_ptr<Node> lhs, rhs;
};

using NodePtr = std::unique_ptr<Node>;

NodePtr make_const(bool truth) {
  auto n = std::make_unique<Node>();
  n->kind = Node::Kind::kConst;
  n->truth = truth;
  return n;
}

/// The bundle schema in column ids (io::archive's block-image order).
struct Schema {
  const ar::Manifest& manifest;

  std::size_t n_factors() const { return manifest.factor_names.size(); }
  std::size_t columns() const {
    return ar::block_columns(n_factors(), manifest.metric_names.size());
  }
  bool is_factor(std::size_t id) const {
    return id >= ar::kFirstFactorColumn &&
           id < ar::kFirstFactorColumn + n_factors();
  }
  bool is_metric(std::size_t id) const {
    return id >= ar::kFirstFactorColumn + n_factors();
  }

  std::optional<std::size_t> find(const std::string& name) const {
    const auto& factors = manifest.factor_names;
    const auto& metrics = manifest.metric_names;
    for (std::size_t i = 0; i < factors.size(); ++i) {
      if (factors[i] == name) return ar::kFirstFactorColumn + i;
    }
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (metrics[i] == name) return ar::kFirstFactorColumn + n_factors() + i;
    }
    return std::nullopt;
  }

  /// Column ids of the named group-by factors.
  std::vector<std::size_t> factors(
      const std::vector<std::string>& names) const {
    std::vector<std::size_t> ids;
    for (const std::string& name : names) {
      const auto id = find(name);
      if (!id || !is_factor(*id)) {
        throw std::out_of_range("query: group-by column '" + name +
                                "' is not a factor of the bundle");
      }
      ids.push_back(*id);
    }
    return ids;
  }
};

std::size_t resolve(const ColumnRef& ref, const Schema& schema) {
  // Schema names shadow the reserved bookkeeping names, so a campaign
  // with a factor literally called "cell" stays addressable.
  if (const auto named = schema.find(ref.name)) return *named;
  switch (ref.kind) {
    case ColumnKind::kSequence: return ar::kSequenceColumn;
    case ColumnKind::kCellIndex: return ar::kCellColumn;
    case ColumnKind::kReplicate: return ar::kReplicateColumn;
    case ColumnKind::kTimestamp: return ar::kTimestampColumn;
    case ColumnKind::kNamed: break;
  }
  throw std::out_of_range("query: unknown column '" + ref.name +
                          "' (not a factor, metric, or bookkeeping name)");
}

NodePtr compile(const Expr& e, const Schema& schema) {
  switch (e.kind()) {
    case Expr::Kind::kCmp: {
      const std::size_t column = resolve(e.column(), schema);
      // Constant folding: a numeric-only column compared to a string
      // literal is decided now -- != matches every record, everything
      // else matches none.
      if (!schema.is_factor(column) && e.literal().is_string()) {
        return make_const(e.op() == CmpOp::kNe);
      }
      auto n = std::make_unique<Node>();
      n->kind = Node::Kind::kCmp;
      n->column = column;
      n->op = e.op();
      n->literal = e.literal();
      return n;
    }
    case Expr::Kind::kAnd: {
      NodePtr a = compile(*e.lhs(), schema);
      NodePtr b = compile(*e.rhs(), schema);
      if (a->kind == Node::Kind::kConst) {
        return a->truth ? std::move(b) : std::move(a);
      }
      if (b->kind == Node::Kind::kConst) {
        return b->truth ? std::move(a) : std::move(b);
      }
      auto n = std::make_unique<Node>();
      n->kind = Node::Kind::kAnd;
      n->lhs = std::move(a);
      n->rhs = std::move(b);
      return n;
    }
    case Expr::Kind::kOr: {
      NodePtr a = compile(*e.lhs(), schema);
      NodePtr b = compile(*e.rhs(), schema);
      if (a->kind == Node::Kind::kConst) {
        return a->truth ? std::move(a) : std::move(b);
      }
      if (b->kind == Node::Kind::kConst) {
        return b->truth ? std::move(b) : std::move(a);
      }
      auto n = std::make_unique<Node>();
      n->kind = Node::Kind::kOr;
      n->lhs = std::move(a);
      n->rhs = std::move(b);
      return n;
    }
    case Expr::Kind::kNot: {
      NodePtr a = compile(*e.lhs(), schema);
      if (a->kind == Node::Kind::kConst) return make_const(!a->truth);
      auto n = std::make_unique<Node>();
      n->kind = Node::Kind::kNot;
      n->lhs = std::move(a);
      return n;
    }
  }
  throw std::logic_error("query: unreachable expression kind");
}

// --- zone-map pruning -------------------------------------------------------

/// Tri-state answer of a zone map: can this block hold matching records?
enum class Tri { kNone, kSome, kAll };

Tri tri_and(Tri a, Tri b) {
  if (a == Tri::kNone || b == Tri::kNone) return Tri::kNone;
  if (a == Tri::kAll && b == Tri::kAll) return Tri::kAll;
  return Tri::kSome;
}

Tri tri_or(Tri a, Tri b) {
  if (a == Tri::kAll || b == Tri::kAll) return Tri::kAll;
  if (a == Tri::kNone && b == Tri::kNone) return Tri::kNone;
  return Tri::kSome;
}

Tri tri_not(Tri a) {
  if (a == Tri::kNone) return Tri::kAll;
  if (a == Tri::kAll) return Tri::kNone;
  return Tri::kSome;
}

Tri zone_cmp(const Node& node, const ar::ColumnStats& stats) {
  using Kind = ar::ColumnStats::Kind;
  if (stats.kind == Kind::kNone) return Tri::kSome;

  if (stats.kind == Kind::kNumeric) {
    // Every record in the block is numeric here (that is what kNumeric
    // asserts), so a string literal decides the block outright.
    if (node.literal.is_string()) {
      return node.op == CmpOp::kNe ? Tri::kAll : Tri::kNone;
    }
    const double d = node.literal.as_real();
    if (std::isnan(d)) return node.op == CmpOp::kNe ? Tri::kAll : Tri::kNone;
    const double mn = stats.min, mx = stats.max;
    switch (node.op) {
      case CmpOp::kEq:
        if (d < mn || d > mx) return Tri::kNone;
        return (mn == mx && mn == d) ? Tri::kAll : Tri::kSome;
      case CmpOp::kNe:
        if (mn == mx && mn == d) return Tri::kNone;
        return (d < mn || d > mx) ? Tri::kAll : Tri::kSome;
      case CmpOp::kLt:
        if (mx < d) return Tri::kAll;
        return mn >= d ? Tri::kNone : Tri::kSome;
      case CmpOp::kLe:
        if (mx <= d) return Tri::kAll;
        return mn > d ? Tri::kNone : Tri::kSome;
      case CmpOp::kGt:
        if (mn > d) return Tri::kAll;
        return mx <= d ? Tri::kNone : Tri::kSome;
      case CmpOp::kGe:
        if (mn >= d) return Tri::kAll;
        return mx < d ? Tri::kNone : Tri::kSome;
    }
    return Tri::kSome;
  }

  // kStrings: the block's complete level membership.  Every record is a
  // string and every listed level occurs, so counting satisfied levels
  // answers exactly.
  if (!node.literal.is_string()) {
    return node.op == CmpOp::kNe ? Tri::kAll : Tri::kNone;
  }
  std::size_t satisfied = 0;
  for (const std::string& level : stats.levels) {
    if (value_compare(Value(level), node.op, node.literal)) ++satisfied;
  }
  if (satisfied == 0) return Tri::kNone;
  return satisfied == stats.levels.size() ? Tri::kAll : Tri::kSome;
}

Tri zone_eval(const Node& node, const ar::BlockStats& stats) {
  switch (node.kind) {
    case Node::Kind::kConst: return node.truth ? Tri::kAll : Tri::kNone;
    case Node::Kind::kCmp: return zone_cmp(node, stats.columns[node.column]);
    case Node::Kind::kAnd:
      return tri_and(zone_eval(*node.lhs, stats), zone_eval(*node.rhs, stats));
    case Node::Kind::kOr:
      return tri_or(zone_eval(*node.lhs, stats), zone_eval(*node.rhs, stats));
    case Node::Kind::kNot: return tri_not(zone_eval(*node.lhs, stats));
  }
  return Tri::kSome;
}

// --- predicate evaluation over typed columns --------------------------------

void collect_needs(const Node& node, ColumnSet& needs) {
  switch (node.kind) {
    case Node::Kind::kCmp: needs.add(node.column); break;
    case Node::Kind::kAnd:
    case Node::Kind::kOr:
      collect_needs(*node.lhs, needs);
      collect_needs(*node.rhs, needs);
      break;
    case Node::Kind::kNot: collect_needs(*node.lhs, needs); break;
    case Node::Kind::kConst: break;
  }
}

simd::Cmp to_simd(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return simd::Cmp::kEq;
    case CmpOp::kNe: return simd::Cmp::kNe;
    case CmpOp::kLt: return simd::Cmp::kLt;
    case CmpOp::kLe: return simd::Cmp::kLe;
    case CmpOp::kGt: return simd::Cmp::kGt;
    case CmpOp::kGe: return simd::Cmp::kGe;
  }
  return simd::Cmp::kEq;
}

/// One comparison node over its typed column: the one place the engine
/// applies value_compare's rules to decoded data.  `refine` is the
/// column-level analogue of && short-circuiting: only records whose
/// mask entry is still set are compared (and cleared on mismatch), so a
/// selective left conjunct spares the right one most of its work.
///
///   coded   the literal meets each level once through value_compare,
///           then the per-record codes map through that truth table;
///   i64     exact int64 compare against an int literal; against a real
///           literal both sides widen to double -- value_compare's rule
///           (truncating the literal would part ways with it at
///           literals like 2^53 + 1 that no double represents);
///   f64     IEEE compare (NaN satisfies only !=);
///   numeric vs a string literal: a kind mismatch, only != holds.
template <bool refine>
void cmp_mask(const Node& node, const DecodedColumns& d,
              std::vector<char>& mask) {
  using Kind = ar::Column::Kind;
  const std::size_t n = d.records;
  const ar::Column& col = d[node.column];
  const CmpOp op = node.op;
  const Value& lit = node.literal;
  const simd::Kernels& kernels = simd::kernels();
  const auto apply = [&](auto&& cmp_at) {
    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (refine) {
        if (mask[i]) mask[i] = cmp_at(i);
      } else {
        mask[i] = cmp_at(i);
      }
    }
  };
  if (col.kind == Kind::kCoded) {
    std::vector<char> truth(col.levels.size());
    for (std::size_t k = 0; k < truth.size(); ++k) {
      truth[k] = value_compare(col.levels[k], op, lit);
    }
    apply([&](std::size_t i) { return truth[col.codes[i]]; });
    return;
  }
  if (lit.is_string()) {
    apply([&](std::size_t) { return op == CmpOp::kNe; });
    return;
  }
  if (col.kind == Kind::kI64 && lit.is_int()) {
    kernels.cmp_mask_i64(col.i64.data(), n, to_simd(op), lit.as_int(),
                         mask.data(), refine);
    return;
  }
  const double* values = col.f64.data();
  std::vector<double> widened;
  if (col.kind == Kind::kI64) {
    widened.assign(col.i64.begin(), col.i64.end());
    values = widened.data();
  }
  kernels.cmp_mask_f64(values, n, to_simd(op), lit.as_real(), mask.data(),
                       refine);
}

void eval_mask(const Node& node, const DecodedColumns& d,
               std::vector<char>& mask);

/// Clears mask entries whose record does not also match `node`, without
/// re-examining records an earlier conjunct already rejected.
void refine_mask(const Node& node, const DecodedColumns& d,
                 std::vector<char>& mask) {
  switch (node.kind) {
    case Node::Kind::kConst:
      if (!node.truth) std::fill(mask.begin(), mask.end(), char{0});
      return;
    case Node::Kind::kCmp:
      cmp_mask<true>(node, d, mask);
      return;
    case Node::Kind::kAnd:
      refine_mask(*node.lhs, d, mask);
      refine_mask(*node.rhs, d, mask);
      return;
    default: {  // kOr / kNot: no per-record guard, intersect a sub-mask
      std::vector<char> sub;
      eval_mask(node, d, sub);
      simd::kernels().mask_and(mask.data(), sub.data(), d.records);
      return;
    }
  }
}

/// Column-at-a-time predicate evaluation over one decoded block: fills
/// `mask` with one 0/1 entry per record.  Match-identical to walking
/// the node tree once per record (&&/|| carry no side effects, so the
/// evaluation order is free), but each comparison runs as a tight loop
/// over its column -- on a cached warm scan this is where the per-query
/// time goes.
void eval_mask(const Node& node, const DecodedColumns& d,
               std::vector<char>& mask) {
  const std::size_t n = d.records;
  mask.resize(n);
  switch (node.kind) {
    case Node::Kind::kConst:
      std::fill(mask.begin(), mask.end(), static_cast<char>(node.truth));
      return;
    case Node::Kind::kCmp:
      cmp_mask<false>(node, d, mask);
      return;
    case Node::Kind::kAnd:
      eval_mask(*node.lhs, d, mask);
      refine_mask(*node.rhs, d, mask);
      return;
    case Node::Kind::kOr: {
      eval_mask(*node.lhs, d, mask);
      std::vector<char> rhs;
      eval_mask(*node.rhs, d, rhs);
      simd::kernels().mask_or(mask.data(), rhs.data(), n);
      return;
    }
    case Node::Kind::kNot: {
      eval_mask(*node.lhs, d, mask);
      simd::kernels().mask_not(mask.data(), n);
      return;
    }
  }
}

/// The engine's MaskProgram: one compiled predicate tree and the
/// columns it reads.
class CompiledPredicate final : public MaskProgram {
 public:
  CompiledPredicate(NodePtr node, std::size_t columns)
      : node_(std::move(node)), needs_(columns) {
    collect_needs(*node_, needs_);
  }

  const Node* node() const { return node_.get(); }

  const ColumnSet& needs() const override { return needs_; }

  void eval(const DecodedColumns& columns,
            std::vector<char>& mask) const override {
    eval_mask(*node_, columns, mask);
  }

 private:
  NodePtr node_;
  ColumnSet needs_;
};

// --- the shared scan: compile, prune, scan surviving blocks, account ------

struct BlockPlan {
  std::vector<std::size_t> blocks;  ///< surviving manifest block indices
  std::vector<char> certain;  ///< per surviving block: zone said kAll
  ScanStats stats;
};

BlockPlan plan_blocks(const ar::Manifest& manifest, const Node* predicate) {
  BlockPlan plan;
  plan.stats.blocks_total = manifest.blocks.size();
  const bool have_zones = manifest.zones.size() == manifest.blocks.size();
  for (std::size_t b = 0; b < manifest.blocks.size(); ++b) {
    Tri tri = Tri::kAll;
    if (predicate) {
      // No zone maps (a PR-4-era bundle): every block might match, and
      // nothing is certain -- scan it all, predicate per record.
      tri = have_zones ? zone_eval(*predicate, manifest.zones[b])
                       : Tri::kSome;
    }
    if (tri == Tri::kNone) {
      ++plan.stats.blocks_pruned;
      continue;
    }
    plan.blocks.push_back(b);
    plan.certain.push_back(tri == Tri::kAll);
    plan.stats.records_scanned += manifest.blocks[b].records;
  }
  plan.stats.blocks_scanned = plan.blocks.size();
  return plan;
}

/// Folds one query's final ScanStats into the telemetry registry, so
/// the ad-hoc per-query struct and the process-wide counters always
/// agree (`cal_query_*` is the running sum of every query's ScanStats).
void note_scan_stats(const ScanStats& stats) {
  CAL_COUNT("query.scans", 1);
  CAL_COUNT("query.blocks_total", stats.blocks_total);
  CAL_COUNT("query.blocks_pruned", stats.blocks_pruned);
  CAL_COUNT("query.blocks_scanned", stats.blocks_scanned);
  CAL_COUNT("query.records_scanned", stats.records_scanned);
  CAL_COUNT("query.records_matched", stats.records_matched);
}

using ScanBody = std::function<void(std::size_t ordinal,
                                   const DecodedColumns& columns,
                                   const std::vector<char>* mask)>;

/// The scan steps every BundleQuery body shares: the predicate compiles
/// against the schema (folded to constant-true, it is no predicate),
/// zone maps prune the blocks, run() scans the survivors, and finish()
/// folds the query's final ScanStats into telemetry.
class Scan {
 public:
  Scan(const Schema& schema, const ExprPtr& where) {
    if (where) {
      NodePtr node = compile(*where, schema);
      if (node->kind != Node::Kind::kConst || !node->truth) {
        predicate_ = std::make_unique<CompiledPredicate>(std::move(node),
                                                         schema.columns());
      }
    }
    plan_ = plan_blocks(schema.manifest,
                        predicate_ ? predicate_->node() : nullptr);
  }

  /// Surviving blocks: run() calls `body` with ordinals below this.
  std::size_t blocks() const { return plan_.blocks.size(); }

  /// Scans the surviving blocks for `out_needs`; `body` sees each
  /// block's columns and its predicate mask (nullptr = all pass; a
  /// block no record of which passes may never reach `body`).
  void run(const BlockSource& source, const ColumnSet& out_needs,
           core::WorkerPool* pool, const ScanBody& body) const {
    // The zone map already decided certain blocks.
    std::vector<char> uncertain(plan_.blocks.size(), 0);
    for (std::size_t i = 0; predicate_ && i < uncertain.size(); ++i) {
      uncertain[i] = !plan_.certain[i];
    }
    source.scan_filtered(plan_.blocks, out_needs, uncertain,
                         predicate_.get(), pool, body);
  }

  ScanStats finish(std::uint64_t records_matched) const {
    ScanStats stats = plan_.stats;
    stats.records_matched = records_matched;
    note_scan_stats(stats);
    return stats;
  }

 private:
  std::unique_ptr<CompiledPredicate> predicate_;
  BlockPlan plan_;
};

// --- grouping: packed keys per block, partials merged in plan order --------

/// Dense u32 codes for u64 keys in first-seen order: an open-addressed
/// table (linear probing, power-of-two capacity, at most half full).
/// Codes come from a caller's counter, so several tables can share one
/// code space.
class CodeTable {
 public:
  std::uint32_t code(std::uint64_t key, std::uint32_t& next) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.code == kEmpty) {
        slot = {key, next++};
        ++used_;
        return slot.code;
      }
      if (slot.key == key) return slot.code;
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t code = kEmpty;
  };

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t capacity = old.empty() ? 16 : 2 * old.size();
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot& slot : old) {
      if (slot.code == kEmpty) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].code != kEmpty) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

/// One group column's typed table for one block: equal values under
/// Value == get equal codes, so a code stands for a boxed fold's group
/// key.  Numbers a double holds exactly key by their double's bits,
/// with -0.0 folded onto +0.0, so int 1, real 1.0 and +-0 each collapse
/// by value; ints a double cannot hold (past 2^53) key by their exact
/// value; every NaN gets a code of its own (NaN != NaN, so the boxed
/// fold opened a group per NaN record); strings key by content.
class LevelCodes {
 public:
  std::uint32_t size() const noexcept { return next_; }

  std::uint32_t of_real(double v) {
    if (std::isnan(v)) return next_++;
    if (v == 0.0) v = 0.0;
    return exact_.code(std::bit_cast<std::uint64_t>(v), next_);
  }

  std::uint32_t of_int(std::int64_t v) {
    const double d = static_cast<double>(v);
    if (d != 0x1p63 && static_cast<std::int64_t>(d) == v) return of_real(d);
    return wide_ints_.code(static_cast<std::uint64_t>(v), next_);
  }

  std::uint32_t of_value(const Value& v) {
    switch (v.kind()) {
      case ValueKind::kInt: return of_int(v.as_int());
      case ValueKind::kReal: return of_real(v.as_real());
      case ValueKind::kString: break;
    }
    const auto [it, added] = strings_.try_emplace(v.as_string(), next_);
    if (added) ++next_;
    return it->second;
  }

 private:
  CodeTable exact_, wide_ints_;
  std::unordered_map<std::string_view, std::uint32_t> strings_;
  std::uint32_t next_ = 0;
};

/// Per-block partial of a group-by: group keys boxed once per group, in
/// first-appearance order, with their accumulators.
template <typename Acc>
struct GroupedPartial {
  std::vector<std::vector<Value>> keys;
  std::vector<Acc> groups;

  /// Adds every record of `d` the mask admits to its group via
  /// `add(acc, record)`, in record order -- the additions, group order
  /// and keys a fold over boxed Value keys would make.  Each record's
  /// key is the tuple of its group columns' LevelCodes, packed into one
  /// dense u32 (mixed radix while the key space stays within a few
  /// times the block, renumbered through a CodeTable past that), which
  /// indexes a flat slot array.
  template <typename Add>
  void fold(const DecodedColumns& d, const std::vector<char>* mask,
            const std::vector<std::size_t>& group_ids, Add&& add) {
    const std::size_t n = d.records;
    const auto admitted = [&](std::size_t i) { return !mask || (*mask)[i]; };
    const std::uint64_t dense_limit = 2 * static_cast<std::uint64_t>(n) + 256;
    std::vector<std::uint32_t> key(n, 0), codes(n, 0);
    std::uint64_t span = 1;  // keys lie in [0, span)
    for (const std::size_t id : group_ids) {
      const std::uint32_t levels = column_codes(d[id], admitted, codes);
      if (span * levels <= dense_limit) {
        for (std::size_t i = 0; i < n; ++i) {
          key[i] = key[i] * levels + codes[i];
        }
        span *= levels;
        continue;
      }
      CodeTable packed;
      std::uint32_t next = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (admitted(i)) {
          key[i] = packed.code(std::uint64_t{key[i]} * levels + codes[i], next);
        }
      }
      span = next;
    }

    constexpr std::uint32_t kNoGroup = ~std::uint32_t{0};
    std::vector<std::uint32_t> group_of(span, kNoGroup);
    for (std::size_t i = 0; i < n; ++i) {
      if (!admitted(i)) continue;
      std::uint32_t& g = group_of[key[i]];
      if (g == kNoGroup) {
        g = static_cast<std::uint32_t>(groups.size());
        groups.emplace_back();
        std::vector<Value>& boxed = keys.emplace_back();
        boxed.reserve(group_ids.size());
        for (const std::size_t id : group_ids) {
          boxed.push_back(d[id].value_at(i));
        }
      }
      add(groups[g], i);
    }
  }

 private:
  /// Writes each admitted record's code of `col` into `codes` (others
  /// keep stale entries) and returns how many codes there are.  A coded
  /// column maps each level once -- a dictionary's levels are its
  /// strings, a mixed column's are its records.
  template <typename Admitted>
  static std::uint32_t column_codes(const ar::Column& col,
                                    const Admitted& admitted,
                                    std::vector<std::uint32_t>& codes) {
    using Kind = ar::Column::Kind;
    LevelCodes table;
    const std::size_t n = codes.size();
    switch (col.kind) {
      case Kind::kI64:
        for (std::size_t i = 0; i < n; ++i) {
          if (admitted(i)) codes[i] = table.of_int(col.i64[i]);
        }
        break;
      case Kind::kF64:
        for (std::size_t i = 0; i < n; ++i) {
          if (admitted(i)) codes[i] = table.of_real(col.f64[i]);
        }
        break;
      case Kind::kCoded: {
        std::vector<std::uint32_t> level_code(col.levels.size());
        for (std::size_t k = 0; k < level_code.size(); ++k) {
          level_code[k] = table.of_value(col.levels[k]);
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (admitted(i)) codes[i] = level_code[col.codes[i]];
        }
        break;
      }
    }
    return table.size();
  }
};

/// Merges per-block partials in block plan order -- the step that makes
/// results bit-identical at any worker count -- through Acc::merge, and
/// returns the groups sorted the way stats::group_metric documents:
/// Value ordering, lexicographic across factors.  NaN != NaN, so every
/// NaN record keeps a group of its own; those groups tie under Value
/// ordering and the stable sort leaves them in merge (plan) order.
template <typename Acc>
std::vector<std::pair<std::vector<Value>, Acc>> merge_partials(
    std::vector<GroupedPartial<Acc>>& slots) {
  GroupedPartial<Acc> merged;
  std::unordered_map<std::vector<Value>, std::size_t, ValueHash> index;
  for (GroupedPartial<Acc>& partial : slots) {
    for (std::size_t g = 0; g < partial.keys.size(); ++g) {
      const auto [it, added] =
          index.try_emplace(partial.keys[g], merged.groups.size());
      if (added) {
        merged.keys.push_back(std::move(partial.keys[g]));
        merged.groups.emplace_back();
      }
      merged.groups[it->second].merge(partial.groups[g]);
    }
  }
  std::vector<std::size_t> order(merged.keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return merged.keys[a] < merged.keys[b];
                   });
  std::vector<std::pair<std::vector<Value>, Acc>> out;
  out.reserve(order.size());
  for (const std::size_t g : order) {
    out.emplace_back(std::move(merged.keys[g]), std::move(merged.groups[g]));
  }
  return out;
}

/// Welford + extrema over one metric within one group.
struct MetricAcc {
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  stats::Welford welford;

  void add(double x) {
    sum += x;
    min = std::min(min, x);
    max = std::max(max, x);
    welford.add(x);
  }

  void merge(const MetricAcc& other) {
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    welford.merge(other.welford);
  }
};

struct AggAcc {
  std::size_t rows = 0;
  std::vector<MetricAcc> metrics;  ///< one per distinct aggregate metric

  void merge(const AggAcc& other) {
    rows += other.rows;
    metrics.resize(other.metrics.size());
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      metrics[m].merge(other.metrics[m]);
    }
  }
};

struct SampleAcc {
  std::vector<double> samples;
  std::vector<std::size_t> sequence;

  void merge(const SampleAcc& other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    sequence.insert(sequence.end(), other.sequence.begin(),
                    other.sequence.end());
  }
};

}  // namespace

// --- QueryResult bridges ----------------------------------------------------

RawTable QueryResult::to_table() const {
  RawTable table(group_names, value_names);
  table.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    RawRecord record;
    record.sequence = i;
    record.cell_index = i;
    record.factors = rows[i].key;
    record.metrics = rows[i].values;
    table.append(std::move(record));
  }
  return table;
}

void QueryResult::write_csv(std::ostream& out) const {
  std::vector<std::string> header = group_names;
  header.insert(header.end(), value_names.begin(), value_names.end());
  io::write_csv_row(out, header);
  std::string line;
  for (const Row& row : rows) {
    line.clear();
    const char* sep = "";
    for (const Value& v : row.key) {
      line += sep;
      append_csv_value(line, v);
      sep = ",";
    }
    for (const double v : row.values) {
      line += sep;
      append_real(line, v);
      sep = ",";
    }
    line += '\n';
    out << line;
  }
}

// --- BundleQuery ------------------------------------------------------------

QueryResult BundleQuery::aggregate(const QuerySpec& spec,
                                   core::WorkerPool* pool) const {
  CAL_SPAN("query.aggregate");
  CAL_TIME_SCOPE("query.scan_seconds");
  const Schema schema{reader_.manifest()};
  if (spec.aggregates.empty()) {
    throw std::invalid_argument("query: aggregate() needs >= 1 aggregate");
  }

  // Resolve group factors and the distinct set of aggregate metrics.
  const std::vector<std::size_t> group_ids = schema.factors(spec.group_by);
  std::vector<std::size_t> metric_ids;     // distinct metric columns
  std::vector<std::size_t> agg_to_metric;  // per aggregate: slot or npos
  constexpr std::size_t kNoMetric = static_cast<std::size_t>(-1);
  for (const Aggregate& agg : spec.aggregates) {
    if (agg.kind == AggKind::kCount) {
      agg_to_metric.push_back(kNoMetric);
      continue;
    }
    const auto id = schema.find(agg.metric);
    if (!id || !schema.is_metric(*id)) {
      throw std::out_of_range("query: aggregate metric '" + agg.metric +
                              "' is not a metric of the bundle");
    }
    const auto found = std::find(metric_ids.begin(), metric_ids.end(), *id);
    agg_to_metric.push_back(
        static_cast<std::size_t>(found - metric_ids.begin()));
    if (found == metric_ids.end()) metric_ids.push_back(*id);
  }

  ColumnSet out_needs(schema.columns());
  for (const std::size_t id : group_ids) out_needs.add(id);
  for (const std::size_t id : metric_ids) out_needs.add(id);

  const Scan scan(schema, spec.where);
  const simd::Kernels& kernels = simd::kernels();
  std::vector<GroupedPartial<AggAcc>> slots(scan.blocks());
  scan.run(source(), out_needs, pool,
           [&](std::size_t ordinal, const DecodedColumns& d,
               const std::vector<char>* mask) {
             GroupedPartial<AggAcc>& partial = slots[ordinal];
             if (group_ids.empty()) {
               // Ungrouped: fold each metric column in one batched
               // kernel pass.  The fold keeps the per-record recurrence
               // and the per-block partials still merge in plan order,
               // so the result is byte-identical to the per-record loop.
               const std::size_t matched =
                   mask ? kernels.mask_count(mask->data(), d.records)
                        : d.records;
               if (matched == 0) return;
               partial.keys.emplace_back();
               AggAcc& acc = partial.groups.emplace_back();
               acc.metrics.resize(metric_ids.size());
               acc.rows = matched;
               for (std::size_t m = 0; m < metric_ids.size(); ++m) {
                 simd::WelfordBatch batch;
                 kernels.welford_fold(d[metric_ids[m]].f64.data(),
                                      mask ? mask->data() : nullptr,
                                      d.records, &batch);
                 MetricAcc& out = acc.metrics[m];
                 out.sum = batch.sum;
                 out.min = batch.min;
                 out.max = batch.max;
                 out.welford = stats::Welford::from_moments(
                     batch.n, batch.mean, batch.m2);
               }
               return;
             }
             std::vector<const double*> metrics;
             for (const std::size_t id : metric_ids) {
               metrics.push_back(d[id].f64.data());
             }
             partial.fold(d, mask, group_ids, [&](AggAcc& acc, std::size_t i) {
               acc.metrics.resize(metrics.size());
               ++acc.rows;
               for (std::size_t m = 0; m < metrics.size(); ++m) {
                 acc.metrics[m].add(metrics[m][i]);
               }
             });
           });

  QueryResult result;
  result.group_names = spec.group_by;
  for (const Aggregate& agg : spec.aggregates) {
    result.value_names.push_back(agg.label());
  }
  std::uint64_t matched = 0;
  for (auto& [key, acc] : merge_partials(slots)) {
    QueryResult::Row row;
    row.key = std::move(key);
    matched += acc.rows;
    for (std::size_t a = 0; a < spec.aggregates.size(); ++a) {
      const AggKind kind = spec.aggregates[a].kind;
      if (kind == AggKind::kCount) {
        row.values.push_back(static_cast<double>(acc.rows));
        continue;
      }
      const MetricAcc& m = acc.metrics[agg_to_metric[a]];
      switch (kind) {
        case AggKind::kSum: row.values.push_back(m.sum); break;
        case AggKind::kMean: row.values.push_back(m.welford.mean()); break;
        case AggKind::kSd: row.values.push_back(m.welford.stddev()); break;
        case AggKind::kMin: row.values.push_back(m.min); break;
        case AggKind::kMax: row.values.push_back(m.max); break;
        case AggKind::kCount: break;  // handled above
      }
    }
    result.rows.push_back(std::move(row));
  }
  result.scan = scan.finish(matched);
  return result;
}

RawTable BundleQuery::materialize(const ExprPtr& where,
                                  const std::vector<std::string>& columns,
                                  core::WorkerPool* pool,
                                  ScanStats* scan_stats) const {
  CAL_SPAN("query.materialize");
  CAL_TIME_SCOPE("query.scan_seconds");
  const ar::Manifest& manifest = reader_.manifest();
  const Schema schema{manifest};

  // Resolve the projection: listed order, or the full schema.  A
  // RawTable is factors-then-metrics, so the two lists stay apart.
  std::vector<std::size_t> factor_ids, metric_ids;
  std::vector<std::string> factor_names, metric_names;
  if (columns.empty()) {
    for (std::size_t id = ar::kFirstFactorColumn; id < schema.columns();
         ++id) {
      (schema.is_factor(id) ? factor_ids : metric_ids).push_back(id);
    }
    factor_names = manifest.factor_names;
    metric_names = manifest.metric_names;
  } else {
    for (const std::string& name : columns) {
      const auto id = schema.find(name);
      if (!id) {
        throw std::out_of_range("query: unknown column '" + name +
                                "' in projection");
      }
      (schema.is_factor(*id) ? factor_ids : metric_ids).push_back(*id);
      (schema.is_factor(*id) ? factor_names : metric_names).push_back(name);
    }
  }

  ColumnSet out_needs(schema.columns());
  out_needs.add(ar::kSequenceColumn)
      .add(ar::kCellColumn)
      .add(ar::kReplicateColumn)
      .add(ar::kTimestampColumn);
  for (const std::size_t id : factor_ids) out_needs.add(id);
  for (const std::size_t id : metric_ids) out_needs.add(id);

  const Scan scan(schema, where);
  std::vector<std::vector<RawRecord>> slots(scan.blocks());
  scan.run(source(), out_needs, pool,
           [&](std::size_t ordinal, const DecodedColumns& d,
               const std::vector<char>* mask) {
             std::vector<RawRecord>& out = slots[ordinal];
             const auto index_at = [&](std::size_t id, std::size_t i) {
               return static_cast<std::size_t>(d[id].i64[i]);
             };
             for (std::size_t i = 0; i < d.records; ++i) {
               if (mask && !(*mask)[i]) continue;
               RawRecord record;
               record.sequence = index_at(ar::kSequenceColumn, i);
               record.cell_index = index_at(ar::kCellColumn, i);
               record.replicate = index_at(ar::kReplicateColumn, i);
               record.timestamp_s = d[ar::kTimestampColumn].f64[i];
               record.factors.reserve(factor_ids.size());
               for (const std::size_t id : factor_ids) {
                 record.factors.push_back(d[id].value_at(i));
               }
               record.metrics.reserve(metric_ids.size());
               for (const std::size_t id : metric_ids) {
                 record.metrics.push_back(d[id].f64[i]);
               }
               out.push_back(std::move(record));
             }
           });

  RawTable table(std::move(factor_names), std::move(metric_names));
  std::uint64_t matched = 0;
  for (std::vector<RawRecord>& block : slots) {
    matched += block.size();
    table.append_batch(std::move(block));
  }
  const ScanStats stats = scan.finish(matched);
  if (scan_stats) *scan_stats = stats;
  return table;
}

std::vector<stats::Group> BundleQuery::group_samples(
    const ExprPtr& where, const std::vector<std::string>& group_by,
    const std::string& metric, core::WorkerPool* pool,
    ScanStats* scan_stats) const {
  CAL_SPAN("query.group_samples");
  CAL_TIME_SCOPE("query.scan_seconds");
  const Schema schema{reader_.manifest()};
  const std::vector<std::size_t> group_ids = schema.factors(group_by);
  const auto metric_id = schema.find(metric);
  if (!metric_id || !schema.is_metric(*metric_id)) {
    throw std::out_of_range("query: '" + metric +
                            "' is not a metric of the bundle");
  }

  ColumnSet out_needs(schema.columns());
  out_needs.add(ar::kSequenceColumn).add(*metric_id);
  for (const std::size_t id : group_ids) out_needs.add(id);

  const Scan scan(schema, where);
  std::vector<GroupedPartial<SampleAcc>> slots(scan.blocks());
  scan.run(source(), out_needs, pool,
           [&](std::size_t ordinal, const DecodedColumns& d,
               const std::vector<char>* mask) {
             const ar::Column& samples = d[*metric_id];
             const ar::Column& sequence = d[ar::kSequenceColumn];
             slots[ordinal].fold(
                 d, mask, group_ids, [&](SampleAcc& acc, std::size_t i) {
                   acc.samples.push_back(samples.f64[i]);
                   acc.sequence.push_back(
                       static_cast<std::size_t>(sequence.i64[i]));
                 });
           });

  std::vector<stats::Group> out;
  std::uint64_t matched = 0;
  for (auto& [key, acc] : merge_partials(slots)) {
    stats::Group group;
    group.key = std::move(key);
    group.samples = std::move(acc.samples);
    group.sequence = std::move(acc.sequence);
    matched += group.samples.size();
    // Blocks are plan-ordered, so concatenation already runs in sequence
    // order; re-sort defensively if an unusual bundle violates that.
    if (!std::is_sorted(group.sequence.begin(), group.sequence.end())) {
      std::vector<std::size_t> perm(group.sequence.size());
      for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
        return group.sequence[a] < group.sequence[b];
      });
      stats::Group sorted;
      sorted.key = group.key;
      sorted.samples.reserve(perm.size());
      sorted.sequence.reserve(perm.size());
      for (const std::size_t i : perm) {
        sorted.samples.push_back(group.samples[i]);
        sorted.sequence.push_back(group.sequence[i]);
      }
      group = std::move(sorted);
    }
    out.push_back(std::move(group));
  }
  const ScanStats stats = scan.finish(matched);
  if (scan_stats) *scan_stats = stats;
  return out;
}

}  // namespace cal::query
