#pragma once
// Expression layer of the columnar query engine.
//
// A predicate is a small tree of typed comparisons over a bundle's
// columns -- bookkeeping (sequence, cell, replicate, timestamp), factors
// and metrics -- combined with &&, || and !.  Expressions are built
// either programmatically (Expr::cmp / logical_and / ...) or from the
// textual form the campaign_query CLI takes:
//
//     size == 1024 && op != "pingpong" || sequence < 10000
//
// Names resolve against the bundle schema only when the query engine
// binds the expression; the reserved names `sequence`, `cell`,
// `replicate` and `timestamp` address the bookkeeping columns (a factor
// or metric with one of those names shadows them -- named columns are
// resolved first).
//
// Comparison semantics (shared by row evaluation and zone-map pruning):
// numeric values compare numerically across int/real kinds (int pairs
// compare exactly), strings compare lexicographically, and a kind
// mismatch (numeric vs string) makes every comparison false except !=,
// which is true.  NaN compares false except under !=.  Comparisons whose
// outcome is decidable at bind time (e.g. a metric column against a
// string literal) are constant-folded so the executor never evaluates
// them per record.

#include <memory>
#include <string>

#include "core/value.hpp"
#include "simd/dispatch.hpp"

namespace cal::query {

/// Which column a comparison addresses.  kNamed is a factor-or-metric
/// reference by name, resolved against the schema at bind time.
enum class ColumnKind { kSequence, kCellIndex, kReplicate, kTimestamp,
                        kNamed };

struct ColumnRef {
  ColumnKind kind = ColumnKind::kNamed;
  std::string name;  ///< kNamed: schema name; else display name only
};

/// The comparison ops: the SIMD kernels' enum, so a compiled predicate
/// hands its op to the column kernels as is.
using CmpOp = simd::Cmp;

/// Display form ("==", "!=", "<", "<=", ">", ">=").
const char* to_string(CmpOp op) noexcept;

class Expr;
/// Expressions are immutable once built; shared_ptr lets subtrees be
/// reused across specs without ownership ceremony.
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  enum class Kind { kCmp, kAnd, kOr, kNot };

  Kind kind() const noexcept { return kind_; }

  // kCmp accessors.
  const ColumnRef& column() const noexcept { return column_; }
  CmpOp op() const noexcept { return op_; }
  const Value& literal() const noexcept { return literal_; }

  // kAnd/kOr children; kNot uses lhs only.
  const ExprPtr& lhs() const noexcept { return lhs_; }
  const ExprPtr& rhs() const noexcept { return rhs_; }

  static ExprPtr cmp(ColumnRef column, CmpOp op, Value literal);
  static ExprPtr logical_and(ExprPtr a, ExprPtr b);
  static ExprPtr logical_or(ExprPtr a, ExprPtr b);
  static ExprPtr logical_not(ExprPtr a);

  /// Parseable round-trip form (parenthesized where needed).
  std::string to_string() const;

 private:
  Expr() = default;

  Kind kind_ = Kind::kCmp;
  ColumnRef column_;
  CmpOp op_ = CmpOp::kEq;
  Value literal_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// The shared comparison semantics (see the header comment).
bool value_compare(const Value& v, CmpOp op, const Value& literal);

/// Parses the textual predicate grammar:
///
///   expr    := or
///   or      := and ("||" and)*
///   and     := unary ("&&" unary)*
///   unary   := "!" unary | "(" expr ")" | cmp
///   cmp     := column op literal
///   op      := == != <= >= < >
///   literal := number | "quoted" | 'quoted' | bareword
///
/// Bare literal words become string Values; numeric literals become int
/// or real Values exactly like CSV cells (Value::parse).  Throws
/// std::invalid_argument with position context on malformed input.
ExprPtr parse_expr(const std::string& text);

}  // namespace cal::query
