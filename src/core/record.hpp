#pragma once
// Raw measurement records (stage 2 output).
//
// The engine appends one RawRecord per executed run: the factor values,
// every measured metric, the execution sequence index, and the simulated
// wall-clock timestamp at which the measurement started.  Nothing is
// aggregated on the fly -- "we avoid doing any on-the-fly aggregation and
// keep all information, delaying the analysis" (paper, Section V).  The
// sequence index and timestamp are what make temporal diagnostics like
// Fig. 11 (right) possible at all.
//
// Ownership: a record does not own a copy of its factor values.  It holds
// a handle to its planned run's FactorRow, which a level-only plan shares
// among every replicate of a cell, and its metrics sit inline
// (MetricRow, heap only past MetricRow::kInlineCapacity).  Copying or
// moving a record therefore never allocates for a typical campaign, and
// a record stays valid after its Plan is gone.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/row.hpp"
#include "core/value.hpp"

namespace cal {

struct RawRecord {
  std::size_t sequence = 0;      ///< execution order (0-based)
  std::size_t cell_index = 0;    ///< factorial cell of the plan
  std::size_t replicate = 0;     ///< replicate within the cell
  double timestamp_s = 0.0;      ///< simulated wall-clock start time
  FactorRow factors;             ///< factor values, plan factor order
  MetricRow metrics;             ///< measured values, table metric order
};

/// The raw-result CSV header row: bookkeeping columns, then factor names,
/// then metric names.  Shared by RawTable::write_csv and the streaming
/// io::CsvStreamSink so both produce byte-identical archives.
void write_raw_csv_header(std::ostream& out,
                          const std::vector<std::string>& factor_names,
                          const std::vector<std::string>& metric_names);

/// One raw-result CSV data row, formatted exactly as RawTable::write_csv
/// would (Value round-trip precision for reals).
void write_raw_csv_record(std::ostream& out, const RawRecord& record);

/// Appends one raw-result CSV data row, newline included, to `row`: the
/// buffer-reusing form of write_raw_csv_record.
void append_raw_csv_record(std::string& row, const RawRecord& record);

/// Appends `v` as one CSV cell: Value::to_string's text, quoted like
/// io::csv_escape, with no temporary string for numbers.
void append_csv_value(std::string& row, const Value& v);

/// Columnar-with-row-records table of raw measurements.
class RawTable {
 public:
  RawTable(std::vector<std::string> factor_names,
           std::vector<std::string> metric_names);

  const std::vector<std::string>& factor_names() const noexcept {
    return factor_names_;
  }
  const std::vector<std::string>& metric_names() const noexcept {
    return metric_names_;
  }
  const std::vector<RawRecord>& records() const noexcept { return records_; }

  std::size_t size() const noexcept { return records_.size(); }
  bool empty() const noexcept { return records_.empty(); }

  /// Pre-sizes the record store; the campaign engine knows the plan size
  /// up front, so the hot ingest path never reallocates.
  void reserve(std::size_t n) { records_.reserve(records_.size() + n); }

  /// Appends a record; widths must match the declared column names.
  void append(RawRecord record);

  /// Moves a whole batch in (per-worker shard merge).  Validates every
  /// width first so a mid-batch mismatch cannot leave the table ragged.
  void append_batch(std::vector<RawRecord> batch);

  std::size_t factor_index(const std::string& name) const;
  std::size_t metric_index(const std::string& name) const;

  /// Column extraction for analysis: factor as real values.
  std::vector<double> factor_column_real(const std::string& name) const;

  /// Column extraction: metric values.
  std::vector<double> metric_column(const std::string& name) const;

  /// Rows where `factor == value` (Value equality).
  RawTable filter(const std::string& factor, const Value& value) const;

  /// Rows selected by a predicate over records.
  template <typename Pred>
  RawTable filter_records(Pred&& pred) const {
    RawTable out(factor_names_, metric_names_);
    for (const auto& r : records_) {
      if (pred(r)) out.append(r);
    }
    return out;
  }

  /// Distinct values of a factor, sorted (Value ordering).
  std::vector<Value> distinct(const std::string& factor) const;

  void write_csv(std::ostream& out) const;
  static RawTable read_csv(std::istream& in, std::size_t n_factors);

 private:
  std::vector<std::string> factor_names_;
  std::vector<std::string> metric_names_;
  std::vector<RawRecord> records_;
};

}  // namespace cal
