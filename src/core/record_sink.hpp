#pragma once
// Record sinks: where the engine delivers raw records (stage 2 output).
//
// The paper's methodology forbids on-the-fly aggregation -- every raw
// record must survive to the offline analysis.  At campaign scale that
// rule collides with memory: a million-run campaign cannot hold its whole
// RawTable resident.  RecordSink decouples *producing* records (the
// engine's plan-order merge path) from *retaining* them: the engine hands
// the sink plan-ordered batches, and the sink decides whether they
// accumulate in memory (TableSink) or stream to disk
// (io::CsvStreamSink).  Either way the byte stream of the archived CSV is
// identical -- determinism is a property of the producer, not the sink.

#include <optional>
#include <string>
#include <vector>

#include "core/record.hpp"

namespace cal {

/// Consumer of plan-ordered raw-record batches.
///
/// Contract (enforced by the engine):
///   * begin() is called exactly once, before any batch;
///   * consume() receives records in plan order, each batch at most the
///     engine's Options::sink_batch records, and is called from the
///     engine's calling thread only (sinks need no locking against the
///     worker pool);
///   * close() is called exactly once: after the last batch on success
///     (where it must surface any deferred I/O error by throwing), or
///     during unwinding when the campaign fails (where anything close()
///     throws is swallowed so the measurement error propagates) -- a
///     failed campaign's archive is finalized but may be truncated.
class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// Announces the campaign's columns.  `expected_records` is the plan
  /// size -- a capacity hint, not a promise (a failing measurement ends
  /// the campaign early).
  virtual void begin(const std::vector<std::string>& factor_names,
                     const std::vector<std::string>& metric_names,
                     std::size_t expected_records) = 0;

  /// Takes ownership of one plan-ordered batch.  Its records share their
  /// factor rows with the plan (and with each other), so a sink may keep,
  /// copy or drop them at the cost of a handle each; none of them owns
  /// heap memory unless its metrics outgrew MetricRow's inline capacity.
  virtual void consume(std::vector<RawRecord> batch) = 0;

  /// Flushes and finalizes; throws if any record could not be persisted.
  virtual void close() = 0;
};

/// In-memory sink: accumulates every record into a RawTable (the
/// pre-streaming engine behavior, still the right choice when the
/// analysis happens in-process right after the campaign).
class TableSink final : public RecordSink {
 public:
  void begin(const std::vector<std::string>& factor_names,
             const std::vector<std::string>& metric_names,
             std::size_t expected_records) override;
  void consume(std::vector<RawRecord> batch) override;
  void close() override {}

  /// The accumulated table; valid after begin().
  const RawTable& table() const;

  /// Moves the table out (the sink is then spent).
  RawTable take();

 private:
  std::optional<RawTable> table_;
};

}  // namespace cal
