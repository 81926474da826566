#pragma once
// Measurement engine (stage 2 of the methodology).
//
// The engine is deliberately dumb: it reads the plan, executes each run in
// the prescribed order, stamps every result with its sequence index and
// simulated wall-clock time, and hands it to a RecordSink -- either an
// in-memory TableSink (the RawTable-returning overloads) or a streaming
// sink such as io::CsvStreamSink for campaigns too large to hold
// resident.  All intelligence lives before (design) or after (analysis)
// this stage.
//
// One driver executes every call, window by window (one window = one
// sink batch of runs), and merges each finished window in plan order:
// run()/run_range() append it as records to the sink, run_opaque()
// folds it into per-cell summaries.  With one worker (Options::threads
// == 1, the default) the window runs inline on the calling thread,
// each measurement sees the true simulated clock in
// MeasureContext::now_s, and window k is merged before window k + 1
// starts.  With more, the windows run on a persistent core::WorkerPool
// -- created once per call, or shared across calls via Options::pool --
// woken per window, so per-window latency is a condition-variable
// broadcast, not a thread spawn/join.  The pooled loop is pipelined:
// the workers measure window k + 1, claiming its runs by guided
// self-scheduling, while the calling thread stamps and merges window k
// (record build + RecordSink::consume).  Pipelining changes when work
// runs, never what is measured or merged.
//
// Determinism is preserved by construction:
//
//   * every run's random stream is pre-split from the engine seed in run
//     order (one engine-stream draw per run, exactly what the i-th
//     sequential Rng::split() -- equivalently Rng::split_at(i) -- would
//     have produced), so run i draws the exact same noise no matter
//     which worker executes it, or in which order;
//   * workers stage results into per-run slots and the merge rebuilds the
//     record batch -- and the simulated clock -- in plan order, one
//     window after another, whichever worker measured which run.
//
// The output is therefore bit-identical at any worker count and window
// size, provided the measurement is *stationary*: it must not derive
// metrics from MeasureContext::now_s (with several workers now_s is the
// campaign start time, and final timestamps are reconstructed during
// the merge).  Time-dependent simulations (DVFS governors, scheduler
// perturbation windows) should run on one worker.
//
// run_opaque() emulates how the benchmarks criticized by the paper
// behave: it ignores the plan's randomized order (sorting runs by cell,
// i.e. a sequential parameter sweep) and keeps only online
// mean/standard-deviation summaries per cell.  It exists so the ablation
// studies can quantify exactly what that style of tool loses.  True to
// form, it aggregates *online*: each window's measurements stream into
// per-cell Welford accumulators in sweep order, so its resident state is
// one window of results (two when pipelined over a pool) plus the
// accumulators -- never the whole campaign.

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/design.hpp"
#include "core/record.hpp"
#include "core/record_sink.hpp"
#include "core/rng.hpp"
#include "core/worker_pool.hpp"

namespace cal {

/// How records get their timestamps.
///
///   kAccumulated -- the original model: the simulated clock advances by
///       each run's measured duration plus the inter-run gap, so run i's
///       timestamp depends on every preceding run.  Right for
///       time-dependent simulations; impossible to reproduce from a
///       plan slice alone.
///   kIndexed -- timestamp_s = start_time_s + run_index * inter_run_gap_s,
///       a pure function of the plan index.  This is the distributed-
///       campaign clock: machines executing different partitions share
///       no wall clock, and a partition must stamp its records without
///       knowing how long the rest of the plan took.  Sequence-vs-time
///       perturbation plots keep working (order is what they need).
///       Partitioned execution (Engine::run_range with first > 0)
///       requires it.
enum class Clock { kAccumulated, kIndexed };

/// Context handed to the measurement function for one run.
struct MeasureContext {
  double now_s = 0.0;        ///< simulated wall-clock time at run start
  std::size_t sequence = 0;  ///< execution order index
  Rng* rng = nullptr;        ///< per-run random stream (never null)
  std::size_t worker = 0;    ///< worker executing the run (0 if one worker)
};

/// Result of one measurement.  Brace-built as {{m0, m1, ...}, elapsed};
/// up to MetricRow::kInlineCapacity metrics cost no heap allocation.
struct MeasureResult {
  MetricRow metrics;        ///< aligned to Engine metric names
  double elapsed_s = 0.0;   ///< simulated duration; advances the clock
};

using MeasureFn =
    std::function<MeasureResult(const PlannedRun&, MeasureContext&)>;

/// Builds one measurement callable per worker.  The engine invokes the
/// factory sequentially on the calling thread, once per worker, before
/// any measurement starts -- so the factory itself needs no locking, and
/// each worker can own private mutable state (e.g. a simulator replica).
using MeasureFactory = std::function<MeasureFn(std::size_t worker)>;

/// Execution telemetry for one engine call: per-window wall-clock and
/// worker busy time, collected only when a collector is attached
/// (Options::window_stats -- Campaign attaches one so archived bundles
/// carry it).  A "window" is one sink batch: the unit the engine
/// schedules and merges.  A window's wall time is its step's: measuring
/// and merging it inline, or -- pipelined over a pool -- measuring it
/// while the previous window merges, the last window's step also
/// merging it.  Steps do not overlap, so wall_s is the call's execution
/// wall time either way.  Occupancy is measured busy time over the
/// pool's capacity for that wall time -- 1.0 means every worker
/// measured throughout, lower means time the workers waited on the
/// merge/sink or on each other.
struct WindowStats {
  std::size_t windows = 0;     ///< sink batches executed
  std::size_t runs = 0;        ///< measurements executed
  std::size_t threads = 0;     ///< workers the call ran on
  double wall_s = 0.0;         ///< summed per-window (step) wall-clock
  double min_window_s = 0.0;   ///< fastest window
  double max_window_s = 0.0;   ///< slowest window
  double busy_s = 0.0;         ///< summed worker measurement wall-clock

  double occupancy() const noexcept {
    const double capacity = wall_s * static_cast<double>(threads);
    return capacity > 0.0 ? busy_s / capacity : 0.0;
  }
};

/// Per-cell summary produced by the opaque execution mode.
struct OpaqueCellSummary {
  FactorRow factors;
  std::size_t n = 0;
  std::vector<double> mean;  ///< per metric
  std::vector<double> sd;    ///< per metric (sample sd, n-1)
};

struct OpaqueSummary {
  std::vector<std::string> factor_names;
  std::vector<std::string> metric_names;
  std::vector<OpaqueCellSummary> cells;

  /// Serializes the summary to CSV: factor columns, `n`, then
  /// `mean_<metric>`/`sd_<metric>` pairs in metric order.  This is *all*
  /// an opaque tool archives -- writing it next to a raw bundle is what
  /// lets the ablation studies quantify the information it lost.
  void write_csv(std::ostream& out) const;
};

class Engine {
 public:
  struct Options {
    /// Simulated dead time between consecutive measurements (loop
    /// overhead, logging, ...).  Keeps timestamps strictly increasing.
    double inter_run_gap_s = 50e-6;
    /// Seed for the engine's own stream; run i receives the i-th
    /// sequential child split of it (drawn via one engine-stream draw
    /// per run -- the same child split_at(i) denotes).
    std::uint64_t seed = 42;
    /// Initial simulated wall-clock value.
    double start_time_s = 0.0;
    /// Worker threads for campaign execution.  1 = inline on the calling
    /// thread (default); 0 = one per hardware thread.  See the
    /// determinism contract in the header comment.
    std::size_t threads = 1;
    /// Runs per execution window, and so records per
    /// RecordSink::consume() batch.  Every call executes the plan in
    /// windows of this many runs, so at most one window of results + one
    /// batch of records is ever held inline, and two windows of results
    /// + one batch when pipelined over a pool (run_opaque: one resp. two
    /// windows of results).  A window of results is sink_batch x
    /// (metrics + 1) doubles; a batch is sink_batch RawRecords, whose
    /// factor rows are shared with the plan and whose metrics are inline
    /// up to MetricRow::kInlineCapacity, so a batch adds no per-record
    /// heap memory beyond wider metric rows.
    /// Larger windows amortize sink and wake-up overhead; smaller ones
    /// tighten the memory bound.  Output is bit-identical at any size.
    std::size_t sink_batch = 4096;
    /// Optional long-lived pool shared across calls (and across Engine
    /// instances, e.g. one pool for every campaign of a cluster report).
    /// When set it supersedes `threads`: the engine shards over
    /// pool->size() workers (clamped to the plan size, like `threads`)
    /// and runs each window on it (WorkerPool::run_chunks) instead of
    /// creating its own.  A
    /// one-worker pool runs windows inline on the calling thread (which
    /// also serves time-dependent measurements).
    std::shared_ptr<core::WorkerPool> pool;
    /// Timestamp model (see Clock).  kIndexed is required for
    /// partitioned execution and ignored by run_opaque (which archives
    /// no timestamps).
    Clock clock = Clock::kAccumulated;
    /// Fault-injection spec armed (core::fault::arm_spec) at the start
    /// of every run()/run_range()/run_opaque() call.  Empty = none.
    /// Only fires in builds with CALIPERS_FAULT_INJECTION.
    std::string faults;
    /// Optional execution-telemetry collector, reset and refilled by
    /// every run()/run_range()/run_opaque() call.  Costs two steady-clock
    /// reads per run when attached, nothing when null (the default).
    std::shared_ptr<WindowStats> window_stats;
  };

  explicit Engine(std::vector<std::string> metric_names)
      : Engine(std::move(metric_names), Options{}) {}
  Engine(std::vector<std::string> metric_names, Options options);

  const std::vector<std::string>& metric_names() const noexcept {
    return metric_names_;
  }
  const Options& options() const noexcept { return options_; }

  /// Installs (or clears) the execution-telemetry collector after
  /// construction -- Campaign attaches its own so every campaign run
  /// records per-window wall-clock and pool occupancy into metadata.
  void attach_window_stats(std::shared_ptr<WindowStats> stats) {
    options_.window_stats = std::move(stats);
  }

  /// Resolves an Options::threads request (0 -> hardware concurrency).
  static std::size_t resolve_threads(std::size_t requested) noexcept;

  /// The number of workers a call over `plan_runs` runs shards over: the
  /// shared pool's size when Options::pool is set, else Options::threads
  /// resolved, clamped to the plan size either way.  1 runs inline.
  std::size_t workers_for(std::size_t plan_runs) const;

  /// White-box mode: executes the plan in plan order, returns every raw
  /// record.  With threads > 1 the shared callable is invoked from all
  /// workers concurrently and must be thread-safe; stateful measurements
  /// should use the MeasureFactory overload instead.
  RawTable run(const Plan& plan, const MeasureFn& measure) const;
  RawTable run(const Plan& plan, const MeasureFactory& factory) const;

  /// Streaming white-box mode: delivers plan-ordered record batches (at
  /// most Options::sink_batch records each) to `sink` instead of
  /// materializing a RawTable, then close()s the sink.  Output is
  /// byte-for-byte what the RawTable overloads would have archived, at
  /// any thread count; the plan is executed in sink_batch-sized windows
  /// so resident state stays bounded regardless of campaign size.
  void run(const Plan& plan, const MeasureFn& measure, RecordSink& sink) const;
  void run(const Plan& plan, const MeasureFactory& factory,
           RecordSink& sink) const;

  /// Partitioned streaming execution: runs plan order positions
  /// [first, first + count) only, delivering their plan-ordered batches
  /// to `sink`.  Records are bit-identical to the corresponding slice of
  /// a full run at any thread count: run i's random stream is the i-th
  /// engine-stream split regardless of the range executed.  first > 0
  /// requires Options::clock == Clock::kIndexed (the accumulated clock
  /// depends on every preceding run's duration) and throws
  /// std::invalid_argument otherwise.  run(plan, factory, sink) is
  /// run_range(plan, factory, sink, 0, plan.size()).
  void run_range(const Plan& plan, const MeasureFactory& factory,
                 RecordSink& sink, std::size_t first, std::size_t count) const;

  /// Opaque mode: sorts runs by cell index (sequential sweep), streams
  /// every measurement into online per-cell Welford accumulators, and
  /// throws the raw data away.  Returned summaries are all an opaque
  /// tool would have reported.  Resident state is bounded by one
  /// execution window of MeasureResults (Options::sink_batch; two when
  /// pipelined over a pool) plus the accumulators -- never the full
  /// campaign.
  OpaqueSummary run_opaque(const Plan& plan, const MeasureFn& measure) const;
  OpaqueSummary run_opaque(const Plan& plan,
                           const MeasureFactory& factory) const;

 private:
  std::vector<std::string> metric_names_;
  Options options_;
};

}  // namespace cal
