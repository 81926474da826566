#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/fault.hpp"
#include "io/csv.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cal {
namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point a,
                       SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Folds one finished window into the attached collector.
void note_window(WindowStats* stats, std::size_t runs, double wall_s) {
  if (stats == nullptr) return;
  if (stats->windows == 0 || wall_s < stats->min_window_s) {
    stats->min_window_s = wall_s;
  }
  stats->max_window_s = std::max(stats->max_window_s, wall_s);
  stats->windows += 1;
  stats->runs += runs;
  stats->wall_s += wall_s;
}

/// Draws the next `n` child seeds from the engine stream.  Drawing them
/// through one long-lived Rng keeps the global invariant of the parallel
/// contract: the k-th planned run's seed is exactly what the k-th
/// sequential engine_rng.split() would have used, so per-run streams do
/// not depend on which worker executes the run, when, or in which
/// execution window.
void draw_seeds(Rng& engine_rng, std::size_t n,
                std::vector<std::uint64_t>& seeds) {
  seeds.resize(n);
  for (auto& seed : seeds) seed = engine_rng.next_u64();
}

/// Builds every worker's measurement callable up front, on the calling
/// thread, so factories need no synchronization.  Shared by both
/// parallel entry points (run-with-sink and run_opaque) so the
/// factory-call ordering that determinism relies on has one definition.
std::vector<MeasureFn> build_measures(const MeasureFactory& factory,
                                      std::size_t threads) {
  std::vector<MeasureFn> measures;
  measures.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) measures.push_back(factory(w));
  return measures;
}

/// Assembles the record for `planned`, stamped with timestamp `t`,
/// appends it to `batch`, and advances the accumulated clock by the
/// run's duration plus the inter-run gap.  The one definition both the
/// sequential path and the parallel window merge share -- the
/// bit-identical contract depends on these never drifting apart.
void append_record(const PlannedRun& planned, MeasureResult&& result, double t,
                   double& now, double gap, std::vector<RawRecord>& batch) {
  RawRecord rec;
  rec.sequence = planned.run_index;
  rec.cell_index = planned.cell_index;
  rec.replicate = planned.replicate;
  rec.timestamp_s = t;
  rec.factors = planned.values;
  rec.metrics = std::move(result.metrics);
  batch.push_back(std::move(rec));
  now += result.elapsed_s + gap;
}

/// Streamed per-cell Welford accumulators: the opaque path's whole
/// resident state.  Measurements are merged strictly in sweep order
/// (sequentially, or window by window in parallel mode), so the sums --
/// and therefore the summaries -- are bit-identical no matter how the
/// campaign was executed.
class WelfordCells {
 public:
  WelfordCells(std::size_t n_cells, std::size_t n_metrics)
      : n_metrics_(n_metrics), cells_(n_cells) {}

  /// Folds one measurement into its cell.  A cell's reported factor
  /// values are those of its first run in sweep order (for sampled
  /// factors they vary within the cell; level factors are constant).
  void add(const PlannedRun& run, const std::vector<double>& metrics) {
    Acc& acc = cells_[run.cell_index];
    if (acc.n == 0) {
      acc.factors = run.values;
      acc.mean.assign(n_metrics_, 0.0);
      acc.m2.assign(n_metrics_, 0.0);
    }
    acc.n += 1;
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      const double x = metrics[m];
      const double delta = x - acc.mean[m];
      acc.mean[m] += delta / static_cast<double>(acc.n);
      acc.m2[m] += delta * (x - acc.mean[m]);
    }
  }

  /// Finalizes into summary cells (sample sd, n-1; 0 for single-sample
  /// cells), skipping cells that had no runs.  The accumulators are
  /// spent afterwards.
  std::vector<OpaqueCellSummary> finish() {
    std::vector<OpaqueCellSummary> out;
    out.reserve(cells_.size());
    for (auto& acc : cells_) {
      if (acc.n == 0) continue;
      OpaqueCellSummary cell;
      cell.factors = std::move(acc.factors);
      cell.n = acc.n;
      cell.mean = std::move(acc.mean);
      cell.sd.resize(acc.m2.size());
      for (std::size_t m = 0; m < acc.m2.size(); ++m) {
        cell.sd[m] =
            acc.n > 1 ? std::sqrt(acc.m2[m] / static_cast<double>(acc.n - 1))
                      : 0.0;
      }
      out.push_back(std::move(cell));
    }
    return out;
  }

 private:
  struct Acc {
    std::vector<Value> factors;
    std::size_t n = 0;
    std::vector<double> mean;
    std::vector<double> m2;
  };
  std::size_t n_metrics_;
  std::vector<Acc> cells_;
};

/// The pool a parallel call executes its windows on: the shared
/// Options::pool when set, else one owned for the duration of the call.
class PoolLease {
 public:
  PoolLease(const Engine::Options& options, std::size_t threads) {
    if (options.pool) {
      pool_ = options.pool.get();
    } else {
      owned_ = std::make_unique<core::WorkerPool>(threads, "cal-engine");
      pool_ = owned_.get();
    }
  }

  core::WorkerPool& pool() noexcept { return *pool_; }

 private:
  core::WorkerPool* pool_ = nullptr;
  std::unique_ptr<core::WorkerPool> owned_;
};

/// Closes `sink` during unwinding if the campaign failed before the
/// engine could close it normally; errors from this best-effort close
/// are swallowed so the measurement error stays the one that propagates.
class SinkCloser {
 public:
  explicit SinkCloser(RecordSink& sink) : sink_(sink) {}
  ~SinkCloser() {
    if (!disarmed_) {
      try {
        sink_.close();
      } catch (...) {
      }
    }
  }
  void disarm() noexcept { disarmed_ = true; }

 private:
  RecordSink& sink_;
  bool disarmed_ = false;
};

}  // namespace

void OpaqueSummary::write_csv(std::ostream& out) const {
  std::vector<std::string> header = factor_names;
  header.push_back("n");
  for (const auto& m : metric_names) {
    header.push_back("mean_" + m);
    header.push_back("sd_" + m);
  }
  io::write_csv_row(out, header);
  for (const auto& cell : cells) {
    std::vector<std::string> row;
    row.reserve(header.size());
    for (const auto& f : cell.factors) row.push_back(f.to_string());
    row.push_back(std::to_string(cell.n));
    for (std::size_t m = 0; m < metric_names.size(); ++m) {
      row.push_back(Value(cell.mean[m]).to_string());
      row.push_back(Value(cell.sd[m]).to_string());
    }
    io::write_csv_row(out, row);
  }
}

Engine::Engine(std::vector<std::string> metric_names, Options options)
    : metric_names_(std::move(metric_names)), options_(options) {
  if (metric_names_.empty()) {
    throw std::invalid_argument("Engine: no metric names");
  }
}

std::size_t Engine::resolve_threads(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t Engine::parallelism(std::size_t plan_runs) const {
  // Clamp to the plan size either way: a 6-run campaign on a 32-worker
  // shared pool should build 6 factory replicas, not 32.
  const std::size_t requested = options_.pool
                                    ? options_.pool->size()
                                    : resolve_threads(options_.threads);
  return std::min(requested, std::max<std::size_t>(plan_runs, 1));
}

void Engine::execute_window(core::WorkerPool& pool,
                            const std::vector<PlannedRun>& order,
                            std::size_t begin, std::size_t end,
                            const std::vector<std::uint64_t>& seeds,
                            bool sequence_is_position,
                            const std::vector<MeasureFn>& measures,
                            std::vector<MeasureResult>& results,
                            std::vector<double>* worker_busy_s) const {
  results.resize(end - begin);
  CAL_SPAN("engine.window");
  // Round-robin sharding (worker w takes window positions w, w + width,
  // ...): deterministic -- no work stealing -- and interleaved assignment
  // spreads expensive neighbouring runs; randomized plans have no cost
  // locality anyway.  The shard width is the measure count, which may be
  // below a shared pool's worker count for small plans.  On failure the
  // lowest-position exception (plan order) propagates and the pool
  // stays reusable.
  pool.run_indexed(end - begin, [&](std::size_t w, std::size_t k) {
    const std::size_t j = begin + k;
    Rng run_rng(seeds[k]);
    MeasureContext ctx{options_.start_time_s,
                       sequence_is_position ? j : order[j].run_index, &run_rng,
                       w};
    const bool timed = worker_busy_s != nullptr;
    const auto t0 = timed ? SteadyClock::now() : SteadyClock::time_point{};
    MeasureResult result = measures[w](order[j], ctx);
    if (timed) (*worker_busy_s)[w] += seconds_between(t0, SteadyClock::now());
    if (result.metrics.size() != metric_names_.size()) {
      throw std::runtime_error("Engine: measurement width mismatch");
    }
    results[k] = std::move(result);
  }, measures.size());
}

void Engine::run(const Plan& plan, const MeasureFactory& factory,
                 RecordSink& sink) const {
  run_range(plan, factory, sink, 0, plan.size());
}

void Engine::run_range(const Plan& plan, const MeasureFactory& factory,
                       RecordSink& sink, std::size_t first,
                       std::size_t count) const {
  const std::vector<PlannedRun>& order = plan.runs();
  if (first > order.size() || count > order.size() - first) {
    throw std::out_of_range("Engine::run_range: range exceeds plan size " +
                            std::to_string(order.size()));
  }
  if (first != 0 && options_.clock != Clock::kIndexed) {
    throw std::invalid_argument(
        "Engine::run_range: first > 0 requires Options::clock == "
        "Clock::kIndexed (accumulated timestamps depend on every preceding "
        "run's duration)");
  }
  if (!options_.faults.empty()) core::fault::arm_spec(options_.faults);

  const bool indexed = options_.clock == Clock::kIndexed;
  const double gap = options_.inter_run_gap_s;
  // Under the indexed clock a record's timestamp is a pure function of
  // its plan index; under the accumulated clock it is the threaded
  // simulated `now`.  One lambda so both execution paths agree.
  const auto stamp = [&](double now, std::size_t run_index) {
    return indexed
               ? options_.start_time_s + static_cast<double>(run_index) * gap
               : now;
  };

  std::vector<std::string> factor_names;
  factor_names.reserve(plan.factors().size());
  for (const auto& f : plan.factors()) factor_names.push_back(f.name());
  sink.begin(factor_names, metric_names_, count);
  SinkCloser closer(sink);  // finalizes the sink even on failure

  const std::size_t n = count;
  const std::size_t batch_size = std::max<std::size_t>(options_.sink_batch, 1);
  const std::size_t threads = parallelism(n);

  WindowStats* const stats = options_.window_stats.get();
  if (stats != nullptr) {
    *stats = WindowStats{};
    stats->threads = threads;
  }

  if (threads <= 1) {
    // Sequential: the simulated clock threads through the measurement, so
    // time-dependent simulations see true timestamps (accumulated clock;
    // the indexed clock's timestamps are position-determined either way).
    const MeasureFn measure = factory(0);
    Rng engine_rng(options_.seed);
    engine_rng.discard(first);  // runs [0, first) each drew one seed
    double now = options_.start_time_s;
    std::vector<RawRecord> batch;
    batch.reserve(std::min(batch_size, n));
    auto window_t0 = SteadyClock::now();
    const auto flush = [&] {
      const std::size_t runs = batch.size();
      CAL_COUNT("engine.windows", 1);
      CAL_COUNT("engine.runs", runs);
      CAL_FAULT_POINT("engine.window");
      {
        CAL_SPAN("engine.sink");
        CAL_TIME_SCOPE("engine.sink_seconds");
        sink.consume(std::move(batch));
      }
      note_window(stats, runs, seconds_between(window_t0, SteadyClock::now()));
      window_t0 = SteadyClock::now();
    };
    for (std::size_t j = first; j < first + count; ++j) {
      const PlannedRun& planned = order[j];
      Rng run_rng = engine_rng.split();
      const double t = stamp(now, planned.run_index);
      MeasureContext ctx{t, planned.run_index, &run_rng, 0};
      const auto t0 =
          stats != nullptr ? SteadyClock::now() : SteadyClock::time_point{};
      MeasureResult result = measure(planned, ctx);
      if (stats != nullptr) {
        stats->busy_s += seconds_between(t0, SteadyClock::now());
      }
      if (result.metrics.size() != metric_names_.size()) {
        throw std::runtime_error("Engine: measurement width mismatch");
      }
      append_record(planned, std::move(result), t, now, gap, batch);
      if (batch.size() >= batch_size) {
        flush();
        batch.clear();
        batch.reserve(std::min(batch_size, n));
      }
    }
    if (!batch.empty()) flush();
    closer.disarm();
    sink.close();
    return;
  }

  // Parallel: execute the range window by window (one window = one sink
  // batch) on the persistent pool, merging each window in plan order and
  // rebuilding the sequential clock from the returned durations across
  // windows.  The resident state is one window of results + one batch of
  // records, no matter how large the campaign is.
  const std::vector<MeasureFn> measures = build_measures(factory, threads);
  PoolLease lease(options_, threads);
  Rng engine_rng(options_.seed);
  engine_rng.discard(first);
  double now = options_.start_time_s;
  std::vector<std::uint64_t> seeds;
  std::vector<MeasureResult> results;
  std::vector<double> worker_busy_s(stats != nullptr ? threads : 0, 0.0);
  for (std::size_t begin = first; begin < first + n; begin += batch_size) {
    const std::size_t end = std::min(begin + batch_size, first + n);
    draw_seeds(engine_rng, end - begin, seeds);
    const auto window_t0 = SteadyClock::now();
    {
      CAL_TIME_SCOPE("engine.window_seconds");
      execute_window(lease.pool(), order, begin, end, seeds,
                     /*sequence_is_position=*/false, measures, results,
                     stats != nullptr ? &worker_busy_s : nullptr);
    }
    std::vector<RawRecord> batch;
    batch.reserve(end - begin);
    for (std::size_t j = begin; j < end; ++j) {
      const double t = stamp(now, order[j].run_index);
      append_record(order[j], std::move(results[j - begin]), t, now, gap,
                    batch);
    }
    CAL_COUNT("engine.windows", 1);
    CAL_COUNT("engine.runs", end - begin);
    CAL_FAULT_POINT("engine.window");
    {
      CAL_SPAN("engine.sink");
      CAL_TIME_SCOPE("engine.sink_seconds");
      sink.consume(std::move(batch));
    }
    note_window(stats, end - begin,
                seconds_between(window_t0, SteadyClock::now()));
  }
  if (stats != nullptr) {
    for (const double busy : worker_busy_s) stats->busy_s += busy;
  }
  closer.disarm();
  sink.close();
}

void Engine::run(const Plan& plan, const MeasureFn& measure,
                 RecordSink& sink) const {
  run(plan, MeasureFactory([&measure](std::size_t) { return measure; }), sink);
}

RawTable Engine::run(const Plan& plan, const MeasureFactory& factory) const {
  TableSink sink;
  run(plan, factory, sink);
  return sink.take();
}

RawTable Engine::run(const Plan& plan, const MeasureFn& measure) const {
  return run(plan, MeasureFactory([&measure](std::size_t) { return measure; }));
}

OpaqueSummary Engine::run_opaque(const Plan& plan,
                                 const MeasureFactory& factory) const {
  if (!options_.faults.empty()) core::fault::arm_spec(options_.faults);
  // Sequential sweep: sort by cell index, replicates back-to-back --
  // exactly the order of the pseudo-code in the paper's Fig. 2.
  std::vector<PlannedRun> order = plan.runs();
  std::stable_sort(order.begin(), order.end(),
                   [](const PlannedRun& a, const PlannedRun& b) {
                     return a.cell_index < b.cell_index;
                   });

  OpaqueSummary summary;
  for (const auto& f : plan.factors()) {
    summary.factor_names.push_back(f.name());
  }
  summary.metric_names = metric_names_;

  // Online Welford accumulators, indexed directly by the plan's cell
  // index -- no per-record scan over key vectors, and no MeasureResult
  // buffering: each measurement folds in as soon as it is merged.
  std::size_t n_cells = 0;
  for (const auto& planned : order) {
    n_cells = std::max(n_cells, planned.cell_index + 1);
  }
  WelfordCells cells(n_cells, metric_names_.size());

  const std::size_t threads = parallelism(order.size());
  if (threads <= 1) {
    const MeasureFn measure = factory(0);
    Rng engine_rng(options_.seed);
    double now = options_.start_time_s;
    for (std::size_t j = 0; j < order.size(); ++j) {
      Rng run_rng = engine_rng.split();
      MeasureContext ctx{now, j, &run_rng, 0};
      MeasureResult result = measure(order[j], ctx);
      if (result.metrics.size() != metric_names_.size()) {
        throw std::runtime_error("Engine: measurement width mismatch");
      }
      now += result.elapsed_s + options_.inter_run_gap_s;
      cells.add(order[j], result.metrics);
    }
  } else {
    // Parallel: execute the sweep in bounded windows on the persistent
    // pool and merge each window's staged results into the shared
    // accumulators in plan order -- the summation order is identical to
    // the sequential loop above, so the summaries are bit-identical at
    // any thread count and any window size.
    const std::size_t window = std::max<std::size_t>(
        options_.opaque_window != 0 ? options_.opaque_window
                                    : options_.sink_batch,
        1);
    const std::vector<MeasureFn> measures = build_measures(factory, threads);
    PoolLease lease(options_, threads);
    Rng engine_rng(options_.seed);
    std::vector<std::uint64_t> seeds;
    std::vector<MeasureResult> results;
    for (std::size_t begin = 0; begin < order.size(); begin += window) {
      const std::size_t end = std::min(begin + window, order.size());
      draw_seeds(engine_rng, end - begin, seeds);
      execute_window(lease.pool(), order, begin, end, seeds,
                     /*sequence_is_position=*/true, measures, results);
      for (std::size_t k = 0; k < end - begin; ++k) {
        cells.add(order[begin + k], results[k].metrics);
      }
    }
  }

  summary.cells = cells.finish();
  return summary;
}

OpaqueSummary Engine::run_opaque(const Plan& plan,
                                 const MeasureFn& measure) const {
  return run_opaque(plan,
                    MeasureFactory([&measure](std::size_t) { return measure; }));
}

}  // namespace cal
