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

/// Streamed per-cell Welford accumulators: the opaque path's whole
/// resident state.  Measurements are merged window by window, strictly
/// in sweep order, so the sums -- and therefore the summaries -- are
/// bit-identical no matter how the campaign was executed.
class WelfordCells {
 public:
  WelfordCells(std::size_t n_cells, std::size_t n_metrics)
      : n_metrics_(n_metrics), cells_(n_cells) {}

  /// Folds one measurement (n_metrics values) into its cell.  A cell's
  /// reported factor values are those of its first run in sweep order
  /// (for sampled factors they vary within the cell; level factors are
  /// constant).
  void add(const PlannedRun& run, const double* metrics) {
    Acc& acc = cells_[run.cell_index];
    if (acc.n == 0) {
      acc.factors = run.values;
      acc.mean.assign(n_metrics_, 0.0);
      acc.m2.assign(n_metrics_, 0.0);
    }
    acc.n += 1;
    for (std::size_t m = 0; m < n_metrics_; ++m) {
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

/// One window's measurements, flat: run k -- order[begin + k] -- has
/// metrics [k * width, (k + 1) * width) and duration elapsed_s[k].  A
/// worker copies each result in here and frees the MeasureResult
/// itself, so no allocation made on a worker is ever freed by the
/// merging thread (whose frees would contend for the worker's malloc
/// arena while the next window is being measured).
struct MeasuredWindow {
  std::size_t begin = 0;
  std::size_t width = 0;
  std::vector<double> metrics;
  std::vector<double> elapsed_s;

  std::size_t size() const noexcept { return elapsed_s.size(); }
  const double* metrics_of(std::size_t k) const noexcept {
    return metrics.data() + k * width;
  }
};

/// Folds one finished window into the caller's output, in plan order;
/// stamps[k] is run k's simulated timestamp.
using WindowMerge = std::function<void(const MeasuredWindow& window,
                                       const std::vector<double>& stamps)>;

/// The one execution loop behind run_range() and run_opaque(): runs
/// order[first, first + count) window by window (one window = one sink
/// batch of runs) and hands each finished window to `merge`, in plan
/// order.
///
/// With one worker the window runs inline on the calling thread, every
/// measurement sees the live simulated clock in now_s (what
/// time-dependent simulations need), and nothing overlaps: window k is
/// merged before window k + 1 starts.  With more, the loop is pipelined:
/// the pool measures window k + 1, handed out by guided
/// self-scheduling, while the calling thread stamps and merges window k,
/// so the resident state is two windows of results.  now_s is then the
/// start time, and the clock is rebuilt from the returned durations in
/// plan order, so the stamps are the same at any worker count.  Seeds
/// are drawn per window in plan order and a merge failure in window k
/// propagates ahead of a measurement failure in window k + 1 -- the
/// sequential order.  `sweep` selects the opaque sweep's conventions:
/// sequence numbers are positions in `order` and the clock always
/// accumulates.
void drive(const Engine& engine, const std::vector<PlannedRun>& order,
           std::size_t first, std::size_t count,
           const MeasureFactory& factory, bool sweep,
           const WindowMerge& merge) {
  const Engine::Options& options = engine.options();
  const std::size_t workers = engine.workers_for(count);
  const std::size_t window = std::max<std::size_t>(options.sink_batch, 1);
  const bool indexed = !sweep && options.clock == Clock::kIndexed;
  const double gap = options.inter_run_gap_s;

  WindowStats* const stats = options.window_stats.get();
  if (stats != nullptr) {
    *stats = WindowStats{};
    stats->threads = workers;
  }
  std::vector<double> busy_s(stats != nullptr ? workers : 0, 0.0);

  // Factories run on the calling thread, before any measurement starts,
  // so they need no synchronization.
  std::vector<MeasureFn> measures;
  measures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) measures.push_back(factory(w));
  // Null pool = one worker, run inline (even when a pool is shared).
  core::WorkerPool* pool = workers > 1 ? options.pool.get() : nullptr;
  std::unique_ptr<core::WorkerPool> owned;
  if (workers > 1 && pool == nullptr) {
    owned = std::make_unique<core::WorkerPool>(workers, "cal-engine");
    pool = owned.get();
  }

  const std::size_t width = engine.metric_names().size();
  MeasuredWindow slots[2];  // the window being measured, the one merging
  Rng engine_rng(options.seed);
  engine_rng.discard(first);  // runs [0, first) each drew one seed
  double now = options.start_time_s;
  std::vector<std::uint64_t> seeds;
  std::vector<double> stamps;

  const auto measure = [&](MeasuredWindow& into, std::size_t w,
                           std::size_t k, double now_s) {
    const PlannedRun& run = order[into.begin + k];
    Rng run_rng(seeds[k]);
    MeasureContext ctx{now_s, sweep ? into.begin + k : run.run_index,
                       &run_rng, w};
    const auto t0 =
        stats != nullptr ? SteadyClock::now() : SteadyClock::time_point{};
    MeasureResult result = measures[w](run, ctx);
    if (stats != nullptr) {
      busy_s[w] += seconds_between(t0, SteadyClock::now());
    }
    if (result.metrics.size() != width) {
      throw std::runtime_error("Engine: measurement width mismatch");
    }
    std::copy(result.metrics.begin(), result.metrics.end(),
              into.metrics.begin() + static_cast<std::ptrdiff_t>(k * width));
    into.elapsed_s[k] = result.elapsed_s;
  };
  // Under the indexed clock a timestamp is a pure function of the plan
  // index; under the accumulated clock it is the threaded `now`, which
  // each measured run advances by its duration plus the gap.
  const auto stamp = [&](const MeasuredWindow& of, std::size_t k) {
    return indexed ? options.start_time_s +
                         static_cast<double>(order[of.begin + k].run_index) *
                             gap
                   : now;
  };
  const auto merge_window = [&](const MeasuredWindow& done) {
    CAL_FAULT_POINT("engine.window");
    merge(done, stamps);
  };
  // Stamps a pooled window in plan order, then merges it.
  const auto settle = [&](const MeasuredWindow& done) {
    stamps.resize(done.size());
    for (std::size_t k = 0; k < stamps.size(); ++k) {
      stamps[k] = stamp(done, k);
      now += done.elapsed_s[k] + gap;
    }
    merge_window(done);
  };

  // Window k's wall time is its step's: under the pipeline that is
  // measuring k while merging k - 1, and the last window's step also
  // merges it.  So a window is noted once the next step has ended.
  MeasuredWindow* unmerged = nullptr;  // pooled, measured, not merged
  std::size_t held_runs = 0;
  double held_wall_s = 0.0;
  for (std::size_t begin = first; begin < first + count; begin += window) {
    const std::size_t n = std::min(window, first + count - begin);
    MeasuredWindow& current = slots[unmerged == &slots[0] ? 1 : 0];
    current.begin = begin;
    current.width = width;
    current.metrics.resize(n * width);
    current.elapsed_s.resize(n);
    draw_seeds(engine_rng, n, seeds);
    const auto step_t0 = SteadyClock::now();
    {
      CAL_SPAN("engine.window");
      CAL_TIME_SCOPE("engine.window_seconds");
      if (pool == nullptr) {
        stamps.resize(n);
        for (std::size_t k = 0; k < n; ++k) {
          stamps[k] = stamp(current, k);
          measure(current, 0, k, stamps[k]);
          now += current.elapsed_s[k] + gap;
        }
      } else {
        std::function<void()> meanwhile;
        if (unmerged != nullptr) meanwhile = [&] { settle(*unmerged); };
        pool->run_indexed(
            n,
            [&](std::size_t w, std::size_t k) {
              measure(current, w, k, options.start_time_s);
            },
            workers, meanwhile);
      }
    }
    CAL_COUNT("engine.windows", 1);
    CAL_COUNT("engine.runs", n);
    if (pool == nullptr) {
      merge_window(current);
      note_window(stats, n, seconds_between(step_t0, SteadyClock::now()));
    } else {
      if (held_runs != 0) note_window(stats, held_runs, held_wall_s);
      held_runs = n;
      held_wall_s = seconds_between(step_t0, SteadyClock::now());
      unmerged = &current;
    }
  }
  if (unmerged != nullptr) {
    const auto t0 = SteadyClock::now();
    settle(*unmerged);
    note_window(stats, held_runs,
                held_wall_s + seconds_between(t0, SteadyClock::now()));
  }
  if (stats != nullptr) {
    for (const double busy : busy_s) stats->busy_s += busy;
  }
}

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

std::size_t Engine::workers_for(std::size_t plan_runs) const {
  // Clamp to the plan size either way: a 6-run campaign on a 32-worker
  // shared pool should build 6 factory replicas, not 32.
  const std::size_t requested = options_.pool
                                    ? options_.pool->size()
                                    : resolve_threads(options_.threads);
  return std::min(requested, std::max<std::size_t>(plan_runs, 1));
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

  std::vector<std::string> factor_names;
  factor_names.reserve(plan.factors().size());
  for (const auto& f : plan.factors()) factor_names.push_back(f.name());
  sink.begin(factor_names, metric_names_, count);
  SinkCloser closer(sink);  // finalizes the sink even on failure

  drive(*this, order, first, count, factory, /*sweep=*/false,
        [&](const MeasuredWindow& window, const std::vector<double>& stamps) {
          std::vector<RawRecord> batch(window.size());
          for (std::size_t k = 0; k < batch.size(); ++k) {
            const PlannedRun& planned = order[window.begin + k];
            RawRecord& rec = batch[k];
            rec.sequence = planned.run_index;
            rec.cell_index = planned.cell_index;
            rec.replicate = planned.replicate;
            rec.timestamp_s = stamps[k];
            rec.factors = planned.values;
            rec.metrics.assign(window.metrics_of(k),
                               window.metrics_of(k) + window.width);
          }
          CAL_SPAN("engine.sink");
          CAL_TIME_SCOPE("engine.sink_seconds");
          sink.consume(std::move(batch));
        });
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
  // buffering beyond one window: each window folds in as it finishes.
  std::size_t n_cells = 0;
  for (const auto& planned : order) {
    n_cells = std::max(n_cells, planned.cell_index + 1);
  }
  WelfordCells cells(n_cells, metric_names_.size());

  drive(*this, order, 0, order.size(), factory, /*sweep=*/true,
        [&](const MeasuredWindow& window, const std::vector<double>&) {
          for (std::size_t k = 0; k < window.size(); ++k) {
            cells.add(order[window.begin + k], window.metrics_of(k));
          }
        });
  summary.cells = cells.finish();
  return summary;
}

OpaqueSummary Engine::run_opaque(const Plan& plan,
                                 const MeasureFn& measure) const {
  return run_opaque(plan,
                    MeasureFactory([&measure](std::size_t) { return measure; }));
}

}  // namespace cal
