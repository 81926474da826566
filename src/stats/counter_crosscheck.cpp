#include "stats/counter_crosscheck.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "sim/mem/kernel_model.hpp"

namespace cal::stats {

namespace {

std::size_t require_metric(const RawTable& table, const std::string& name) {
  const auto& names = table.metric_names();
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) {
    throw std::invalid_argument("counter_crosscheck: table is missing the '" +
                                name + "' metric column");
  }
  return static_cast<std::size_t>(it - names.begin());
}

std::size_t require_factor(const RawTable& table, const std::string& name) {
  const auto& names = table.factor_names();
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) {
    throw std::invalid_argument("counter_crosscheck: table is missing the '" +
                                name + "' factor");
  }
  return static_cast<std::size_t>(it - names.begin());
}

/// Per-cell accumulator: sums of every column the checks consume.
struct CellAcc {
  std::size_t n = 0;
  FactorRow factors;
  double cycles = 0.0;
  double instructions = 0.0;
  double l1_hits = 0.0;
  double l1_misses = 0.0;
  double l2_hits = 0.0;
  double llc_hits = 0.0;
  double mem_accesses = 0.0;
  double stall_cycles = 0.0;
  double eff_hz = 0.0;  ///< sum of per-record cycles / elapsed
};

std::string describe_factors(const RawTable& table,
                             const FactorRow& factors) {
  std::string out;
  const auto& names = table.factor_names();
  for (std::size_t i = 0; i < factors.size() && i < names.size(); ++i) {
    if (!out.empty()) out += ' ';
    out += names[i] + "=" + factors[i].to_string();
  }
  return out;
}

double fmt_safe(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

std::string CrosscheckReport::to_text() const {
  char line[256];
  std::snprintf(line, sizeof line,
                "counter_crosscheck: %zu cells, %zu contradictions -> %s\n",
                cells, contradictions, passed() ? "PASS" : "FAIL");
  std::string out = line;
  for (const auto& f : findings) {
    if (!f.flagged) continue;
    std::snprintf(line, sizeof line,
                  "  CONTRADICTION [%s] cell %zu: measured=%.1f "
                  "predicted=%.1f rel_error=%.3f",
                  f.check.c_str(), f.cell_index, fmt_safe(f.measured),
                  fmt_safe(f.predicted), fmt_safe(f.rel_error));
    out += line;
    if (!f.note.empty()) out += "  (" + f.note + ")";
    out += '\n';
  }
  return out;
}

CrosscheckReport counter_crosscheck(const RawTable& table,
                                    const sim::MachineSpec& claimed,
                                    const CrosscheckOptions& options) {
  if (claimed.caches.empty()) {
    throw std::invalid_argument("counter_crosscheck: claimed spec has no "
                                "caches");
  }
  const std::size_t m_cycles = require_metric(table, "pmu.cycles");
  const std::size_t m_instr = require_metric(table, "pmu.instructions");
  const std::size_t m_l1h = require_metric(table, "pmu.l1_hits");
  const std::size_t m_l1m = require_metric(table, "pmu.l1_misses");
  const std::size_t m_l2h = require_metric(table, "pmu.l2_hits");
  const std::size_t m_llch = require_metric(table, "pmu.llc_hits");
  const std::size_t m_mem = require_metric(table, "pmu.mem_accesses");
  const std::size_t m_stall = require_metric(table, "pmu.stall_cycles");
  const std::size_t m_elapsed = require_metric(table, "elapsed_s");
  const std::size_t f_elem = require_factor(table, "elem_bytes");
  const std::size_t f_unroll = require_factor(table, "unroll");

  // Cell means.  std::map keeps cell order deterministic.
  std::map<std::size_t, CellAcc> cells;
  for (const auto& rec : table.records()) {
    CellAcc& acc = cells[rec.cell_index];
    if (acc.n == 0) acc.factors = rec.factors;
    ++acc.n;
    acc.cycles += rec.metrics[m_cycles];
    acc.instructions += rec.metrics[m_instr];
    acc.l1_hits += rec.metrics[m_l1h];
    acc.l1_misses += rec.metrics[m_l1m];
    acc.l2_hits += rec.metrics[m_l2h];
    acc.llc_hits += rec.metrics[m_llch];
    acc.mem_accesses += rec.metrics[m_mem];
    acc.stall_cycles += rec.metrics[m_stall];
    const double elapsed = rec.metrics[m_elapsed];
    if (elapsed > 0.0) acc.eff_hz += rec.metrics[m_cycles] / elapsed;
  }

  // Claimed per-level hit stalls, mirroring Hierarchy's mapping: hitting
  // level i costs the miss stall of level i-1; memory pays the
  // MLP-divided throughput-domain stall.  The l2 counter is only
  // populated on >= 3-level machines (level 1); the llc counter is the
  // last cache level.
  const std::size_t levels = claimed.caches.size();
  const double stall_l2_hit = claimed.caches[0].miss_stall_cycles;
  const double stall_llc_hit =
      claimed.caches[levels >= 2 ? levels - 2 : 0].miss_stall_cycles;
  const double stall_mem =
      claimed.memory_stall_cycles / std::max(claimed.memory_mlp, 1.0);

  CrosscheckReport report;
  report.cells = cells.size();
  for (const auto& [cell_index, acc] : cells) {
    const double n = static_cast<double>(acc.n);
    const double cycles = acc.cycles / n;
    const double instructions = acc.instructions / n;
    const double accesses = (acc.l1_hits + acc.l1_misses) / n;
    const double l1_misses = acc.l1_misses / n;
    const double l2_hits = acc.l2_hits / n;
    const double llc_hits = acc.llc_hits / n;
    const double mem_accesses = acc.mem_accesses / n;
    const double stalls = acc.stall_cycles / n;
    const double eff_ghz = acc.eff_hz / n / 1e9;

    CounterRates rates;
    rates.cell_index = cell_index;
    rates.factors = acc.factors;
    rates.accesses = accesses;
    rates.cycles_per_access = accesses > 0.0 ? cycles / accesses : 0.0;
    rates.ipc = cycles > 0.0 ? instructions / cycles : 0.0;
    const double kilo_instr = instructions / 1000.0;
    if (kilo_instr > 0.0) {
      rates.l1_mpki = l1_misses / kilo_instr;
      // Misses at a level are the accesses served deeper than it; the L2
      // event pair only exists on >= 3-level machines.
      rates.l2_mpki =
          l2_hits > 0.0 ? (llc_hits + mem_accesses) / kilo_instr : 0.0;
      rates.llc_mpki = mem_accesses / kilo_instr;
      rates.mem_per_kilo_instr = mem_accesses / kilo_instr;
    }
    rates.effective_ghz = eff_ghz;
    report.rates.push_back(rates);

    sim::mem::KernelConfig kernel;
    kernel.element_bytes =
        static_cast<std::size_t>(acc.factors[f_elem].as_int());
    kernel.unroll = static_cast<std::size_t>(acc.factors[f_unroll].as_int());
    const double issue_cpe =
        sim::mem::issue_cycles_per_access(claimed.issue, kernel);

    // --- stall_accounting ------------------------------------------------
    {
      const double predicted = l2_hits * stall_l2_hit +
                               llc_hits * stall_llc_hit +
                               mem_accesses * stall_mem;
      const double scale = std::max(std::max(stalls, predicted), 1.0);
      CrosscheckFinding f;
      f.check = "stall_accounting";
      f.cell_index = cell_index;
      f.factors = acc.factors;
      f.measured = stalls;
      f.predicted = predicted;
      f.rel_error = std::abs(stalls - predicted) / scale;
      const bool material =
          accesses > 0.0 &&
          std::max(stalls, predicted) / accesses >= options.min_stall_per_access;
      f.flagged = material && f.rel_error > options.accounting_tolerance;
      f.note = describe_factors(table, acc.factors);
      if (f.flagged) ++report.contradictions;
      report.findings.push_back(std::move(f));
    }

    // --- cycle_accounting ------------------------------------------------
    {
      // Measured stalls on the predicted side: this check isolates the
      // claimed *issue* model from the stall model above.
      const double predicted = issue_cpe * accesses + stalls;
      const double scale = std::max(std::max(cycles, predicted), 1.0);
      CrosscheckFinding f;
      f.check = "cycle_accounting";
      f.cell_index = cell_index;
      f.factors = acc.factors;
      f.measured = cycles;
      f.predicted = predicted;
      f.rel_error = std::abs(cycles - predicted) / scale;
      f.flagged = f.rel_error > options.accounting_tolerance;
      f.note = describe_factors(table, acc.factors);
      if (f.flagged) ++report.contradictions;
      report.findings.push_back(std::move(f));
    }

    // --- effective_frequency ---------------------------------------------
    {
      const double lo = claimed.freq.min_ghz * (1.0 - options.frequency_tolerance);
      const double hi = claimed.freq.max_ghz * (1.0 + options.frequency_tolerance);
      CrosscheckFinding f;
      f.check = "effective_frequency";
      f.cell_index = cell_index;
      f.factors = acc.factors;
      f.measured = eff_ghz;
      const double nearest = std::clamp(eff_ghz, lo, hi);
      f.predicted = nearest;
      f.rel_error =
          nearest > 0.0 ? std::abs(eff_ghz - nearest) / nearest : 0.0;
      f.flagged = eff_ghz < lo || eff_ghz > hi;
      f.note = describe_factors(table, acc.factors);
      if (f.flagged) ++report.contradictions;
      report.findings.push_back(std::move(f));
    }
  }
  return report;
}

}  // namespace cal::stats
