#include "core/design.hpp"

#include <algorithm>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "io/csv.hpp"

namespace cal {

Plan::Plan(std::vector<Factor> factors, std::vector<PlannedRun> runs,
           std::uint64_t seed)
    : factors_(std::move(factors)), runs_(std::move(runs)), seed_(seed) {
  for (const auto& run : runs_) {
    if (run.values.size() != factors_.size()) {
      throw std::invalid_argument("Plan: run width != factor count");
    }
  }
}

std::size_t Plan::factor_index(const std::string& name) const {
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    if (factors_[i].name() == name) return i;
  }
  throw std::out_of_range("Plan: unknown factor '" + name + "'");
}

const Value& Plan::value(std::size_t run, const std::string& name) const {
  return runs_.at(run).values.at(factor_index(name));
}

void Plan::write_csv(std::ostream& out) const {
  out << "# calipers experiment plan\n";
  out << "# seed: " << seed_ << "\n";
  for (const auto& f : factors_) {
    out << "# factor: " << f.name() << " category=" << to_string(f.category())
        << "\n";
  }
  std::vector<std::string> header = {"run", "cell", "replicate"};
  for (const auto& f : factors_) header.push_back(f.name());
  io::write_csv_row(out, header);
  for (const auto& run : runs_) {
    std::vector<std::string> row = {std::to_string(run.run_index),
                                    std::to_string(run.cell_index),
                                    std::to_string(run.replicate)};
    for (const auto& v : run.values) row.push_back(v.to_string());
    io::write_csv_row(out, row);
  }
}

Plan Plan::read_csv(std::istream& in) {
  const auto rows = io::read_csv(in);
  if (rows.empty()) throw std::runtime_error("Plan: empty CSV");
  const auto& header = rows.front();
  if (header.size() < 4 || header[0] != "run" || header[1] != "cell" ||
      header[2] != "replicate") {
    throw std::runtime_error("Plan: malformed header");
  }

  const std::size_t n_factors = header.size() - 3;
  std::vector<std::vector<Value>> observed(n_factors);
  std::vector<PlannedRun> runs;
  runs.reserve(rows.size() - 1);
  // The last row read per cell, with the text it was parsed from: runs
  // whose factor cells read the same text share one row, as in the plan
  // DesignBuilder built.  Keyed by map, since the cell index is input.
  struct CellRow {
    const std::vector<std::string>* text = nullptr;
    FactorRow row;
  };
  std::unordered_map<std::size_t, CellRow> cell_rows;
  std::vector<Value> values(n_factors);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != header.size()) {
      throw std::runtime_error("Plan: ragged CSV row");
    }
    PlannedRun run;
    run.run_index = static_cast<std::size_t>(std::stoull(row[0]));
    run.cell_index = static_cast<std::size_t>(std::stoull(row[1]));
    run.replicate = static_cast<std::size_t>(std::stoull(row[2]));
    for (std::size_t c = 0; c < n_factors; ++c) {
      const Value& v = values[c] = Value::parse(row[3 + c]);
      auto& seen = observed[c];
      bool found = false;
      for (const auto& s : seen) {
        if (s == v) {
          found = true;
          break;
        }
      }
      if (!found) seen.push_back(v);
    }
    CellRow& shared = cell_rows[run.cell_index];
    if (shared.text == nullptr ||
        !std::equal(row.begin() + 3, row.end(), shared.text->begin() + 3)) {
      shared = CellRow{&row, FactorRow(std::span<const Value>(values))};
    }
    run.values = shared.row;
    runs.push_back(std::move(run));
  }

  std::vector<Factor> factors;
  factors.reserve(n_factors);
  for (std::size_t c = 0; c < n_factors; ++c) {
    factors.push_back(Factor::levels(header[3 + c], std::move(observed[c])));
  }
  return Plan(std::move(factors), std::move(runs), /*seed=*/0);
}

DesignBuilder& DesignBuilder::add(Factor factor) {
  for (const auto& f : factors_) {
    if (f.name() == factor.name()) {
      throw std::invalid_argument("DesignBuilder: duplicate factor '" +
                                  factor.name() + "'");
    }
  }
  factors_.push_back(std::move(factor));
  return *this;
}

DesignBuilder& DesignBuilder::replications(std::size_t n) {
  if (n == 0) throw std::invalid_argument("DesignBuilder: replications == 0");
  replications_ = n;
  return *this;
}

DesignBuilder& DesignBuilder::randomize(bool on) {
  randomize_ = on;
  return *this;
}

DesignBuilder& DesignBuilder::samples_per_cell(std::size_t n) {
  if (n == 0) throw std::invalid_argument("DesignBuilder: samples == 0");
  samples_per_cell_ = n;
  return *this;
}

Plan DesignBuilder::build() const {
  if (factors_.empty()) {
    throw std::logic_error("DesignBuilder: no factors added");
  }
  Rng rng(seed_);

  std::size_t n_cells = 1;
  for (const auto& f : factors_) n_cells *= f.cell_count();

  const bool has_sampled = [&] {
    for (const auto& f : factors_) {
      if (f.kind() != FactorKind::kLevels) return true;
    }
    return false;
  }();
  const std::size_t samples = has_sampled ? samples_per_cell_ : 1;

  std::vector<PlannedRun> runs;
  runs.reserve(n_cells * replications_ * samples);
  std::vector<std::size_t> level_idx(factors_.size());
  std::vector<Value> values(factors_.size());
  // Level factors draw nothing from `rng`, so drawing a level-only
  // cell's row once leaves the sampled values of other plans unchanged.
  const auto draw_row = [&] {
    for (std::size_t f = 0; f < factors_.size(); ++f) {
      values[f] = factors_[f].value_for_cell(level_idx[f], rng);
    }
    return FactorRow(std::span<const Value>(values));
  };
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    // Decompose the cell index into per-factor level indices
    // (mixed-radix, first factor varies slowest).
    std::size_t rest = cell;
    for (std::size_t f = factors_.size(); f-- > 0;) {
      const std::size_t radix = factors_[f].cell_count();
      level_idx[f] = rest % radix;
      rest /= radix;
    }
    // Without a sampled factor every run of the cell shares one row.
    const FactorRow cell_row = has_sampled ? FactorRow() : draw_row();
    for (std::size_t rep = 0; rep < replications_; ++rep) {
      for (std::size_t s = 0; s < samples; ++s) {
        PlannedRun run;
        run.cell_index = cell;
        run.replicate = rep;
        run.values = has_sampled ? draw_row() : cell_row;
        runs.push_back(std::move(run));
      }
    }
  }

  if (randomize_) {
    rng.shuffle(runs);
  }
  for (std::size_t i = 0; i < runs.size(); ++i) runs[i].run_index = i;
  return Plan(factors_, std::move(runs), seed_);
}

}  // namespace cal
