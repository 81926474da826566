#include "core/record.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <span>
#include <stdexcept>

#include "io/csv.hpp"

namespace cal {

RawTable::RawTable(std::vector<std::string> factor_names,
                   std::vector<std::string> metric_names)
    : factor_names_(std::move(factor_names)),
      metric_names_(std::move(metric_names)) {}

void RawTable::append(RawRecord record) {
  if (record.factors.size() != factor_names_.size() ||
      record.metrics.size() != metric_names_.size()) {
    throw std::invalid_argument("RawTable: record width mismatch");
  }
  records_.push_back(std::move(record));
}

void RawTable::append_batch(std::vector<RawRecord> batch) {
  for (const auto& record : batch) {
    if (record.factors.size() != factor_names_.size() ||
        record.metrics.size() != metric_names_.size()) {
      throw std::invalid_argument("RawTable: record width mismatch");
    }
  }
  records_.reserve(records_.size() + batch.size());
  records_.insert(records_.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
}

std::size_t RawTable::factor_index(const std::string& name) const {
  for (std::size_t i = 0; i < factor_names_.size(); ++i) {
    if (factor_names_[i] == name) return i;
  }
  throw std::out_of_range("RawTable: unknown factor '" + name + "'");
}

std::size_t RawTable::metric_index(const std::string& name) const {
  for (std::size_t i = 0; i < metric_names_.size(); ++i) {
    if (metric_names_[i] == name) return i;
  }
  throw std::out_of_range("RawTable: unknown metric '" + name + "'");
}

std::vector<double> RawTable::factor_column_real(
    const std::string& name) const {
  const std::size_t idx = factor_index(name);
  std::vector<double> out;
  out.reserve(records_.size());
  for (const auto& r : records_) out.push_back(r.factors[idx].as_real());
  return out;
}

std::vector<double> RawTable::metric_column(const std::string& name) const {
  const std::size_t idx = metric_index(name);
  std::vector<double> out;
  out.reserve(records_.size());
  for (const auto& r : records_) out.push_back(r.metrics[idx]);
  return out;
}

RawTable RawTable::filter(const std::string& factor, const Value& value) const {
  const std::size_t idx = factor_index(factor);
  RawTable out(factor_names_, metric_names_);
  for (const auto& r : records_) {
    if (r.factors[idx] == value) out.append(r);
  }
  return out;
}

std::vector<Value> RawTable::distinct(const std::string& factor) const {
  const std::size_t idx = factor_index(factor);
  std::vector<Value> values;
  for (const auto& r : records_) {
    const auto& v = r.factors[idx];
    if (std::find(values.begin(), values.end(), v) == values.end()) {
      values.push_back(v);
    }
  }
  std::sort(values.begin(), values.end());
  return values;
}

void write_raw_csv_header(std::ostream& out,
                          const std::vector<std::string>& factor_names,
                          const std::vector<std::string>& metric_names) {
  std::vector<std::string> header = {"sequence", "cell", "replicate",
                                     "timestamp_s"};
  header.insert(header.end(), factor_names.begin(), factor_names.end());
  header.insert(header.end(), metric_names.begin(), metric_names.end());
  io::write_csv_row(out, header);
}

namespace {

void append_count(std::string& row, std::uint64_t v) {
  char buf[24];
  row.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

void append_csv_value(std::string& row, const Value& v) {
  switch (v.kind()) {
    case ValueKind::kInt: {
      char buf[24];
      row.append(buf, std::to_chars(buf, buf + sizeof buf, v.as_int()).ptr);
      return;
    }
    case ValueKind::kReal: append_real(row, v.as_real()); return;
    case ValueKind::kString: io::append_csv_cell(row, v.as_string()); return;
  }
}

void append_raw_csv_record(std::string& row, const RawRecord& record) {
  append_count(row, record.sequence);
  row += ',';
  append_count(row, record.cell_index);
  row += ',';
  append_count(row, record.replicate);
  row += ',';
  append_real(row, record.timestamp_s);
  for (const Value& v : record.factors) {
    row += ',';
    append_csv_value(row, v);
  }
  for (const double m : record.metrics) {
    row += ',';
    append_real(row, m);
  }
  row += '\n';
}

void write_raw_csv_record(std::ostream& out, const RawRecord& record) {
  std::string row;
  append_raw_csv_record(row, record);
  out << row;
}

void RawTable::write_csv(std::ostream& out) const {
  write_raw_csv_header(out, factor_names_, metric_names_);
  std::string row;
  for (const RawRecord& r : records_) {
    row.clear();
    append_raw_csv_record(row, r);
    out << row;
  }
}

RawTable RawTable::read_csv(std::istream& in, std::size_t n_factors) {
  const auto rows = io::read_csv(in);
  if (rows.empty()) throw std::runtime_error("RawTable: empty CSV");
  const auto& header = rows.front();
  constexpr std::size_t kBookkeeping = 4;
  if (header.size() < kBookkeeping + n_factors) {
    throw std::runtime_error("RawTable: header too narrow");
  }
  std::vector<std::string> factor_names(
      header.begin() + kBookkeeping,
      header.begin() + kBookkeeping + static_cast<std::ptrdiff_t>(n_factors));
  std::vector<std::string> metric_names(
      header.begin() + kBookkeeping + static_cast<std::ptrdiff_t>(n_factors),
      header.end());
  RawTable table(std::move(factor_names), std::move(metric_names));
  std::vector<Value> factors(n_factors);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const auto& row = rows[i];
    if (row.size() != header.size()) {
      throw std::runtime_error("RawTable: ragged CSV row");
    }
    RawRecord rec;
    rec.sequence = static_cast<std::size_t>(std::stoull(row[0]));
    rec.cell_index = static_cast<std::size_t>(std::stoull(row[1]));
    rec.replicate = static_cast<std::size_t>(std::stoull(row[2]));
    rec.timestamp_s = std::stod(row[3]);
    for (std::size_t c = 0; c < n_factors; ++c) {
      factors[c] = Value::parse(row[kBookkeeping + c]);
    }
    rec.factors = FactorRow(std::span<const Value>(factors));
    for (std::size_t c = kBookkeeping + n_factors; c < row.size(); ++c) {
      rec.metrics.push_back(std::stod(row[c]));
    }
    table.append(std::move(rec));
  }
  return table;
}

}  // namespace cal
