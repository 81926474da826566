#include "stats/group.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace cal::stats {
namespace {

bool key_less(const std::vector<Value>& a, const std::vector<Value>& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

/// Reorders a group's samples and sequence in place by `order`
/// (order[i] = index of the element that must end up at position i),
/// destroying `order`.  Cycle-walking swaps: no copy of the group is
/// materialized.
void apply_permutation(std::vector<std::size_t>& order, Group& group) {
  const std::size_t n = order.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t src = order[i];
    // Already-moved slots redirect to where their content went.
    while (src < i) src = order[src];
    if (src != i) {
      std::swap(group.samples[i], group.samples[src]);
      std::swap(group.sequence[i], group.sequence[src]);
    }
    order[i] = src;
  }
}

}  // namespace

std::vector<Group> group_metric(const RawTable& table,
                                const std::vector<std::string>& factors,
                                const std::string& metric) {
  std::vector<std::size_t> f_idx;
  f_idx.reserve(factors.size());
  for (const auto& f : factors) f_idx.push_back(table.factor_index(f));
  const std::size_t m_idx = table.metric_index(metric);

  // Hash-grouped: O(1) expected per record instead of a log-time map of
  // lexicographic Value comparisons.  The scratch key is allocated once
  // and refilled per record; a fresh copy is made only per distinct group.
  std::vector<Group> out;
  std::unordered_map<std::vector<Value>, std::size_t, ValueHash> index;
  index.reserve(64);
  std::vector<Value> key;
  key.reserve(f_idx.size());
  for (const auto& rec : table.records()) {
    key.clear();
    for (const std::size_t i : f_idx) key.push_back(rec.factors[i]);
    std::size_t slot = 0;
    if (const auto it = index.find(key); it != index.end()) {
      slot = it->second;
    } else {
      slot = out.size();
      index.emplace(key, slot);
      Group group;
      group.key = key;
      out.push_back(std::move(group));
    }
    out[slot].samples.push_back(rec.metrics[m_idx]);
    out[slot].sequence.push_back(rec.sequence);
  }

  // Keep the documented key ordering (Value ordering, lexicographic);
  // NaN keys tie, so their one-record groups stay in sequence order.
  std::stable_sort(out.begin(), out.end(), [](const Group& a, const Group& b) {
    return key_less(a.key, b.key);
  });

  // Order samples by sequence so temporal diagnostics can use them.
  // Engine output already arrives in sequence order, so the common case
  // is a no-op check; otherwise apply the sort permutation in place.
  std::vector<std::size_t> order;
  for (auto& group : out) {
    if (std::is_sorted(group.sequence.begin(), group.sequence.end())) continue;
    order.resize(group.sequence.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return group.sequence[a] < group.sequence[b];
    });
    apply_permutation(order, group);
  }
  return out;
}

std::vector<GroupSummary> summarize_groups(
    const RawTable& table, const std::vector<std::string>& factors,
    const std::string& metric) {
  std::vector<GroupSummary> out;
  for (const auto& group : group_metric(table, factors, metric)) {
    GroupSummary s;
    s.key = group.key;
    s.n = group.samples.size();
    s.mean = mean(group.samples);
    s.sd = stddev(group.samples);
    s.median = median(group.samples);
    s.q1 = quantile(group.samples, 0.25);
    s.q3 = quantile(group.samples, 0.75);
    s.min = min_value(group.samples);
    s.max = max_value(group.samples);
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace cal::stats
