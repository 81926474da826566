#include "sim/pmu/pmu.hpp"

#include <atomic>
#include <string>

#include "obs/metrics.hpp"

namespace cal::sim::pmu {

namespace {

constexpr const char* kEventNames[kEventCount] = {
    "cycles",           "instructions",    "l1_hits",
    "l1_misses",        "l2_hits",         "l2_misses",
    "llc_hits",         "llc_misses",      "mem_accesses",
    "stall_cycles",     "freq_transitions", "governor_ticks",
    "context_switches", "contention_waits",
};

}  // namespace

const char* event_name(Event e) noexcept {
  const auto i = static_cast<std::size_t>(e);
  return i < kEventCount ? kEventNames[i] : "unknown";
}

std::optional<Event> parse_event(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kEventCount; ++i) {
    if (name == kEventNames[i]) return static_cast<Event>(i);
  }
  return std::nullopt;
}

const std::array<Event, kEventCount>& all_events() noexcept {
  static const std::array<Event, kEventCount> events = [] {
    std::array<Event, kEventCount> out{};
    for (std::size_t i = 0; i < kEventCount; ++i) {
      out[i] = static_cast<Event>(i);
    }
    return out;
  }();
  return events;
}

void publish(const PmuSnapshot& delta) noexcept {
  if (!obs::metrics::enabled()) return;
  // Per-event cached registry handles: counter() references are stable
  // for the process lifetime (the registry never destroys instruments),
  // so each event resolves its name at most once per process.
  static std::atomic<obs::metrics::Counter*> cache[kEventCount] = {};
  for (std::size_t i = 0; i < kEventCount; ++i) {
    if (delta.values[i] == 0) continue;
    obs::metrics::Counter* c = cache[i].load(std::memory_order_acquire);
    if (c == nullptr) {
      c = &obs::metrics::counter(std::string("sim.pmu.") + kEventNames[i]);
      cache[i].store(c, std::memory_order_release);
    }
    c->add(delta.values[i]);
  }
}

}  // namespace cal::sim::pmu
