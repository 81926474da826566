#pragma once
// Shared helpers for the figure-reproduction harnesses.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/build_info.hpp"
#include "stats/descriptive.hpp"

namespace cal::bench {

/// Tracks reproduction checks; the harness exits non-zero if any fails,
/// so `for b in build/bench/*; do $b; done` doubles as a regression run.
class Checker {
 public:
  void expect(bool condition, const std::string& what) {
    if (condition) {
      std::cout << "[shape OK]   " << what << "\n";
    } else {
      std::cout << "[shape FAIL] " << what << "\n";
      ++failures_;
    }
  }

  int exit_code() const noexcept { return failures_ == 0 ? 0 : 1; }
  std::size_t failures() const noexcept { return failures_; }

 private:
  std::size_t failures_ = 0;
};

/// Median and quartiles of a replicate sample.
struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

inline Quartiles quartiles(const std::vector<double>& xs) {
  return Quartiles{stats::quantile(xs, 0.25), stats::median(xs),
                   stats::quantile(xs, 0.75)};
}

/// {"median": m, "q1": a, "q3": b}, one decimal.
inline std::string quartile_json(const Quartiles& q) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "{\"median\": %.1f, \"q1\": %.1f, \"q3\": %.1f}", q.median,
                q.q1, q.q3);
  return buf;
}

inline std::string kb(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0fK", bytes / 1024.0);
  return buf;
}

/// The host a bench ran on, for its JSON: {"cpu": "<model name>",
/// "build": core::build_info_line(program)}.
inline std::string host_json(const std::string& program) {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos &&
        colon + 2 <= line.size()) {
      cpu = line.substr(colon + 2);
      break;
    }
  }
  const auto quoted = [](const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  };
  return "{\"cpu\": " + quoted(cpu) +
         ", \"build\": " + quoted(core::build_info_line(program)) + "}";
}

}  // namespace cal::bench
