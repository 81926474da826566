#include "core/metadata.hpp"

#include <istream>
#include <ostream>

#include "core/value.hpp"

namespace cal {

void Metadata::set(const std::string& key, const std::string& value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  entries_.emplace_back(key, value);
}

void Metadata::set(const std::string& key, double value) {
  set(key, format_real(value));
}

void Metadata::set(const std::string& key, std::int64_t value) {
  set(key, std::to_string(value));
}

void Metadata::set(const std::string& key, std::uint64_t value) {
  set(key, std::to_string(value));
}

std::optional<std::string> Metadata::get(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return v;
  }
  return std::nullopt;
}

bool Metadata::contains(const std::string& key) const {
  return get(key).has_value();
}

void Metadata::write(std::ostream& out) const {
  for (const auto& [k, v] : entries_) {
    out << k << ": " << v << '\n';
  }
}

Metadata Metadata::read(std::istream& in) {
  Metadata md;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto colon = line.find(": ");
    if (colon == std::string::npos) continue;
    md.set(line.substr(0, colon), line.substr(colon + 2));
  }
  return md;
}

Metadata Metadata::capture_build() {
  Metadata md;
#if defined(__clang__)
  md.set("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  md.set("compiler", "gcc " + std::to_string(__GNUC__) + "." +
                         std::to_string(__GNUC_MINOR__) + "." +
                         std::to_string(__GNUC_PATCHLEVEL__));
#else
  md.set("compiler", "unknown");
#endif
  md.set("cxx_standard", static_cast<std::int64_t>(__cplusplus));
#if defined(NDEBUG)
  md.set("build_type", "release");
#else
  md.set("build_type", "debug");
#endif
  md.set("library", "calipers 1.0.0");
  return md;
}

}  // namespace cal
