// SIMD kernel microbench: per-level throughput of every dispatched
// kernel (varint zigzag-delta decode, CRC-32, LZ match copy, f64 column
// decode, compare masks, Welford fold, mask NOT and count) on synthetic
// archive-shaped workloads.  Emits BENCH_simd.json and enforces the
// dispatch layer's contract as checks: byte-identical output at every
// level the machine supports, and (full run only) the best level >= 2x
// the scalar tier on the checksum and compare kernels that dominate the
// bbx read path, plus the keep rule: every kernel whose avx2 entry is
// not the scalar one must reach >= 1.5x scalar on at least one row.
//
// Every (row, level) pair is timed once per replicate, in a freshly
// shuffled order each replicate; the table and the gates use the median
// over replicates, and the JSON keeps the quartiles.
//
//   bench_simd [json-path] [--smoke]
//
// --smoke shrinks the buffers and skips the speedup floors (tiny inputs
// time too noisily); it is registered with CTest as an acceptance run.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/build_info.hpp"
#include "io/table_fmt.hpp"
#include "simd/dispatch.hpp"
#include "stats/descriptive.hpp"

using namespace cal;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void append_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Zigzag-delta varint stream for `values` (the bbx column encoding).
std::string encode_deltas(const std::vector<std::uint64_t>& values) {
  std::string out;
  out.reserve(values.size() * 2);
  std::uint64_t prev = 0;
  for (const std::uint64_t v : values) {
    const std::uint64_t d = v - prev;  // two's-complement delta
    const std::uint64_t zz =
        (d << 1) ^ static_cast<std::uint64_t>(static_cast<std::int64_t>(d) >> 63);
    append_varint(out, zz);
    prev = v;
  }
  return out;
}

/// Times `f` over `reps` repetitions; returns seconds per repetition.
template <typename F>
double time_loop(F&& f, int reps) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) f();
  return seconds_since(t0) / reps;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// One timed row: a kernel on one input shape.
struct Row {
  std::string name;
  std::string kernel;  // the simd::Kernels entry it times
  double bytes = 0;   // bytes processed per repetition
  bool vector = false;  // the best level's entry is not the scalar one
  std::function<void(const simd::Kernels&)> run;
  std::vector<std::vector<double>> mbps;  // [level][replicate]
};

/// Every kernel output the identity checks compare across levels.
struct Outputs {
  std::size_t walk_used = 0, seq_used = 0;
  std::vector<std::uint64_t> walk, seq;
  std::uint32_t crc = 0;
  std::vector<char> lz;
  std::vector<double> f64;
  std::vector<char> cmp_f64, cmp_i64, mask_and, mask_or, mask_not;
  simd::WelfordBatch wf;
  std::size_t count = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_simd.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      json_path = arg;
    }
  }

  io::print_banner(std::cout, "SIMD kernels: per-level throughput");

  std::vector<simd::Level> levels;
  for (const simd::Level l : {simd::Level::kScalar, simd::Level::kAvx2}) {
    if (l <= simd::best_supported()) levels.push_back(l);
  }
  std::cout << "Best supported level: "
            << simd::to_string(simd::best_supported()) << "; measuring";
  for (const simd::Level l : levels) std::cout << " " << simd::to_string(l);
  std::cout << ".\n\n";

  // Archive-shaped inputs: a sequence-like random walk (mostly 1-2 byte
  // varints, occasional jumps) and the 1-byte deltas bbx writes for the
  // `sequence` column and small factors (a vector varint scan wins on
  // the second and loses on the first, so both shapes are timed),
  // compressible-but-not-trivial bytes for CRC/LZ, lognormal-ish doubles
  // with NaN holes for the metric kernels.
  const std::size_t n = smoke ? (1u << 15) : (1u << 21);
  const int reps = smoke ? 2 : 4;
  const int replicates = smoke ? 3 : 11;
  std::mt19937_64 rng(0xca11be15);

  std::vector<std::uint64_t> walk(n);
  std::uint64_t acc = 1'000'000;
  for (std::size_t i = 0; i < n; ++i) {
    acc += (rng() % 256) - 96;       // mostly 1-2 byte deltas
    if (rng() % 97 == 0) acc += rng() % (1ull << 40);  // occasional jump
    walk[i] = acc;
  }
  const std::string walk_varints = encode_deltas(walk);

  std::vector<unsigned char> bytes(n * 4);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng() % 251);

  std::vector<double> doubles(n);
  for (std::size_t i = 0; i < n; ++i) {
    doubles[i] = static_cast<double>(rng() % 100000) * 1e-3 - 20.0;
    if (i % 251 == 0) doubles[i] = std::numeric_limits<double>::quiet_NaN();
  }
  std::vector<char> raw_doubles(n * 8);
  std::memcpy(raw_doubles.data(), doubles.data(), raw_doubles.size());

  std::vector<std::int64_t> ints(n);
  for (std::size_t i = 0; i < n; ++i) {
    ints[i] = static_cast<std::int64_t>(walk[i]);
  }
  const std::int64_t int_lit = static_cast<std::int64_t>(walk[n / 2]);

  std::vector<char> mask_a(n), mask_b(n);
  for (std::size_t i = 0; i < n; ++i) {
    mask_a[i] = static_cast<char>(rng() % 2);
    mask_b[i] = static_cast<char>(rng() % 2);
  }

  // Drawn last so the inputs above match earlier versions of this bench.
  std::vector<std::uint64_t> seq(n);
  acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += (rng() % 127) - 63;  // |delta| <= 63: one zigzag byte each
    seq[i] = acc;
  }
  const std::string seq_varints = encode_deltas(seq);

  // --- byte identity: every level's outputs against the scalar tier's -----
  bench::Checker check;
  const auto compute = [&](const simd::Kernels& k) {
    Outputs o;
    o.walk.resize(n);
    o.seq.resize(n);
    o.walk_used = k.delta_varint_decode(
        reinterpret_cast<const unsigned char*>(walk_varints.data()),
        walk_varints.size(), n, o.walk.data());
    o.seq_used = k.delta_varint_decode(
        reinterpret_cast<const unsigned char*>(seq_varints.data()),
        seq_varints.size(), n, o.seq.data());
    // CRC in chained halves, the shard frame pattern.
    o.crc = k.crc32(bytes.data() + n * 2, n * 2,
                    k.crc32(bytes.data(), n * 2, 0));
    // LZ: seed 64 bytes, then a long overlapping match (the dominant
    // decompress case) -- offset 13 < len forces replication.
    o.lz.assign(bytes.begin(), bytes.end());
    k.lz_match_copy(o.lz.data() + 64, 13, o.lz.size() - 64);
    o.f64.resize(n);
    k.f64le_decode(raw_doubles.data(), n, o.f64.data());
    o.cmp_f64.resize(n);
    k.cmp_mask_f64(raw_doubles.data(), n, simd::Cmp::kGe, 3.75,
                   o.cmp_f64.data(), false);
    o.cmp_i64.resize(n);
    k.cmp_mask_i64(ints.data(), n, simd::Cmp::kLt, int_lit, o.cmp_i64.data(),
                   false);
    k.welford_fold(doubles.data(), mask_a.data(), n, &o.wf);
    o.mask_and = mask_a;
    k.mask_and(o.mask_and.data(), mask_b.data(), n);
    o.mask_or = mask_a;
    k.mask_or(o.mask_or.data(), mask_b.data(), n);
    o.mask_not = mask_a;
    k.mask_not(o.mask_not.data(), n);
    o.count = k.mask_count(mask_a.data(), n);
    return o;
  };
  const Outputs ref = compute(simd::kernels_at(simd::Level::kScalar));
  check.expect(ref.walk_used == walk_varints.size() &&
                   ref.seq_used == seq_varints.size(),
               "scalar: varint decode consumes whole streams");
  for (std::size_t li = 1; li < levels.size(); ++li) {
    const Outputs o = compute(simd::kernels_at(levels[li]));
    const std::string tag = std::string(simd::to_string(levels[li])) +
                            " byte-identical to scalar: ";
    check.expect(o.walk_used == ref.walk_used && o.walk == ref.walk,
                 tag + "delta_varint_decode (walk)");
    check.expect(o.seq_used == ref.seq_used && o.seq == ref.seq,
                 tag + "delta_varint_decode (1-byte deltas)");
    check.expect(o.crc == ref.crc, tag + "crc32 (chained)");
    check.expect(o.lz == ref.lz, tag + "lz_match_copy");
    check.expect(std::memcmp(o.f64.data(), ref.f64.data(), n * 8) == 0,
                 tag + "f64le_decode");
    check.expect(o.cmp_f64 == ref.cmp_f64, tag + "cmp_mask_f64");
    check.expect(o.cmp_i64 == ref.cmp_i64, tag + "cmp_mask_i64");
    check.expect(std::memcmp(&o.wf, &ref.wf, sizeof o.wf) == 0,
                 tag + "welford_fold");
    check.expect(o.mask_and == ref.mask_and && o.mask_or == ref.mask_or &&
                     o.mask_not == ref.mask_not && o.count == ref.count,
                 tag + "mask kernels");
  }

  // --- throughput ------------------------------------------------------------
  const simd::Kernels& scalar = simd::kernels_at(simd::Level::kScalar);
  const simd::Kernels& best = simd::kernels_at(simd::best_supported());
  std::vector<std::uint64_t> out_decode(n);
  std::vector<char> out_lz(bytes.begin(), bytes.end());
  std::vector<double> out_f64(n);
  std::vector<char> out_mask(n);
  volatile std::uint64_t sink = 0;  // defeats dead-code elimination
  constexpr std::size_t kBlock = 4096;
  std::vector<char> block_a(mask_a.begin(), mask_a.begin() + kBlock);

  const auto vec = [&](auto entry) { return best.*entry != scalar.*entry; };
  using K = simd::Kernels;
  std::vector<Row> rows = {
      {"delta_varint_decode", "delta_varint_decode",
       static_cast<double>(walk_varints.size()),
       vec(&K::delta_varint_decode),
       [&](const K& k) {
         sink = sink + k.delta_varint_decode(
             reinterpret_cast<const unsigned char*>(walk_varints.data()),
             walk_varints.size(), n, out_decode.data());
       }, {}},
      {"delta_varint_decode_seq", "delta_varint_decode",
       static_cast<double>(seq_varints.size()),
       vec(&K::delta_varint_decode),
       [&](const K& k) {
         sink = sink + k.delta_varint_decode(
             reinterpret_cast<const unsigned char*>(seq_varints.data()),
             seq_varints.size(), n, out_decode.data());
       }, {}},
      {"crc32", "crc32", static_cast<double>(bytes.size()), vec(&K::crc32),
       [&](const K& k) {
         sink = sink + k.crc32(bytes.data(), bytes.size(), 0);
       }, {}},
      {"lz_match_copy", "lz_match_copy", static_cast<double>(bytes.size()),
       vec(&K::lz_match_copy),
       [&](const K& k) {
         k.lz_match_copy(out_lz.data() + 64, 13, out_lz.size() - 64);
         sink = sink + static_cast<unsigned char>(out_lz.back());
       }, {}},
      {"f64le_decode", "f64le_decode", static_cast<double>(raw_doubles.size()),
       vec(&K::f64le_decode),
       [&](const K& k) {
         k.f64le_decode(raw_doubles.data(), n, out_f64.data());
         sink = sink + static_cast<std::uint64_t>(out_f64[n - 1]);
       }, {}},
      {"cmp_mask_f64", "cmp_mask_f64", static_cast<double>(raw_doubles.size()),
       vec(&K::cmp_mask_f64),
       [&](const K& k) {
         k.cmp_mask_f64(raw_doubles.data(), n, simd::Cmp::kGe, 3.75,
                        out_mask.data(), false);
         sink = sink + static_cast<unsigned char>(out_mask[n - 1]);
       }, {}},
      {"cmp_mask_i64", "cmp_mask_i64", static_cast<double>(n * 8),
       vec(&K::cmp_mask_i64),
       [&](const K& k) {
         k.cmp_mask_i64(ints.data(), n, simd::Cmp::kLt, int_lit,
                        out_mask.data(), false);
         sink = sink + static_cast<unsigned char>(out_mask[n - 1]);
       }, {}},
      {"welford_fold", "welford_fold", static_cast<double>(n * 8),
       vec(&K::welford_fold),
       [&](const K& k) {  // under a ~50% mask
         simd::WelfordBatch tmp;
         k.welford_fold(doubles.data(), mask_a.data(), n, &tmp);
         sink = sink + tmp.n;
       }, {}},
      // mask_not only ever runs on one block's mask (4096 records by
      // default), which the compare kernels just wrote: time it on an
      // L1-resident block, n / 4096 times per repetition.
      {"mask_not_block", "mask_not", static_cast<double>(n),
       vec(&K::mask_not),
       [&](const K& k) {
         for (std::size_t b = 0; b < n / kBlock; ++b) {
           k.mask_not(block_a.data(), kBlock);
         }
         sink = sink + static_cast<unsigned char>(block_a[0]);
       }, {}},
      {"mask_count", "mask_count", static_cast<double>(n),
       vec(&K::mask_count),
       [&](const K& k) { sink = sink + k.mask_count(mask_a.data(), n); }, {}},
  };

  std::vector<std::pair<std::size_t, std::size_t>> order;  // (row, level)
  for (Row& row : rows) row.mbps.resize(levels.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t li = 0; li < levels.size(); ++li) {
      order.emplace_back(r, li);
    }
  }
  std::mt19937_64 order_rng(0x5eed0123);
  for (int rep = 0; rep < replicates; ++rep) {
    std::shuffle(order.begin(), order.end(), order_rng);
    for (const auto& [r, li] : order) {
      Row& row = rows[r];
      const simd::Kernels& k = simd::kernels_at(levels[li]);
      row.mbps[li].push_back(
          row.bytes / time_loop([&] { row.run(k); }, reps) / 1e6);
    }
  }

  const auto speedup = [&](const Row& row) {
    return stats::median(row.mbps.back()) / stats::median(row.mbps.front());
  };

  io::TextTable table([&] {
    std::vector<std::string> header = {"kernel"};
    for (const simd::Level l : levels) {
      header.push_back(std::string(simd::to_string(l)) + " MB/s");
    }
    if (levels.size() > 1) header.push_back("best/scalar");
    return header;
  }());
  for (const Row& row : rows) {
    std::vector<std::string> cells = {row.name};
    for (const std::vector<double>& samples : row.mbps) {
      cells.push_back(io::TextTable::num(stats::median(samples), 0));
    }
    if (levels.size() > 1) {
      cells.push_back(io::TextTable::num(speedup(row), 2) +
                      (row.vector ? "x" : "x (scalar entry)"));
    }
    table.add_row(cells);
  }
  std::cout << "Median MB/s over " << replicates
            << " replicates, shuffled order:\n";
  table.print(std::cout);

  const auto row_named = [&](const std::string& name) -> const Row& {
    return *std::find_if(rows.begin(), rows.end(),
                         [&](const Row& r) { return r.name == name; });
  };
  if (!smoke && levels.size() > 1) {
    // The two kernels that dominate the bbx read path and have real
    // vector implementations (CLMUL CRC, vector compares) must clear
    // the acceptance floor.
    check.expect(speedup(row_named("crc32")) >= 2.0,
                 "crc32 best level >= 2x scalar");
    check.expect(speedup(row_named("cmp_mask_f64")) >= 2.0,
                 "cmp_mask_f64 best level >= 2x scalar");
    // The keep rule: a vector entry earns its place only with >= 1.5x
    // on at least one of its kernel's rows.
    std::map<std::string, double> top;
    for (const Row& row : rows) {
      if (row.vector) top[row.kernel] = std::max(top[row.kernel], speedup(row));
    }
    for (const auto& [kernel, x] : top) {
      check.expect(x >= 1.5, kernel + " vector entry >= 1.5x scalar");
    }
  }

  std::ofstream json(json_path);
  if (!json) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  char buf[96];
  json << "{\n  \"bench\": \"simd\",\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"build\": \"" << core::build_info_line("bench_simd")
       << "\",\n  \"cpu_model\": \"" << cpu_model()
       << "\",\n  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n  \"best_level\": \"" << simd::to_string(simd::best_supported())
       << "\",\n  \"elements\": " << n << ",\n  \"replicates\": " << replicates
       << ",\n  \"reps_per_replicate\": " << reps
       << ",\n  \"levels\": {\n";
  for (std::size_t li = 0; li < levels.size(); ++li) {
    json << "    \"" << simd::to_string(levels[li]) << "\": {";
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::vector<double>& xs = rows[r].mbps[li];
      std::snprintf(buf, sizeof buf, "[%.1f, %.1f, %.1f]",
                    stats::quantile(xs, 0.25), stats::median(xs),
                    stats::quantile(xs, 0.75));
      json << (r ? ",\n      " : "\n      ") << "\"" << rows[r].name
           << "_mbps_q1_median_q3\": " << buf;
    }
    json << "\n    }" << (li + 1 < levels.size() ? "," : "") << "\n";
  }
  json << "  },\n  \"speedup_best_vs_scalar_median\": {";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::snprintf(buf, sizeof buf, "%.2f", speedup(rows[r]));
    json << (r ? ", " : "") << "\"" << rows[r].name << "\": " << buf;
  }
  json << "}\n}\n";
  std::cout << "\nWrote " << json_path << "\n";

  (void)sink;
  return check.exit_code();
}
