// Property suite for the observability layer: an 8-worker campaign,
// served queries and a simulated measurement run with tracing armed
// must emit Chrome trace-event JSON that actually parses, carries
// balanced (complete, non-negative duration) spans from every
// instrumented subsystem (the simulator's by name), and keeps each
// thread's event stream monotonic; and arming telemetry must not change
// a single byte of the campaign's archived results.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/design.hpp"
#include "core/engine.hpp"
#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "sim/machine.hpp"
#include "sim/mem/stride_bench.hpp"

namespace cal {
namespace {

// --- Minimal JSON parser ---------------------------------------------------
// Just enough to *validate* trace output and pull out flat fields; throws
// std::runtime_error on any syntax violation, which is the property under
// test.  Numbers parse as double, objects/arrays as containers.

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string text;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  const Json& at(const std::string& key) const {
    const auto it = fields.find(key);
    if (it == fields.end()) throw std::runtime_error("missing key " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return fields.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (at_ != text_.size()) throw std::runtime_error("trailing bytes");
    return v;
  }

 private:
  void skip_ws() {
    while (at_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[at_]))) {
      ++at_;
    }
  }
  char peek() {
    if (at_ >= text_.size()) throw std::runtime_error("unexpected end");
    return text_[at_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(at_));
    }
    ++at_;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  Json object() {
    Json v;
    v.kind = Json::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++at_;
      return v;
    }
    for (;;) {
      skip_ws();
      Json key = string_value();
      skip_ws();
      expect(':');
      v.fields[key.text] = value();
      skip_ws();
      if (peek() == ',') {
        ++at_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    Json v;
    v.kind = Json::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++at_;
      return v;
    }
    for (;;) {
      v.items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++at_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Json string_value() {
    Json v;
    v.kind = Json::Kind::kString;
    expect('"');
    for (;;) {
      const char c = peek();
      ++at_;
      if (c == '"') return v;
      if (c == '\\') {
        const char esc = peek();
        ++at_;
        switch (esc) {
          case '"': v.text.push_back('"'); break;
          case '\\': v.text.push_back('\\'); break;
          case '/': v.text.push_back('/'); break;
          case 'n': v.text.push_back('\n'); break;
          case 't': v.text.push_back('\t'); break;
          case 'r': v.text.push_back('\r'); break;
          case 'b': v.text.push_back('\b'); break;
          case 'f': v.text.push_back('\f'); break;
          case 'u': {
            if (at_ + 4 > text_.size()) {
              throw std::runtime_error("bad \\u escape");
            }
            for (int i = 0; i < 4; ++i) {
              if (!std::isxdigit(static_cast<unsigned char>(text_[at_ + static_cast<std::size_t>(i)]))) {
                throw std::runtime_error("bad \\u escape");
              }
            }
            at_ += 4;
            v.text.push_back('?');  // validation only; value unused
            break;
          }
          default: throw std::runtime_error("bad escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        throw std::runtime_error("raw control character in string");
      }
      v.text.push_back(c);
    }
  }

  Json boolean() {
    Json v;
    v.kind = Json::Kind::kBool;
    if (text_.compare(at_, 4, "true") == 0) {
      v.boolean = true;
      at_ += 4;
    } else if (text_.compare(at_, 5, "false") == 0) {
      at_ += 5;
    } else {
      throw std::runtime_error("bad literal");
    }
    return v;
  }

  Json null() {
    if (text_.compare(at_, 4, "null") != 0) {
      throw std::runtime_error("bad literal");
    }
    at_ += 4;
    return Json{};
  }

  Json number() {
    const std::size_t start = at_;
    while (at_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[at_])) ||
            text_[at_] == '-' || text_[at_] == '+' || text_[at_] == '.' ||
            text_[at_] == 'e' || text_[at_] == 'E')) {
      ++at_;
    }
    if (at_ == start) throw std::runtime_error("bad number");
    Json v;
    v.kind = Json::Kind::kNumber;
    std::size_t used = 0;
    v.number = std::stod(text_.substr(start, at_ - start), &used);
    if (used != at_ - start) throw std::runtime_error("bad number");
    return v;
  }

  const std::string& text_;
  std::size_t at_ = 0;
};

// --- Fixture ---------------------------------------------------------------

Plan property_plan(std::uint64_t seed) {
  return DesignBuilder(seed)
      .add(Factor::levels("size", {Value(512), Value(2048), Value(8192)}))
      .add(Factor::levels("op", {Value("load"), Value("store")}))
      .replications(8)
      .randomize(true)
      .build();
}

MeasureResult property_measure(const PlannedRun& run, MeasureContext& ctx) {
  const double size = run.values[0].as_real();
  const double scale = run.values[1].as_string() == "store" ? 1.25 : 1.0;
  const double value = size * scale * ctx.rng->lognormal_factor(0.1);
  return MeasureResult{{value}, value * 1e-9};
}

MeasureFactory property_factory() {
  return [](std::size_t) { return MeasureFn(property_measure); };
}

class ObsTraceProperty : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("calipers_obs_prop_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override {
    obs::trace::stop();
    std::filesystem::remove_all(root_);
  }

  Campaign make_campaign(std::size_t threads) const {
    Engine::Options options;
    options.threads = threads;
    options.seed = 4242;
    options.clock = Clock::kIndexed;  // byte-stable timestamps
    return Campaign(property_plan(77), Engine({"time_us"}, options),
                    Metadata());
  }

  std::filesystem::path root_;
};

TEST_F(ObsTraceProperty,
       ArmedCampaignAndServedQueriesEmitValidBalancedMonotonicTrace) {
  obs::trace::start();
  obs::metrics::arm();

  // Eight-worker campaign streamed into a bbx bundle (engine.* and
  // bbx.* spans), then served queries over it (serve.* and query.*).
  ArchiveOptions archive;
  archive.format = ArchiveFormat::kBbx;
  archive.shards = 2;
  archive.block_records = 16;
  const std::filesystem::path bundle = root_ / "catalog" / "run";
  make_campaign(8).run_to_dir(property_factory(), bundle.string(), archive);

  serve::ServerOptions server_options;
  server_options.socket_path = (root_ / "serve.sock").string();
  server_options.workers = 4;
  serve::QueryServer server((root_ / "catalog").string(), server_options);
  server.start();
  serve::Request aggregate;
  aggregate.kind = serve::RequestKind::kAggregate;
  aggregate.bundle = "run";
  aggregate.where = "size >= 2048";
  aggregate.group_by = {"size", "op"};
  aggregate.aggregates = {"count", "mean:time_us"};
  ASSERT_EQ(server.execute(aggregate).status, serve::Status::kOk);
  serve::Request materialize;
  materialize.kind = serve::RequestKind::kMaterialize;
  materialize.bundle = "run";
  materialize.where = "op == \"load\"";
  ASSERT_EQ(server.execute(materialize).status, serve::Status::kOk);
  server.stop();

  // One simulated measurement (sim.* spans).
  sim::mem::MemSystemConfig sim_config;
  sim_config.machine = sim::machines::core_i7_2600();
  sim::mem::MemSystem system(sim_config);
  Rng rng(3);
  system.measure({64 * 1024, 1, {8, 1}, 10}, 0.0, rng);

  std::ostringstream out;
  obs::trace::flush_json(out);
  const std::string text = out.str();

  // 1. The whole emission is valid JSON of the Chrome trace shape.
  const Json doc = JsonParser(text).parse();
  ASSERT_EQ(doc.kind, Json::Kind::kObject);
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, Json::Kind::kArray);
  ASSERT_FALSE(events.items.empty());

  // 2. Every event is either thread metadata or a balanced complete
  //    span (ph "X" with ts and dur >= 0); per-thread end times arrive
  //    monotonically (events record at span close on their own thread).
  std::map<int, double> last_end;
  std::set<std::string> names;
  std::set<std::string> subsystems;
  std::size_t spans = 0;
  for (const Json& e : events.items) {
    ASSERT_EQ(e.kind, Json::Kind::kObject);
    const std::string ph = e.at("ph").text;
    if (ph == "M") {
      EXPECT_EQ(e.at("name").text, "thread_name");
      EXPECT_FALSE(e.at("args").at("name").text.empty());
      continue;
    }
    ASSERT_EQ(ph, "X") << "unbalanced or unknown event phase";
    ++spans;
    const double ts = e.at("ts").number;
    const double dur = e.at("dur").number;
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(dur, 0.0);
    const int tid = static_cast<int>(e.at("tid").number);
    const double end = ts + dur;
    const auto it = last_end.find(tid);
    if (it != last_end.end()) {
      EXPECT_GE(end, it->second)
          << "thread " << tid << " event stream went backwards";
    }
    last_end[tid] = end;
    const std::string& name = e.at("name").text;
    const auto dot = name.find('.');
    ASSERT_NE(dot, std::string::npos) << "unqualified span name " << name;
    names.insert(name);
    subsystems.insert(name.substr(0, dot));
  }
  EXPECT_GT(spans, 0u);

  // 3. Spans from at least four instrumented subsystems showed up.
  EXPECT_GE(subsystems.size(), 4u) << [&] {
    std::string got;
    for (const std::string& s : subsystems) got += s + " ";
    return "got: " + got;
  }();
  EXPECT_TRUE(subsystems.count("engine"));
  EXPECT_TRUE(subsystems.count("bbx"));
  EXPECT_TRUE(subsystems.count("query"));
  EXPECT_TRUE(subsystems.count("serve"));
  for (const char* name : {"sim.alloc", "sim.cache_cost", "sim.clock"}) {
    EXPECT_TRUE(names.count(name)) << name;
  }
}

// One worker runs its windows inline on the calling thread, but through
// the same driver as the pool: every window must still emit one
// engine.window span, one engine.window_seconds observation and one
// engine.windows count, exactly as an eight-worker campaign does.
TEST_F(ObsTraceProperty, EveryWorkerCountTracesEachWindowOnce) {
  if (obs::metrics::kill_switch()) GTEST_SKIP() << "CAL_METRICS=off";
  obs::trace::start();
  obs::metrics::arm();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    Engine::Options options;
    options.threads = threads;
    options.seed = 4242;
    options.sink_batch = 10;
    const Plan plan = property_plan(77);
    const std::size_t windows = (plan.size() + 9) / 10;
    ASSERT_GT(windows, 1u);
    std::ostringstream earlier;
    obs::trace::flush_json(earlier);  // drain events from before this run
    obs::metrics::reset();
    Campaign(plan, Engine({"time_us"}, options), Metadata())
        .run(property_factory());

    std::ostringstream out;
    obs::trace::flush_json(out);
    const Json doc = JsonParser(out.str()).parse();
    std::size_t window_spans = 0;
    for (const Json& e : doc.at("traceEvents").items) {
      if (e.at("ph").text == "X" && e.at("name").text == "engine.window") {
        ++window_spans;
      }
    }
    EXPECT_EQ(window_spans, windows) << "threads=" << threads;
    EXPECT_EQ(obs::metrics::histogram("engine.window_seconds").count(),
              windows)
        << "threads=" << threads;
    EXPECT_EQ(obs::metrics::counter("engine.windows").value(), windows)
        << "threads=" << threads;
    EXPECT_EQ(obs::metrics::counter("engine.runs").value(), plan.size())
        << "threads=" << threads;
  }
}

TEST_F(ObsTraceProperty, CampaignArchiveBytesIdenticalTracingOnVsOff) {
  const auto run_once = [&](const std::string& name, bool armed) {
    if (armed) {
      obs::trace::start();
      obs::metrics::arm();
    } else {
      obs::trace::stop();
    }
    const std::filesystem::path dir = root_ / name;
    make_campaign(8).run_to_dir(property_factory(), dir.string());
    std::ifstream in(dir / "results.csv", std::ios::binary);
    EXPECT_TRUE(in.good());
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  };

  const std::string off = run_once("off", false);
  const std::string on = run_once("on", true);
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, on) << "telemetry changed the archived record bytes";
}

}  // namespace
}  // namespace cal
