// QueryServer unit suite: protocol codec round-trips and strictness,
// end-to-end socket serving (unix + loopback TCP) with responses
// byte-identical to the local query path, wire robustness (malformed /
// truncated / oversized frames, mid-request disconnects), error
// containment on one connection not poisoning the next request, request
// coalescing under concurrency, and graceful shutdown.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "io/archive/bbx_reader.hpp"
#include "io/archive/bbx_writer.hpp"
#include "io/archive/wire.hpp"
#include "obs/metrics.hpp"
#include "query/engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace cal {
namespace {

namespace ar = io::archive;
using serve::QueryClient;
using serve::QueryServer;
using serve::Request;
using serve::RequestKind;
using serve::Response;
using serve::Status;

// --- Protocol codecs (no sockets) ----------------------------------------

TEST(ServeProtocol, RequestRoundTripsThroughTheCodec) {
  Request request;
  request.kind = RequestKind::kAggregate;
  request.bundle = "mem";
  request.where = "size == 1024 && op != \"store\"";
  request.group_by = {"size", "op"};
  request.aggregates = {"count", "mean:time_us"};
  const Request decoded =
      serve::decode_request(serve::encode_request(request));
  EXPECT_EQ(decoded.kind, request.kind);
  EXPECT_EQ(decoded.bundle, request.bundle);
  EXPECT_EQ(decoded.where, request.where);
  EXPECT_EQ(decoded.group_by, request.group_by);
  EXPECT_EQ(decoded.aggregates, request.aggregates);
  EXPECT_EQ(decoded.select, request.select);
}

TEST(ServeProtocol, ResponseRoundTripsThroughTheCodec) {
  const Response response{Status::kError, "bundle not found"};
  const Response decoded =
      serve::decode_response(serve::encode_response(response));
  EXPECT_EQ(decoded.status, response.status);
  EXPECT_EQ(decoded.body, response.body);
}

TEST(ServeProtocol, DecoderRejectsMalformedPayloads) {
  const std::string good = serve::encode_request(Request{});
  // Unknown kind byte.
  std::string bad_kind = good;
  bad_kind[0] = '\x7f';
  EXPECT_THROW(serve::decode_request(bad_kind), serve::ProtocolError);
  // Truncated payload.
  EXPECT_THROW(serve::decode_request(good.substr(0, good.size() - 1)),
               serve::ProtocolError);
  EXPECT_THROW(serve::decode_request(""), serve::ProtocolError);
  // Trailing bytes.
  EXPECT_THROW(serve::decode_request(good + "x"), serve::ProtocolError);
  // Same strictness on the response side.
  const std::string ok = serve::encode_response(Response{});
  std::string bad_status = ok;
  bad_status[0] = '\x09';
  EXPECT_THROW(serve::decode_response(bad_status), serve::ProtocolError);
  EXPECT_THROW(serve::decode_response(ok + "y"), serve::ProtocolError);
}

// --- End-to-end over sockets ----------------------------------------------

Plan server_plan() {
  return DesignBuilder(31)
      .add(Factor::levels("size", {Value(1024), Value(4096), Value(16384)}))
      .add(Factor::levels("op", {Value("load"), Value("store")}))
      .replications(5)
      .randomize(true)
      .build();
}

MeasureResult server_measure(const PlannedRun& run, MeasureContext& ctx) {
  const double size = run.values[0].as_real();
  const double scale = run.values[1].as_string() == "store" ? 1.5 : 1.0;
  const double value = size * scale * ctx.rng->lognormal_factor(0.15);
  return MeasureResult{{value}, value * 1e-9};
}

class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() / "calipers_serve_test";
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_ / "catalog");
    Engine::Options options;
    options.seed = 11;
    const Engine engine({"time_us"}, options);
    ar::BbxWriterOptions writer_options;
    writer_options.shards = 2;
    writer_options.block_records = 6;
    ar::BbxWriter sink((root_ / "catalog" / "mem").string(),
                       writer_options);
    engine.run(server_plan(), server_measure, sink);

    serve::ServerOptions server_options;
    server_options.socket_path = (root_ / "serve.sock").string();
    server_options.tcp_port = 0;  // ephemeral
    server_options.workers = 2;
    server_ = std::make_unique<QueryServer>((root_ / "catalog").string(),
                                            server_options);
    server_->start();
  }

  void TearDown() override {
    server_->stop();
    server_.reset();
    std::filesystem::remove_all(root_);
  }

  Request aggregate_request() const {
    Request request;
    request.kind = RequestKind::kAggregate;
    request.bundle = "mem";
    request.where = "sequence < 12";
    request.group_by = {"size", "op"};
    request.aggregates = {"count", "mean:time_us"};
    return request;
  }

  std::string local_aggregate_csv() const {
    const ar::BbxReader reader((root_ / "catalog" / "mem").string());
    query::QuerySpec spec;
    spec.where = query::parse_expr("sequence < 12");
    spec.group_by = {"size", "op"};
    spec.aggregates = {*query::parse_aggregate("count"),
                       *query::parse_aggregate("mean:time_us")};
    std::ostringstream out;
    query::BundleQuery(reader).aggregate(spec).write_csv(out);
    return out.str();
  }

  QueryClient connect() const {
    return QueryClient::connect_unix((root_ / "serve.sock").string());
  }

  std::filesystem::path root_;
  std::unique_ptr<QueryServer> server_;
};

/// The process's peak resident set so far, in KiB.
long peak_rss_kib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Parses one "name,value" row out of a kStats CSV body; fails the
/// calling test when the row is absent.
std::string stats_row(const std::string& body, const std::string& name) {
  const std::string needle = "\n" + name + ",";
  const auto at = body.find(needle);
  if (at == std::string::npos) {
    ADD_FAILURE() << "stats body has no row '" << name << "':\n" << body;
    return "";
  }
  const auto start = at + needle.size();
  return body.substr(start, body.find('\n', start) - start);
}

TEST_F(QueryServerTest, PingListAndStatsAnswerOverBothTransports) {
  QueryClient unix_client = connect();
  EXPECT_EQ(unix_client.call(Request{}).status, Status::kOk);

  Request list;
  list.kind = RequestKind::kList;
  EXPECT_EQ(unix_client.call(list).body, "mem\n");

  QueryClient tcp_client = QueryClient::connect_tcp(server_->tcp_port());
  Request stats;
  stats.kind = RequestKind::kStats;
  const Response response = tcp_client.call(stats);
  EXPECT_EQ(response.status, Status::kOk);
  EXPECT_NE(response.body.find("counter,value"), std::string::npos);
  EXPECT_NE(response.body.find("cache_hits,"), std::string::npos);

  // Per-kind accounting: exactly one ping, one list, and the stats
  // request itself (counted before its body renders).  Uptime is a real
  // non-negative number of seconds.
  EXPECT_EQ(stats_row(response.body, "requests_ping"), "1");
  EXPECT_EQ(stats_row(response.body, "requests_list"), "1");
  EXPECT_EQ(stats_row(response.body, "requests_stats"), "1");
  EXPECT_EQ(stats_row(response.body, "requests_aggregate"), "0");
  EXPECT_EQ(stats_row(response.body, "requests_materialize"), "0");
  EXPECT_EQ(stats_row(response.body, "requests_metrics"), "0");
  EXPECT_EQ(stats_row(response.body, "requests"), "3");
  EXPECT_GE(std::stod(stats_row(response.body, "uptime_s")), 0.0);
}

/// Parses one `cal_<name> <value>` sample out of a Prometheus text
/// exposition; -1 when absent.
std::int64_t prom_value(const std::string& body, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const auto at = body.find(needle);
  if (at == std::string::npos) return -1;
  return std::stoll(body.substr(at + needle.size()));
}

TEST_F(QueryServerTest,
       MetricsExpositionMatchesScanStatsAndCacheCountersOnAGoldenWorkload) {
  if (!obs::metrics::enabled()) GTEST_SKIP() << "CAL_METRICS=off";
  obs::metrics::reset();

  QueryClient client = connect();
  const Response aggregate = client.call(aggregate_request());
  ASSERT_EQ(aggregate.status, Status::kOk);

  Request metrics;
  metrics.kind = RequestKind::kMetrics;
  const Response exposition = client.call(metrics);
  ASSERT_EQ(exposition.status, Status::kOk);
  const std::string& body = exposition.body;

  // Deterministic ordering: the exposition renders counters, then
  // gauges, then histograms, each section walked in sorted name order.
  std::map<std::string, std::vector<std::string>> names_by_kind;
  for (std::size_t at = body.find("# TYPE "); at != std::string::npos;
       at = body.find("# TYPE ", at + 1)) {
    const std::size_t name_at = at + 7;
    const std::size_t space = body.find(' ', name_at);
    const std::size_t eol = body.find('\n', name_at);
    ASSERT_NE(space, std::string::npos);
    ASSERT_NE(eol, std::string::npos);
    names_by_kind[body.substr(space + 1, eol - space - 1)].push_back(
        body.substr(name_at, space - name_at));
  }
  ASSERT_FALSE(names_by_kind.empty());
  for (const auto& [kind, names] : names_by_kind) {
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()))
        << kind << " section not sorted";
  }

  // The query counters are the running sum of every executed scan's
  // ScanStats; after reset() that is exactly the one aggregate above,
  // so the registry must agree with a local run of the same query.
  const ar::BbxReader reader((root_ / "catalog" / "mem").string());
  query::QuerySpec spec;
  spec.where = query::parse_expr("sequence < 12");
  spec.group_by = {"size", "op"};
  spec.aggregates = {*query::parse_aggregate("count"),
                     *query::parse_aggregate("mean:time_us")};
  const query::QueryResult local = query::BundleQuery(reader).aggregate(spec);
  EXPECT_EQ(prom_value(body, "cal_query_scans"), 1);
  EXPECT_EQ(prom_value(body, "cal_query_blocks_total"),
            static_cast<std::int64_t>(local.scan.blocks_total));
  EXPECT_EQ(prom_value(body, "cal_query_blocks_pruned"),
            static_cast<std::int64_t>(local.scan.blocks_pruned));
  EXPECT_EQ(prom_value(body, "cal_query_blocks_scanned"),
            static_cast<std::int64_t>(local.scan.blocks_scanned));
  EXPECT_EQ(prom_value(body, "cal_query_records_scanned"),
            static_cast<std::int64_t>(local.scan.records_scanned));
  EXPECT_EQ(prom_value(body, "cal_query_records_matched"),
            static_cast<std::int64_t>(local.scan.records_matched));

  // Cache counters mirror BlockCache::stats() -- the increments sit on
  // the same mutex-guarded lines.  No cache traffic has happened since
  // the exposition rendered (kMetrics does not touch the cache).
  const serve::BlockCache::Stats cache = server_->cache_stats();
  EXPECT_EQ(prom_value(body, "cal_serve_cache_misses"),
            static_cast<std::int64_t>(cache.misses));
  EXPECT_EQ(prom_value(body, "cal_serve_cache_inserts"),
            static_cast<std::int64_t>(cache.inserts));
  EXPECT_GT(cache.inserts, 0u);
}

TEST_F(QueryServerTest, AggregateAndMaterializeMatchTheLocalPathByteForByte) {
  QueryClient client = connect();
  const Response aggregate = client.call(aggregate_request());
  ASSERT_EQ(aggregate.status, Status::kOk);
  EXPECT_EQ(aggregate.body, local_aggregate_csv());

  // Warm pass (decoded columns now cached): bytes must not change.
  const Response warm = client.call(aggregate_request());
  ASSERT_EQ(warm.status, Status::kOk);
  EXPECT_EQ(warm.body, aggregate.body);
  EXPECT_GT(server_->cache_stats().hits, 0u);

  Request materialize;
  materialize.kind = RequestKind::kMaterialize;
  materialize.bundle = "mem";
  materialize.where = "op == \"load\"";
  materialize.select = {"size", "time_us"};
  const Response rows = client.call(materialize);
  ASSERT_EQ(rows.status, Status::kOk);
  const ar::BbxReader reader((root_ / "catalog" / "mem").string());
  std::ostringstream expected;
  query::BundleQuery(reader)
      .materialize(query::parse_expr("op == \"load\""),
                   {"size", "time_us"})
      .write_csv(expected);
  EXPECT_EQ(rows.body, expected.str());
}

TEST_F(QueryServerTest, RequestErrorsAreContainedAndDoNotPoisonTheSession) {
  QueryClient client = connect();
  Request bad = aggregate_request();
  bad.where = "size ==";  // parse error
  EXPECT_EQ(client.call(bad).status, Status::kError);

  bad = aggregate_request();
  bad.bundle = "no_such_bundle";
  EXPECT_EQ(client.call(bad).status, Status::kError);

  bad = aggregate_request();
  bad.bundle = "../escape";
  EXPECT_EQ(client.call(bad).status, Status::kError);

  bad = aggregate_request();
  bad.aggregates = {"frobnicate:time_us"};
  EXPECT_EQ(client.call(bad).status, Status::kError);

  // The same connection still serves a good request afterwards, and the
  // response is still byte-identical to the local path.
  const Response good = client.call(aggregate_request());
  ASSERT_EQ(good.status, Status::kOk);
  EXPECT_EQ(good.body, local_aggregate_csv());
}

TEST_F(QueryServerTest, MalformedFramesCloseTheConnectionButNotTheServer) {
  // Garbage magic: the server drops the connection without responding.
  {
    QueryClient client = connect();
    const std::string junk = "XXXXXXXXXXXXXXXX";
    ASSERT_EQ(::send(client.fd(), junk.data(), junk.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(junk.size()));
    char byte = 0;
    // FIN or RST (the server may close with unread bytes still queued):
    // either way the connection is dead without a response.
    EXPECT_LE(::recv(client.fd(), &byte, 1, 0), 0);
  }
  // Oversized declared length: same fate.
  {
    QueryClient client = connect();
    std::string frame;
    ar::put_u32le(frame, serve::kFrameMagic);
    ar::put_u32le(frame, serve::kMaxFrameBytes + 1);
    ASSERT_EQ(::send(client.fd(), frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    char byte = 0;
    EXPECT_LE(::recv(client.fd(), &byte, 1, 0), 0);
  }
  // A header claiming the maximum length, then a few bytes and a hang-up:
  // the reader grows the payload as bytes arrive, so it fails with a
  // protocol error without first committing kMaxFrameBytes (64 MiB; the
  // peak RSS must grow by far less), and the daemon drops only that
  // connection.
  {
    std::string frame;
    ar::put_u32le(frame, serve::kFrameMagic);
    ar::put_u32le(frame, serve::kMaxFrameBytes);
    frame.append("abcd", 4);
    int pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
    ASSERT_EQ(::send(pair[0], frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    ::close(pair[0]);
    const long rss_before = peak_rss_kib();
    EXPECT_THROW(serve::read_frame(pair[1]), serve::ProtocolError);
    EXPECT_LT(peak_rss_kib() - rss_before, 16 * 1024);
    ::close(pair[1]);

    QueryClient client = connect();
    ASSERT_EQ(::send(client.fd(), frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    ASSERT_EQ(::shutdown(client.fd(), SHUT_WR), 0);
    char byte = 0;
    EXPECT_LE(::recv(client.fd(), &byte, 1, 0), 0);
  }
  // Well-framed but malformed payload: an error response, then close.
  {
    QueryClient client = connect();
    std::string frame;
    ar::put_u32le(frame, serve::kFrameMagic);
    ar::put_u32le(frame, 3);
    frame.append("\x7f\x00\x00", 3);  // unknown request kind
    ASSERT_EQ(::send(client.fd(), frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    const auto payload = serve::read_frame(client.fd());
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(serve::decode_response(*payload).status, Status::kError);
  }
  // Mid-request disconnect: a frame header promising bytes that never
  // arrive must not wedge a worker.
  {
    QueryClient client = connect();
    std::string frame;
    ar::put_u32le(frame, serve::kFrameMagic);
    ar::put_u32le(frame, 1024);
    ASSERT_EQ(::send(client.fd(), frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    client.close();
  }
  // After all of that the server still answers real queries.
  QueryClient client = connect();
  const Response good = client.call(aggregate_request());
  ASSERT_EQ(good.status, Status::kOk);
  EXPECT_EQ(good.body, local_aggregate_csv());
}

TEST_F(QueryServerTest, ConcurrentIdenticalRequestsCoalesceAndAgree) {
  const std::string expected = local_aggregate_csv();
  // Retry rounds: coalescing needs two requests genuinely in flight at
  // once, which no single round can guarantee -- but 20 rounds of 8
  // concurrent identical queries make a zero-coalesce run vanishingly
  // unlikely, and every response must match regardless.
  for (int round = 0; round < 20; ++round) {
    constexpr int kClients = 8;
    std::vector<std::string> bodies(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        QueryClient client = connect();
        const Response response = client.call(aggregate_request());
        bodies[c] = response.status == Status::kOk ? response.body
                                                   : "ERROR";
      });
    }
    for (std::thread& t : threads) t.join();
    for (const std::string& body : bodies) EXPECT_EQ(body, expected);
    if (server_->counters().coalesced > 0) break;
  }
  EXPECT_GT(server_->counters().coalesced, 0u);
}

TEST_F(QueryServerTest, ShutdownRequestUnblocksWaitAndStopsServing) {
  std::thread waiter([&] { server_->wait(); });
  {
    QueryClient client = connect();
    Request shutdown;
    shutdown.kind = RequestKind::kShutdown;
    EXPECT_EQ(client.call(shutdown).status, Status::kOk);
  }
  waiter.join();  // wait() returned: the daemon's main would now stop()
  server_->stop();
  EXPECT_THROW(connect(), std::exception);
}

}  // namespace
}  // namespace cal
