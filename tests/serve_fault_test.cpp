// Serving-layer fault matrix (label: fault): injected failures at the
// serve seams -- cache insert during a scan, response frame write --
// must surface as request errors or transport failures WITHOUT
// poisoning the cache, wedging a worker, or killing the daemon.  The
// recovery bar is concrete: after the fault clears, the very same
// request must succeed and its bytes must equal a never-faulted run.

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "core/fault.hpp"
#include "io/archive/bbx_writer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace cal {
namespace {

namespace f = core::fault;
namespace fs = std::filesystem;
using serve::QueryClient;
using serve::Request;
using serve::RequestKind;
using serve::Response;
using serve::Status;

Plan fault_plan() {
  return DesignBuilder(41)
      .add(Factor::levels("size", {Value(1024), Value(4096), Value(16384)}))
      .add(Factor::levels("op", {Value("load"), Value("store")}))
      .replications(6)
      .randomize(true)
      .build();
}

MeasureResult fault_measure(const PlannedRun& run, MeasureContext& ctx) {
  const double value =
      run.values[0].as_real() * ctx.rng->lognormal_factor(0.2);
  return MeasureResult{{value}, value * 1e-9};
}

class ServeFault : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!f::compiled_in()) {
      GTEST_SKIP() << "library built without CALIPERS_FAULT_INJECTION";
    }
    f::reset();
    root_ = fs::temp_directory_path() / "calipers_serve_fault_test";
    fs::remove_all(root_);
    fs::create_directories(root_ / "catalog");
    Engine::Options engine_options;
    engine_options.seed = 13;
    const Engine engine({"time_us"}, engine_options);
    io::archive::BbxWriterOptions writer_options;
    writer_options.shards = 2;
    writer_options.block_records = 6;
    io::archive::BbxWriter sink((root_ / "catalog" / "mem").string(),
                                writer_options);
    engine.run(fault_plan(), fault_measure, sink);

    serve::ServerOptions server_options;
    server_options.socket_path = (root_ / "serve.sock").string();
    server_options.workers = 2;
    server_ = std::make_unique<serve::QueryServer>(
        (root_ / "catalog").string(), server_options);
    server_->start();
  }

  void TearDown() override {
    f::reset();
    if (server_) server_->stop();
    server_.reset();
    fs::remove_all(root_);
  }

  static Request aggregate_request() {
    Request request;
    request.kind = RequestKind::kAggregate;
    request.bundle = "mem";
    request.where = "sequence < 12";
    request.group_by = {"size", "op"};
    request.aggregates = {"count", "mean:time_us"};
    return request;
  }

  QueryClient connect() const {
    return QueryClient::connect_unix((root_ / "serve.sock").string());
  }

  fs::path root_;
  std::unique_ptr<serve::QueryServer> server_;
};

TEST_F(ServeFault, CacheInsertFailureErrorsTheRequestWithoutPoisoning) {
  // Every insert of the scan throws: the request must come back as an
  // error and the failed scan must leave nothing in the cache.
  f::arm_spec("serve.cache_insert=error@1");
  QueryClient client = connect();
  const Response faulted = client.call(aggregate_request());
  EXPECT_EQ(faulted.status, Status::kError);
  EXPECT_NE(faulted.body.find("serve.cache_insert"), std::string::npos);
  EXPECT_GT(f::hits("serve.cache_insert"), 0u);
  EXPECT_EQ(server_->cache_stats().entries, 0u);

  // Fault cleared: the same connection, same request, must now succeed
  // and match a never-faulted in-process run byte for byte.
  f::reset();
  const Response recovered = client.call(aggregate_request());
  ASSERT_EQ(recovered.status, Status::kOk);
  const Response reference = server_->execute(aggregate_request());
  ASSERT_EQ(reference.status, Status::kOk);
  EXPECT_EQ(recovered.body, reference.body);
  EXPECT_EQ(server_->cache_stats().hits > 0, true);  // cache warm again
}

TEST_F(ServeFault, EveryCacheInsertFailingStillRecoversAfterReset) {
  // Every insert of two scans in a row fails.  The retry after the
  // reset must decode afresh, and the workers must stay usable.
  f::arm_spec("serve.cache_insert=error");
  QueryClient client = connect();
  EXPECT_EQ(client.call(aggregate_request()).status, Status::kError);
  EXPECT_EQ(client.call(aggregate_request()).status, Status::kError);
  f::reset();
  const Response recovered = client.call(aggregate_request());
  ASSERT_EQ(recovered.status, Status::kOk);
  const Response reference = server_->execute(aggregate_request());
  EXPECT_EQ(recovered.body, reference.body);
}

TEST_F(ServeFault, WriteFrameFailureDropsTheClientButNotTheServer) {
  // Warm the cache first so the faulted request is otherwise healthy.
  {
    QueryClient client = connect();
    ASSERT_EQ(client.call(aggregate_request()).status, Status::kOk);
  }
  // The server's response write fails: this client's call must fail at
  // the transport level (closed connection, not a protocol response).
  f::arm_spec("serve.write_frame=error@1");
  {
    QueryClient client = connect();
    EXPECT_THROW(client.call(aggregate_request()), std::exception);
  }
  EXPECT_GT(f::hits("serve.write_frame"), 0u);
  f::reset();
  // The daemon survived: a fresh connection gets the exact bytes the
  // in-process path computes.
  QueryClient client = connect();
  const Response after = client.call(aggregate_request());
  ASSERT_EQ(after.status, Status::kOk);
  const Response reference = server_->execute(aggregate_request());
  EXPECT_EQ(after.body, reference.body);
}

TEST_F(ServeFault, DelayedCacheInsertKeepsConcurrentScansCorrect) {
  // A slow (not failing) insert stretches each scan while a second
  // client's request queues behind it; everyone must still agree.
  f::arm_spec("serve.cache_insert=delay:20@1");
  const Response reference = server_->execute(aggregate_request());
  ASSERT_EQ(reference.status, Status::kOk);
  QueryClient a = connect();
  QueryClient b = connect();
  const Response ra = a.call(aggregate_request());
  const Response rb = b.call(aggregate_request());
  ASSERT_EQ(ra.status, Status::kOk);
  ASSERT_EQ(rb.status, Status::kOk);
  EXPECT_EQ(ra.body, reference.body);
  EXPECT_EQ(rb.body, reference.body);
}

}  // namespace
}  // namespace cal
