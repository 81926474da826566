#pragma once
// The query server daemon.
//
// QueryServer turns a catalog of bbx bundles into a long-lived service:
// instead of paying manifest parse + block decode per CLI invocation, an
// analyst's stream of small queries hits warm decoded columns.  The
// moving parts:
//
//   catalog    lazily-opened bundles sharing one BlockCache (see
//              serve/catalog.hpp);
//   scheduler  queries execute on one shared core::WorkerPool.  The pool
//              is single-producer, so execution serializes at the query
//              level (a mutex) while each query scans block-parallel --
//              and that serialization is also what keeps responses
//              byte-identical under concurrency (queries cannot
//              interleave partial merges) and what lets the cache skip
//              single-flight: one query at a time means no two scans
//              ever decode the same column concurrently;
//   coalescing identical concurrent requests (same kind, bundle,
//              predicate, grouping, aggregates, projection) collapse
//              into one execution whose response every caller shares;
//   transport  length-prefixed frames (serve/protocol.hpp) over a unix
//              socket, a loopback TCP socket, or both; one thread per
//              connection, graceful shutdown via socket shutdown + join.
//
// Failure containment: a request that fails (bad expression, unknown
// bundle, injected fault) produces a kError response -- or, for
// protocol-level garbage, a closed connection -- and nothing else.  The
// worker pool stays healthy (it rethrows per-window and is reusable by
// design) and the cache stays clean (a failed scan leaves behind only
// complete columns; see serve/cached_source.hpp).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/worker_pool.hpp"
#include "serve/catalog.hpp"
#include "serve/protocol.hpp"

namespace cal::serve {

struct ServerOptions {
  std::string socket_path;  ///< unix socket ("" = no unix listener)
  int tcp_port = -1;        ///< loopback TCP (-1 = none, 0 = ephemeral)
  std::size_t workers = 1;  ///< shared pool width (1 = sequential scans)
  BlockCache::Options cache;
};

class QueryServer {
 public:
  struct Counters {
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;      ///< kError responses sent
    std::uint64_t coalesced = 0;   ///< requests served by another's run
    /// Per-kind request counts, indexed by RequestKind's numeric value
    /// (kPing..kMetrics).
    std::uint64_t by_kind[7] = {};
  };

  QueryServer(std::string catalog_root, ServerOptions options);
  ~QueryServer();  ///< stop()s if still running

  /// Binds + listens on every configured address and starts serving.
  /// Throws when no listener is configured or a bind fails.
  void start();

  /// Blocks until a kShutdown request, request_shutdown(), or stop().
  void wait();

  /// Unblocks wait() without touching locks -- safe to call from a
  /// signal handler (wait() notices within its poll interval).
  void request_shutdown() noexcept { shutdown_requested_.store(true); }

  /// Graceful shutdown: closes listeners, shuts down live connections,
  /// joins every thread.  Idempotent.
  void stop();

  /// The TCP port actually bound (resolves port 0), -1 when disabled.
  int tcp_port() const noexcept { return bound_tcp_port_; }
  const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }

  /// Executes one request in-process -- the same path a connection
  /// takes, minus transport.  Used by tests and the wait()-less embed.
  Response execute(const Request& request);

  BlockCache::Stats cache_stats() { return catalog_.cache().stats(); }
  Counters counters() const;

 private:
  struct Flight {
    bool done = false;
    Response response;
  };

  Response dispatch(const Request& request);
  Response run_query(const Request& request);
  void accept_loop(int listen_fd);
  void serve_connection(int fd);

  BundleCatalog catalog_;
  const ServerOptions options_;

  std::unique_ptr<core::WorkerPool> pool_;
  /// One query at a time: the pool is single-producer, and the cache
  /// relies on it to never decode one column twice concurrently.
  std::mutex query_mu_;

  std::mutex flight_mu_;
  std::condition_variable flight_cv_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;

  mutable std::mutex state_mu_;
  std::condition_variable shutdown_cv_;
  bool running_ = false;
  std::atomic<bool> shutdown_requested_{false};
  std::vector<int> listen_fds_;
  std::vector<std::thread> accept_threads_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
  int bound_tcp_port_ = -1;
  Counters counters_;
  /// Construction time, reset by start(); the kStats uptime_s baseline.
  std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
};

}  // namespace cal::serve
