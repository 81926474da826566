#include "serve/server.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "query/engine.hpp"
#include "query/expr.hpp"

namespace cal::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("serve: " + what + ": " + std::strerror(errno));
}

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("serve: socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  ::unlink(path.c_str());  // a stale socket file from a dead server
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    throw_errno("bind('" + path + "')");
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    throw_errno("listen('" + path + "')");
  }
  return fd;
}

int listen_tcp(int port, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    throw_errno("bind(tcp " + std::to_string(port) + ")");
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    throw_errno("listen(tcp)");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    ::close(fd);
    throw_errno("getsockname");
  }
  *bound_port = ntohs(bound.sin_port);
  return fd;
}

}  // namespace

QueryServer::QueryServer(std::string catalog_root, ServerOptions options)
    : catalog_(std::move(catalog_root), options.cache),
      options_(std::move(options)) {}

QueryServer::~QueryServer() { stop(); }

void QueryServer::start() {
  if (options_.socket_path.empty() && options_.tcp_port < 0) {
    throw std::invalid_argument(
        "serve: configure a unix socket path and/or a tcp port");
  }
  // A daemon always meters itself: the registry is process-wide, and the
  // metrics request kind / Prometheus exposition are only useful when the
  // counters actually tick.  CAL_METRICS=off still wins (kill switch).
  obs::metrics::arm();
  if (options_.workers > 1) {
    pool_ = std::make_unique<core::WorkerPool>(options_.workers, "serve");
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  if (running_) throw std::logic_error("serve: server already started");
  if (!options_.socket_path.empty()) {
    listen_fds_.push_back(listen_unix(options_.socket_path));
  }
  if (options_.tcp_port >= 0) {
    listen_fds_.push_back(listen_tcp(options_.tcp_port, &bound_tcp_port_));
  }
  running_ = true;
  start_time_ = std::chrono::steady_clock::now();
  for (const int fd : listen_fds_) {
    accept_threads_.emplace_back([this, fd] { accept_loop(fd); });
  }
}

void QueryServer::wait() {
  std::unique_lock<std::mutex> lock(state_mu_);
  // Polls so a signal handler's request_shutdown() -- which cannot
  // notify a condition variable -- still unblocks promptly.
  while (!shutdown_requested_.load() && running_) {
    shutdown_cv_.wait_for(lock, std::chrono::milliseconds(100));
  }
}

void QueryServer::stop() {
  std::vector<std::thread> acceptors, connections;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!running_) return;
    running_ = false;
    for (const int fd : listen_fds_) ::shutdown(fd, SHUT_RDWR);
    acceptors.swap(accept_threads_);
  }
  for (std::thread& t : acceptors) t.join();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    connections.swap(conn_threads_);
  }
  for (std::thread& t : connections) t.join();
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (const int fd : listen_fds_) ::close(fd);
    listen_fds_.clear();
    shutdown_requested_.store(true);
  }
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }
  shutdown_cv_.notify_all();
}

void QueryServer::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or fatal): stop accepting
    }
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!running_) {
      ::close(fd);
      return;
    }
    ++counters_.connections;
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void QueryServer::serve_connection(int fd) {
  bool shutdown_after = false;
  try {
    for (;;) {
      const std::optional<std::string> payload = read_frame(fd);
      if (!payload) break;  // clean EOF
      Response response;
      RequestKind kind = RequestKind::kPing;
      try {
        const Request request = decode_request(*payload);
        kind = request.kind;
        response = execute(request);
      } catch (const ProtocolError& e) {
        // Malformed payload inside a well-framed message: report and
        // drop the connection -- the stream cannot be trusted further.
        Response err{Status::kError, e.what()};
        write_frame(fd, encode_response(err));
        break;
      }
      write_frame(fd, encode_response(response));
      if (kind == RequestKind::kShutdown &&
          response.status == Status::kOk) {
        shutdown_after = true;
        break;
      }
    }
  } catch (const std::exception&) {
    // Framing violations and socket errors: nothing sane to send.
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (std::size_t i = 0; i < conn_fds_.size(); ++i) {
      if (conn_fds_[i] == fd) {
        conn_fds_.erase(conn_fds_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    ::close(fd);
  }
  if (shutdown_after) {
    shutdown_requested_.store(true);
    shutdown_cv_.notify_all();
  }
}

Response QueryServer::execute(const Request& request) {
  CAL_SPAN("serve.request");
  CAL_COUNT("serve.requests", 1);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++counters_.requests;
    const auto kind = static_cast<std::size_t>(request.kind);
    if (kind < sizeof counters_.by_kind / sizeof counters_.by_kind[0]) {
      ++counters_.by_kind[kind];
    }
  }
  Response response = dispatch(request);
  if (response.status == Status::kError) {
    std::lock_guard<std::mutex> lock(state_mu_);
    ++counters_.errors;
  }
  return response;
}

Response QueryServer::dispatch(const Request& request) {
  const bool coalescable = request.kind == RequestKind::kAggregate ||
                           request.kind == RequestKind::kMaterialize;
  if (!coalescable) return run_query(request);

  const std::string key = encode_request(request);
  std::shared_ptr<Flight> flight;
  {
    std::unique_lock<std::mutex> lock(flight_mu_);
    const auto it = flights_.find(key);
    if (it != flights_.end()) {
      flight = it->second;
      {
        std::lock_guard<std::mutex> state(state_mu_);
        ++counters_.coalesced;
      }
      CAL_COUNT("serve.requests_coalesced", 1);
      flight_cv_.wait(lock, [&] { return flight->done; });
      return flight->response;
    }
    flight = std::make_shared<Flight>();
    flights_.emplace(key, flight);
  }
  Response response = run_query(request);
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    flight->response = response;
    flight->done = true;
    flights_.erase(key);
  }
  flight_cv_.notify_all();
  return response;
}

Response QueryServer::run_query(const Request& request) {
  try {
    switch (request.kind) {
      case RequestKind::kPing:
        return {Status::kOk, ""};
      case RequestKind::kShutdown:
        return {Status::kOk, ""};
      case RequestKind::kList: {
        std::string body;
        for (const std::string& name : catalog_.list()) {
          body += name;
          body += '\n';
        }
        return {Status::kOk, body};
      }
      case RequestKind::kMetrics:
        // The whole process-wide registry, Prometheus text exposition:
        // deterministic ordering (sorted names) by construction.
        return {Status::kOk, obs::metrics::render_text()};
      case RequestKind::kStats: {
        const BlockCache::Stats cache = catalog_.cache().stats();
        const Counters c = counters();
        double uptime_s;
        {
          std::lock_guard<std::mutex> lock(state_mu_);
          uptime_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_time_)
                         .count();
        }
        std::ostringstream out;
        out << "counter,value\n"
            << "uptime_s," << uptime_s << "\n"
            << "connections," << c.connections << "\n"
            << "requests," << c.requests << "\n"
            << "errors," << c.errors << "\n"
            << "coalesced_requests," << c.coalesced << "\n"
            << "requests_ping,"
            << c.by_kind[static_cast<std::size_t>(RequestKind::kPing)]
            << "\n"
            << "requests_aggregate,"
            << c.by_kind[static_cast<std::size_t>(RequestKind::kAggregate)]
            << "\n"
            << "requests_materialize,"
            << c.by_kind[static_cast<std::size_t>(
                   RequestKind::kMaterialize)]
            << "\n"
            << "requests_list,"
            << c.by_kind[static_cast<std::size_t>(RequestKind::kList)]
            << "\n"
            << "requests_stats,"
            << c.by_kind[static_cast<std::size_t>(RequestKind::kStats)]
            << "\n"
            << "requests_shutdown,"
            << c.by_kind[static_cast<std::size_t>(RequestKind::kShutdown)]
            << "\n"
            << "requests_metrics,"
            << c.by_kind[static_cast<std::size_t>(RequestKind::kMetrics)]
            << "\n"
            << "cache_hits," << cache.hits << "\n"
            << "cache_misses," << cache.misses << "\n"
            << "cache_inserts," << cache.inserts << "\n"
            << "cache_evictions," << cache.evictions << "\n"
            << "cache_rejected," << cache.rejected << "\n"
            << "cache_bytes," << cache.bytes << "\n"
            << "cache_entries," << cache.entries << "\n";
        return {Status::kOk, out.str()};
      }
      case RequestKind::kAggregate:
      case RequestKind::kMaterialize:
        break;
    }

    const BundleCatalog::Bundle& bundle = catalog_.open(request.bundle);
    query::ExprPtr where;
    if (!request.where.empty()) where = query::parse_expr(request.where);

    std::ostringstream out;
    // The pool is single-producer, so queries take turns; each query
    // still scans block-parallel across the pool's workers.
    std::lock_guard<std::mutex> lock(query_mu_);
    const query::BundleQuery engine(*bundle.reader, bundle.source.get());
    if (request.kind == RequestKind::kAggregate) {
      query::QuerySpec spec;
      spec.where = where;
      spec.group_by = request.group_by;
      for (const std::string& item : request.aggregates) {
        const auto agg = query::parse_aggregate(item);
        if (!agg) {
          throw std::invalid_argument("unknown aggregate '" + item + "'");
        }
        spec.aggregates.push_back(*agg);
      }
      if (spec.aggregates.empty()) {
        throw std::invalid_argument(
            "aggregate request carries no aggregates");
      }
      engine.aggregate(spec, pool_.get()).write_csv(out);
    } else {
      const RawTable table =
          engine.materialize(where, request.select, pool_.get());
      table.write_csv(out);
    }
    return {Status::kOk, out.str()};
  } catch (const std::exception& e) {
    return {Status::kError, e.what()};
  }
}

QueryServer::Counters QueryServer::counters() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return counters_;
}

}  // namespace cal::serve
