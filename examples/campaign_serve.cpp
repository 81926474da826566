// campaign_serve: serve a directory of bbx bundles over a socket.
//
//   campaign_serve <catalog-dir> (--socket <path> | --tcp <port>)
//                  [--workers N] [--cache-mb MB]
//
// The catalog directory's immediate subdirectories are the servable
// bundles (each must hold a manifest.bbx.json); clients address them by
// directory name.  The daemon runs until a client sends a shutdown
// request (`campaign_query --server ... --shutdown`) or the process
// receives SIGINT/SIGTERM.
//
// --cache-mb sets the decoded-column cache's byte budget (default 256);
// --cache-mb 0 retains nothing, so every query decodes from the shards.
// --tcp binds loopback only; --tcp 0 picks an ephemeral port and prints
// it, so scripts can scrape "listening tcp <port>" from stdout.

#include <csignal>
#include <iostream>
#include <memory>
#include <string>

#include "cli.hpp"
#include "serve/server.hpp"

using namespace cal;
using examples::UsageError;

namespace {

constexpr const char* kUsage =
    "usage: campaign_serve <catalog-dir> (--socket <path> | --tcp <port>)\n"
    "         [--workers N] [--cache-mb MB]\n"
    "         [--trace <path>] [--version]\n";

serve::QueryServer* g_server = nullptr;

void handle_signal(int) {
  // Only the lock-free flag flip is async-signal-safe; wait() notices
  // and main performs the actual stop().
  if (g_server != nullptr) g_server->request_shutdown();
}

}  // namespace

int main(int argc, char** argv) {
  if (examples::handle_version_flag("campaign_serve", argc, argv)) {
    return examples::kExitOk;
  }
  return examples::cli_guard("campaign_serve", kUsage, [&]() -> int {
    if (argc < 2) throw UsageError("");
    const std::string catalog_dir = argv[1];
    serve::ServerOptions options;
    std::string trace_path;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw UsageError(arg + " requires an argument");
        return argv[++i];
      };
      if (arg == "--socket") {
        options.socket_path = next();
      } else if (arg == "--tcp") {
        options.tcp_port =
            static_cast<int>(examples::parse_size_flag(arg, next()));
      } else if (arg == "--workers") {
        options.workers = examples::parse_size_flag(arg, next());
      } else if (arg == "--cache-mb") {
        options.cache.byte_budget =
            examples::parse_size_flag(arg, next()) << 20;
      } else if (arg == "--trace") {
        trace_path = next();
      } else {
        throw UsageError("unknown flag '" + arg + "'");
      }
    }
    if (options.socket_path.empty() && options.tcp_port < 0) {
      throw UsageError("configure --socket and/or --tcp");
    }
    examples::TraceGuard trace_guard(trace_path);

    serve::QueryServer server(catalog_dir, options);
    server.start();
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    if (!server.socket_path().empty()) {
      std::cout << "listening unix " << server.socket_path() << "\n";
    }
    if (server.tcp_port() >= 0) {
      std::cout << "listening tcp " << server.tcp_port() << "\n";
    }
    std::cout.flush();

    server.wait();
    g_server = nullptr;
    server.stop();
    std::cout << "shutdown\n";
    return 0;
  });
}
