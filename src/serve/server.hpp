// serve::Server: a small multi-threaded TCP front-end over
// RequestHandler.
//
// One blocking accept thread hands each connection to a worker pool
// (common::ThreadPool); workers parse either protocol and reply:
//
//   HTTP/1.x   "GET /query?keyword=Failed HTTP/1.1" — one request per
//              connection, response carries Content-Length and
//              Connection: close.
//   line       "QUERY Failed\n" — newline-delimited commands on a
//              persistent connection, one JSON line back per command,
//              until the client closes or sends QUIT.
//
// The split keeps every interesting decision in RequestHandler (routing,
// metrics, reload) where it is unit-testable without sockets; this file
// is only fd plumbing. Binding port 0 picks an ephemeral port (read it
// back with port()) so tests and perf_e2e never collide.
//
// stop() is graceful and prompt: the listener closes, in-flight
// connections are shut down, and the worker pool drains before stop()
// returns. Server is not copyable or movable; it owns its pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

#include "common/result.hpp"
#include "common/thread_pool.hpp"
#include "serve/handler.hpp"

namespace gpumine::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";  // numeric IPv4 listen address
  std::uint16_t port = 0;          // 0 = ephemeral (see Server::port())
  std::size_t num_threads = 4;     // connection worker threads
};

class Server {
 public:
  /// The handler must outlive the server; it is shared with whoever
  /// wants to inspect metrics or trigger reloads out of band.
  Server(RequestHandler& handler, ServerConfig config);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Calls stop().
  ~Server();

  /// Binds, listens, and starts the accept thread. Fails (with errno
  /// context) when the address is unparsable or the port is taken.
  [[nodiscard]] Result<bool> start();

  /// Stops accepting, shuts down open connections, and joins every
  /// worker. Idempotent.
  void stop();

  /// The bound port — the ephemeral one when config.port was 0. Valid
  /// after start() succeeds.
  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

 private:
  void accept_loop();
  void serve_connection(int fd);

  RequestHandler& handler_;
  ServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> pool_;

  // Open connection fds, so stop() can unblock workers sitting in
  // recv() on persistent line-protocol sessions.
  std::mutex connections_mutex_;
  std::unordered_set<int> connections_;
};

/// Minimal blocking HTTP/1.1 client for the `gpumine query` CLI and the
/// socket tests: one request, Connection: close, returns the parsed
/// status and body. `host` is a numeric IPv4 address.
[[nodiscard]] Result<HttpResponse> http_request(const std::string& host,
                                                std::uint16_t port,
                                                const std::string& method,
                                                const std::string& target);

[[nodiscard]] inline Result<HttpResponse> http_get(const std::string& host,
                                                   std::uint16_t port,
                                                   const std::string& target) {
  return http_request(host, port, "GET", target);
}

}  // namespace gpumine::serve
