#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/log.hpp"

namespace gpumine::serve {
namespace {

std::string errno_text() { return std::strerror(errno); }

const char* reason_phrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 500:
      return "Internal Server Error";
    default:
      return "Status";
  }
}

/// Writes the whole buffer, retrying on short writes and EINTR.
bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t sent = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(sent));
  }
  return true;
}

bool send_http_response(int fd, const HttpResponse& response) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + ' ' +
                     reason_phrase(response.status) + "\r\n";
  head += "Content-Type: " + response.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  head += "Connection: close\r\n\r\n";
  return send_all(fd, head) && send_all(fd, response.body);
}

/// "GET /query?k=v HTTP/1.1" -> {method, target}; false when malformed.
bool parse_request_line(std::string_view line, std::string_view* method,
                        std::string_view* target) {
  const std::size_t first = line.find(' ');
  if (first == std::string_view::npos) return false;
  const std::size_t second = line.find(' ', first + 1);
  if (second == std::string_view::npos) return false;
  *method = line.substr(0, first);
  *target = line.substr(first + 1, second - first - 1);
  return !method->empty() && !target->empty();
}

void close_fd(int fd) { ::close(fd); }

}  // namespace

Server::Server(RequestHandler& handler, ServerConfig config)
    : handler_(handler), config_(std::move(config)) {}

Server::~Server() { stop(); }

Result<bool> Server::start() {
  if (running_.load(std::memory_order_acquire)) {
    return Error{"serve", "server already running"};
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Error{"serve", "socket: " + errno_text()};
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    close_fd(listen_fd_);
    listen_fd_ = -1;
    return Error{"serve", "bad listen address '" + config_.host + "'"};
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string text = errno_text();
    close_fd(listen_fd_);
    listen_fd_ = -1;
    return Error{"serve", "bind " + config_.host + ':' +
                              std::to_string(config_.port) + ": " + text};
  }
  if (::listen(listen_fd_, 128) != 0) {
    const std::string text = errno_text();
    close_fd(listen_fd_);
    listen_fd_ = -1;
    return Error{"serve", "listen: " + text};
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = config_.port;
  }

  pool_ = std::make_unique<ThreadPool>(
      config_.num_threads == 0 ? 1 : config_.num_threads);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  log_info("serve", "listening",
           {{"host", config_.host},
            {"port", static_cast<std::uint64_t>(port_)},
            {"threads",
             static_cast<std::uint64_t>(config_.num_threads == 0
                                            ? 1
                                            : config_.num_threads)}});
  return true;
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    // Never started (or already stopped); still release a bound fd.
    if (listen_fd_ >= 0) {
      close_fd(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  // Unblock accept() and refuse new connections. The -1 store waits
  // until the accept thread is joined — it still reads listen_fd_, and
  // an early write here races with that read (close alone is enough to
  // make its accept() fail and the loop observe running_ == false).
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    close_fd(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
  // Unblock workers parked in recv() on persistent line sessions.
  {
    std::lock_guard lock(connections_mutex_);
    for (const int fd : connections_) ::shutdown(fd, SHUT_RDWR);
  }
  // Drains queued connections and joins the workers.
  pool_.reset();
  log_info("serve", "stopped");
}

void Server::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Listener closed by stop(), or a transient accept failure after
      // the client already gave up — either way, re-check running_.
      if (!running_.load(std::memory_order_acquire)) break;
      log_debug("serve", "accept failed", {{"error", errno_text()}});
      continue;
    }
    {
      std::lock_guard lock(connections_mutex_);
      connections_.insert(fd);
    }
    pool_->submit([this, fd] { serve_connection(fd); });
  }
}

void Server::serve_connection(int fd) {
  // Safety net against dead clients holding a worker; stop() unblocks
  // live sessions explicitly via shutdown().
  timeval timeout{};
  timeout.tv_sec = 60;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  std::string buffer;
  char chunk[4096];
  bool first_line = true;
  std::size_t consumed = 0;

  // A connection speaks HTTP iff its FIRST line is a request line;
  // otherwise every received line is a QUERY/SUPPORT/... command.
  while (running_.load(std::memory_order_acquire)) {
    const std::size_t newline = buffer.find('\n', consumed);
    if (newline == std::string::npos) {
      const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
      if (got <= 0) break;  // EOF, timeout, or shutdown
      buffer.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    std::string_view line(buffer.data() + consumed, newline - consumed);
    consumed = newline + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

    const bool http =
        first_line && line.find(" HTTP/") != std::string_view::npos;
    first_line = false;

    if (http) {
      std::string_view method_view;
      std::string_view target_view;
      if (!parse_request_line(line, &method_view, &target_view)) {
        log_debug("serve", "malformed request line",
                  {{"line", std::string_view(line.data(),
                                             std::min<std::size_t>(
                                                 line.size(), 128))}});
        send_http_response(
            fd, {400, "application/json", "{\"error\":\"bad request\"}"});
        break;
      }
      // The views point into `buffer`, which the header drain below may
      // reallocate; the handler gets owned copies.
      const std::string method(method_view);
      const std::string target(target_view);
      // Drain headers (blank line terminates; bodies are not used by
      // any endpoint, so the connection closes after the response).
      for (;;) {
        const std::size_t next = buffer.find('\n', consumed);
        if (next == std::string::npos) {
          const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
          if (got <= 0) break;
          buffer.append(chunk, static_cast<std::size_t>(got));
          continue;
        }
        std::string_view header(buffer.data() + consumed, next - consumed);
        consumed = next + 1;
        if (!header.empty() && header.back() == '\r') {
          header.remove_suffix(1);
        }
        if (header.empty()) break;
      }
      send_http_response(fd, handler_.handle(method, target));
      break;
    }

    if (line == "QUIT") break;
    if (line.empty()) continue;
    const HttpResponse response = handler_.handle_line(line);
    if (!send_all(fd, response.body)) break;
    if (response.body.empty() || response.body.back() != '\n') {
      if (!send_all(fd, "\n")) break;
    }
  }

  {
    std::lock_guard lock(connections_mutex_);
    connections_.erase(fd);
  }
  close_fd(fd);
}

Result<HttpResponse> http_request(const std::string& host, std::uint16_t port,
                                  const std::string& method,
                                  const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Error{"http", "socket: " + errno_text()};

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close_fd(fd);
    return Error{"http", "bad address '" + host + "'"};
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string text = errno_text();
    close_fd(fd);
    return Error{"http", "connect " + host + ':' + std::to_string(port) +
                             ": " + text};
  }

  const std::string request = method + ' ' + target + " HTTP/1.1\r\nHost: " +
                              host + "\r\nConnection: close\r\n\r\n";
  if (!send_all(fd, request)) {
    const std::string text = errno_text();
    close_fd(fd);
    return Error{"http", "send: " + text};
  }

  std::string raw;
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    raw.append(chunk, static_cast<std::size_t>(got));
  }
  close_fd(fd);

  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Error{"http", "malformed response (no header terminator)"};
  }
  const std::size_t status_begin = raw.find(' ');
  if (status_begin == std::string::npos || status_begin > header_end) {
    return Error{"http", "malformed status line"};
  }
  HttpResponse response;
  response.status = std::atoi(raw.c_str() + status_begin + 1);
  const std::string_view headers(raw.data(), header_end);
  const std::size_t type_at = headers.find("Content-Type: ");
  if (type_at != std::string_view::npos) {
    const std::size_t type_end = headers.find("\r\n", type_at);
    const std::size_t value_at = type_at + 14;
    response.content_type = std::string(
        headers.substr(value_at, (type_end == std::string_view::npos
                                      ? headers.size()
                                      : type_end) -
                                     value_at));
  }
  response.body = raw.substr(header_end + 4);
  return response;
}

}  // namespace gpumine::serve
