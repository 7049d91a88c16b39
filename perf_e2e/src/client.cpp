#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>

namespace perf_e2e {
namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{};
  timeout.tv_sec = kSocketTimeoutSeconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

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

// One recv() appended to `out`: >0 bytes read, 0 EOF, <0 error/timeout.
ssize_t recv_some(int fd, std::string& out) {
  char chunk[65536];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got > 0) out.append(chunk, static_cast<std::size_t>(got));
    return got;
  }
}

}  // namespace

LineClient::LineClient(std::uint16_t port) : fd_(connect_loopback(port)) {}

LineClient::~LineClient() { close_fd(); }

void LineClient::close_fd() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool LineClient::request(std::string_view command, std::string& reply) {
  reply.clear();
  if (fd_ < 0) return false;
  std::string wire(command);
  wire += '\n';
  if (!send_all(fd_, wire)) {
    close_fd();
    return false;
  }
  std::size_t scanned = 0;
  for (;;) {
    const std::size_t newline = buffer_.find('\n', scanned);
    if (newline != std::string::npos) {
      reply.assign(buffer_, 0, newline + 1);
      buffer_.erase(0, newline + 1);
      return true;
    }
    scanned = buffer_.size();
    if (recv_some(fd_, buffer_) <= 0) {
      close_fd();
      return false;
    }
  }
}

HttpReply http_once(std::uint16_t port, std::string_view method,
                    std::string_view target) {
  HttpReply reply;
  const int fd = connect_loopback(port);
  if (fd < 0) return reply;
  std::string request(method);
  request += ' ';
  request += target;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  std::string raw;
  bool eof = false;
  if (send_all(fd, request)) {
    for (;;) {
      const ssize_t got = recv_some(fd, raw);
      if (got <= 0) {
        eof = got == 0;
        break;
      }
    }
  }
  ::close(fd);
  const std::size_t header_end = raw.find("\r\n\r\n");
  const std::size_t space = raw.find(' ');
  if (!eof || header_end == std::string::npos || space > header_end) {
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + space + 1);
  reply.body = raw.substr(header_end + 4);
  // Connection: close replies carry Content-Length; a short body means
  // the server closed early.
  const std::string_view headers(raw.data(), header_end);
  const std::size_t length_at = headers.find("Content-Length: ");
  reply.ok = length_at == std::string_view::npos ||
             std::strtoull(raw.c_str() + length_at + 16, nullptr, 10) ==
                 reply.body.size();
  return reply;
}

}  // namespace perf_e2e
