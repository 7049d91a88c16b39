// Blocking loopback clients for the socket phases: a persistent
// line-protocol connection and a one-shot HTTP/1.1 exchange. Every
// socket carries send and receive timeouts, so a stalled server shows
// up as a failed operation instead of a hung benchmark (the library's
// serve::http_request has no timeout, and the benchmark should not
// measure with the code it measures).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perf_e2e {

inline constexpr int kSocketTimeoutSeconds = 10;

/// One persistent line-protocol connection to 127.0.0.1:port.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Sends `command` plus '\n' and reads one reply line into `reply`,
  /// newline included. False on any socket error, timeout or EOF; the
  /// connection is closed then.
  bool request(std::string_view command, std::string& reply);

 private:
  void close_fd();

  int fd_ = -1;
  std::string buffer_;  // bytes received past the last reply line
};

struct HttpReply {
  bool ok = false;  // a complete response arrived
  int status = 0;
  std::string body;
};

/// Connects, sends `method target` with Connection: close, reads to EOF.
[[nodiscard]] HttpReply http_once(std::uint16_t port, std::string_view method,
                                  std::string_view target);

}  // namespace perf_e2e
