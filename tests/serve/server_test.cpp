#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve_test_util.hpp"

namespace gpumine::serve {
namespace {

std::shared_ptr<const QueryEngine> engine_fixture() {
  return std::make_shared<const QueryEngine>(testutil::snapshot_fixture());
}

// Minimal raw line-protocol client: connect, send `commands`, read
// until the connection closes (send QUIT last), return everything.
std::string line_session(std::uint16_t port, const std::string& commands) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  EXPECT_EQ(::send(fd, commands.data(), commands.size(), 0),
            static_cast<ssize_t>(commands.size()));
  std::string out;
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    out.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return out;
}

TEST(Server, BindsAnEphemeralPortAndServesHealth) {
  RequestHandler handler(engine_fixture(), "");
  ServerConfig config;
  config.num_threads = 2;
  Server server(handler, config);
  const auto started = server.start();
  ASSERT_TRUE(started.ok()) << started.error().to_string();
  EXPECT_NE(server.port(), 0);
  EXPECT_TRUE(server.running());

  const auto response = http_get("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(response.value().body, "ok\n");
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(Server, HttpResponsesMatchTheHandler) {
  auto engine = engine_fixture();
  RequestHandler handler(engine, "");
  Server server(handler, {});
  ASSERT_TRUE(server.start().ok());

  const std::string target = "/query?keyword=SM%20Util%20%3D%200%25";
  const auto over_socket = http_get("127.0.0.1", server.port(), target);
  ASSERT_TRUE(over_socket.ok()) << over_socket.error().to_string();
  EXPECT_EQ(over_socket.value().status, 200);
  EXPECT_EQ(over_socket.value().body, *engine->query_json("SM Util = 0%"));
  EXPECT_EQ(over_socket.value().content_type, "application/json");

  const auto missing = http_get("127.0.0.1", server.port(), "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
  server.stop();
}

// Header lines past the first 4 KiB recv() grow the connection buffer.
// The request line must survive that growth: it was once read from the
// buffer's freed storage, and `GET /healthz` came back 404.
TEST(Server, ManyHeaderLinesKeepTheRequestLine) {
  RequestHandler handler(engine_fixture(), "");
  Server server(handler, {});
  ASSERT_TRUE(server.start().ok());

  for (const int headers : {0, 10, 1000, 5000}) {
    std::string request = "GET /healthz HTTP/1.1\r\n";
    for (int i = 0; i < headers; ++i) request += "X: y\r\n";
    request += "\r\n";
    const std::string reply = line_session(server.port(), request);
    const std::size_t body = reply.find("\r\n\r\n");
    ASSERT_NE(body, std::string::npos) << headers << " headers: " << reply;
    EXPECT_EQ(reply.rfind("HTTP/1.1 200 ", 0), 0u)
        << headers << " headers: " << reply.substr(0, body);
    EXPECT_EQ(reply.substr(body + 4), "ok\n") << headers << " headers";
  }
  server.stop();
}

TEST(Server, LineProtocolSessionHandlesMultipleCommands) {
  auto engine = engine_fixture();
  RequestHandler handler(engine, "");
  Server server(handler, {});
  ASSERT_TRUE(server.start().ok());

  const std::string out = line_session(
      server.port(), "HEALTH\nQUERY Failed\nSUPPORT Failed\nQUIT\n");
  // Three replies, each exactly one newline-terminated line, in order:
  // "ok\n" followed immediately by the query JSON (no blank line).
  EXPECT_EQ(out.find("ok\n{"), 0u) << out;
  EXPECT_NE(out.find(*engine->query_json("Failed") + "\n"),
            std::string::npos);
  EXPECT_NE(out.find("\"frequent\":true"), std::string::npos);
  server.stop();
}

TEST(Server, ConcurrentClientsGetIdenticalBytes) {
  auto engine = engine_fixture();
  RequestHandler handler(engine, "");
  ServerConfig config;
  config.num_threads = 4;
  Server server(handler, config);
  ASSERT_TRUE(server.start().ok());

  // Each client cycles through every catalog keyword twice, starting at
  // its own offset, so different keywords are in flight at once.
  const std::vector<std::string> keywords = engine->keyword_names();
  ASSERT_EQ(keywords.size(), 4u);
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t i = 0; i < 2 * keywords.size(); ++i) {
        const std::string& keyword = keywords[(t + i) % keywords.size()];
        const auto response = http_get("127.0.0.1", server.port(),
                                       testutil::query_target(keyword));
        if (!response.ok() || response.value().status != 200) {
          failures.fetch_add(1);
        } else if (response.value().body != *engine->query_json(keyword)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  server.stop();
}

TEST(Server, StopUnblocksIdleLineSessions) {
  RequestHandler handler(engine_fixture(), "");
  Server server(handler, {});
  ASSERT_TRUE(server.start().ok());

  // A client that connects and never sends: stop() must shut it down
  // rather than wait for the recv timeout.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  // Give the accept loop a moment to hand the connection to a worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.stop();  // must return promptly (the test would hang otherwise)
  ::close(fd);
}

TEST(Server, RejectsBadListenAddress) {
  RequestHandler handler(engine_fixture(), "");
  ServerConfig config;
  config.host = "not-an-address";
  Server server(handler, config);
  EXPECT_FALSE(server.start().ok());
}

TEST(Server, PortCollisionFailsCleanly) {
  RequestHandler handler(engine_fixture(), "");
  Server first(handler, {});
  ASSERT_TRUE(first.start().ok());
  ServerConfig config;
  config.port = first.port();
  Server second(handler, config);
  EXPECT_FALSE(second.start().ok());
  first.stop();
}

}  // namespace
}  // namespace gpumine::serve
