// Export-surface integration: a short Linear Road segment runs with the
// metrics server attached, and the /metrics exposition scraped over real
// TCP must be well-formed Prometheus 0.0.4 text (the CI obs lane's gate).
// Misbehaving clients (a reset mid-response, a connection that never sends
// its request) must not kill or wedge the server.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "lrb/harness.h"
#include "obs/export_server.h"
#include "obs/metrics.h"

namespace cwf::obs {
namespace {

/// A loopback client socket connected to `port`; a positive `rcvbuf` pins
/// the receive buffer (set before connect, so the window stays small).
int Connect(uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

/// GET `path` and return the raw response. A client-side receive timeout
/// bounds every read, so a wedged server fails the test instead of hanging
/// it.
std::string Fetch(uint16_t port, const std::string& path) {
  const int fd = Connect(port);
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Body(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

/// Validates Prometheus text exposition 0.0.4 structurally: every sample
/// belongs to an announced TYPE family, TYPE lines are unique, sample
/// lines parse as `name{labels} value` with a finite numeric value.
void ValidateExposition(const std::string& text) {
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n') << "exposition must end with a newline";
  std::set<std::string> typed_families;
  std::istringstream in(text);
  std::string line;
  size_t samples = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family;
      std::string type;
      fields >> family >> type;
      EXPECT_TRUE(type == "counter" || type == "gauge" ||
                  type == "histogram")
          << line;
      EXPECT_TRUE(typed_families.insert(family).second)
          << "duplicate TYPE for " << family;
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("#", 0) == 0) {
      continue;
    }
    // Sample line: <name>[{labels}] <value>
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "non-numeric sample value in: " << line;
    std::string name = line.substr(0, space);
    const size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      name = name.substr(0, brace);
    }
    // Histogram samples use the family name plus a suffix.
    for (const char* suffix : {"_bucket", "_count", "_sum", ""}) {
      const std::string stripped =
          name.size() > std::strlen(suffix)
              ? name.substr(0, name.size() - std::strlen(suffix))
              : name;
      if (name.size() > std::strlen(suffix) &&
          name.compare(name.size() - std::strlen(suffix), std::string::npos,
                       suffix) == 0 &&
          typed_families.count(stripped)) {
        name = stripped;
        break;
      }
    }
    EXPECT_TRUE(typed_families.count(name))
        << "sample without TYPE announcement: " << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
}

TEST(ExportHttpTest, TracedLRBSegmentServesValidMetrics) {
  MetricsRegistry::Global().Reset();
  SetTracingEnabled(true);

  MetricsServer server;
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  lrb::ExperimentOptions options;
  options.workload.duration = Seconds(30);
  auto result = lrb::RunLRBExperiment(options);
  SetTracingEnabled(false);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result.value().status.ok());

  // 1. /metrics must be a valid exposition carrying the engine families.
  const std::string response = Fetch(server.port(), "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::string exposition = Body(response);
  ValidateExposition(exposition);
  EXPECT_NE(exposition.find("cwf_actor_firings_total{actor=\"Source\"}"),
            std::string::npos);
  EXPECT_NE(exposition.find("cwf_wave_latency_us_count"), std::string::npos);

  EXPECT_NE(
      exposition.find("cwf_actor_firings_total{actor=\"TollNotification\"}"),
      std::string::npos);

  // 2. /profile renders over the same connection path; the retired /top
  // table is gone (cwf_top reads /metrics).
  const std::string profile = Body(Fetch(server.port(), "/profile"));
  EXPECT_NE(profile.find("actor\tphase\tself_us\tsamples\tpct_wall\n"),
            std::string::npos);
  EXPECT_EQ(Fetch(server.port(), "/top").rfind("HTTP/1.0 404", 0), 0u);

  // 3. The trace endpoint serves the wave timeline captured during the run.
  const std::string trace = Body(Fetch(server.port(), "/trace.json"));
  EXPECT_EQ(trace.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(trace.find("\"cat\":\"wave\""), std::string::npos);

  // 4. Unknown paths 404 instead of crashing the accept loop.
  EXPECT_EQ(Fetch(server.port(), "/nope").rfind("HTTP/1.0 404", 0), 0u);

  EXPECT_GE(server.requests_served(), 5u);
  server.Stop();
}

TEST(ExportHttpTest, ClientResetMidResponseKeepsServing) {
  // ~16 MB of exposition: far more than the server's send buffer (at most
  // 4 MB under Linux's default tcp_wmem) plus the client's pinned 4 KB
  // receive buffer, so the server is still sending when the reset lands.
  MetricsRegistry registry;
  const std::string padding(1000, 'x');
  for (int i = 0; i < 16 * 1024; ++i) {
    registry.GetCounter("big_total", "actor", padding + std::to_string(i))
        ->Add(1);
  }
  MetricsServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = Connect(server.port(), /*rcvbuf=*/4096);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  // Half-close first: the reset then reaches a server socket in CLOSE_WAIT,
  // where Linux reports it to the next send as EPIPE, the SIGPIPE case.
  ::shutdown(fd, SHUT_WR);
  char byte;
  ASSERT_EQ(::read(fd, &byte, 1), 1);
  // Linger {on, 0s}: close() sends RST instead of FIN.
  const linger reset{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  ::close(fd);

  EXPECT_EQ(Fetch(server.port(), "/").rfind("HTTP/1.0 200 OK", 0), 0u);
  server.Stop();
}

TEST(ExportHttpTest, SilentClientDoesNotBlockOtherScrapes) {
  MetricsRegistry registry;
  registry.GetCounter("up_total")->Add(1);
  MetricsServer server(&registry);
  ASSERT_TRUE(server.Start(0).ok());

  // Connects and never sends a request line.
  const int silent = Connect(server.port());
  const std::string response = Fetch(server.port(), "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u);
  EXPECT_NE(Body(response).find("up_total 1"), std::string::npos);
  // Closed before Stop() so a server without I/O timeouts still joins.
  ::close(silent);
  server.Stop();
}

TEST(ExportHttpTest, RestartAndEphemeralPorts) {
  MetricsServer server;
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t first = server.port();
  EXPECT_FALSE(server.Start(0).ok());  // double-start refused
  server.Stop();
  server.Stop();  // idempotent
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_GT(server.port(), 0);
  (void)first;
  server.Stop();
}

}  // namespace
}  // namespace cwf::obs
