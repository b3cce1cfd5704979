#include "obs/export_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <sstream>

#include "common/logging.h"
#include "obs/telemetry.h"

namespace cwf::obs {

namespace {

/// Receive/send timeout on every accepted connection: one client that never
/// sends its request line (or never reads its response) must not hold the
/// single accept thread, and with it every later scrape and Stop(), for
/// longer than this.
constexpr int kClientIoTimeoutSeconds = 3;

std::string HttpResponse(const char* status, const char* content_type,
                         const std::string& body) {
  std::ostringstream out;
  out << "HTTP/1.0 " << status << "\r\n"
      << "Content-Type: " << content_type << "\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << body;
  return out.str();
}

}  // namespace

MetricsServer::MetricsServer(MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry : &MetricsRegistry::Global()) {}

MetricsServer::~MetricsServer() { Stop(); }

Status MetricsServer::Start(uint16_t port) {
  if (listen_fd_.load() >= 0) {
    return Status::FailedPrecondition("metrics server already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket() failed: " +
                            std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::Internal("bind() failed: " +
                            std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    return Status::Internal("getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(fd, 16) < 0) {
    ::close(fd);
    return Status::Internal("listen() failed: " +
                            std::string(std::strerror(errno)));
  }
  stopping_ = false;
  listen_fd_.store(fd);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void MetricsServer::AcceptLoop() {
  for (;;) {
    const int fd = listen_fd_.load();
    if (fd < 0) {
      return;
    }
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (stopping_.load()) {
        return;
      }
      continue;
    }
    const timeval timeout{kClientIoTimeoutSeconds, 0};
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    ServeClient(client);
    ::close(client);
  }
}

void MetricsServer::ServeClient(int client_fd) {
  // Read up to the end of the request line; scrapers send tiny requests so
  // a bounded read loop suffices.
  std::string request;
  char buf[1024];
  while (request.find('\n') == std::string::npos && request.size() < 8192) {
    const ssize_t n = ::read(client_fd, buf, sizeof(buf));
    if (n <= 0) {
      return;
    }
    request.append(buf, static_cast<size_t>(n));
  }
  std::string path = "/";
  {
    // "GET <path> HTTP/1.x"
    const size_t sp1 = request.find(' ');
    const size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : request.find(' ', sp1 + 1);
    if (sp1 != std::string::npos && sp2 != std::string::npos) {
      path = request.substr(sp1 + 1, sp2 - sp1 - 1);
    }
  }
  const std::string response = HandleRequest(path);
  // MSG_NOSIGNAL: a scraper that resets the connection mid-response ends
  // this response with an error instead of killing the process by SIGPIPE.
  size_t off = 0;
  while (off < response.size()) {
    const ssize_t n = ::send(client_fd, response.data() + off,
                             response.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      return;
    }
    off += static_cast<size_t>(n);
  }
  requests_.fetch_add(1);
}

std::string MetricsServer::HandleRequest(const std::string& path) const {
  // Exposition rendering is itself host time; attribute it so a scrape-heavy
  // run shows up in its own decomposition instead of inflating other phases.
  static const ProfileSite* serialize_site =
      Profiler::Global().Site("<export>", ProfilePhase::kSerialization);
  CWF_PROFILE_SCOPE(serialize_site);
  if (path == "/metrics") {
    return HttpResponse("200 OK", "text/plain; version=0.0.4",
                        registry_->RenderPrometheus());
  }
  if (path == "/trace.json") {
    return HttpResponse("200 OK", "application/json",
                        GlobalTracer().RenderChromeJson());
  }
  if (path == "/profile") {
    // Phase-decomposition TSV followed by the critical-path section; rows
    // of the first part have exactly 5 tab-separated columns (cwf_top
    // --profile keys on that).
    return HttpResponse(
        "200 OK", "text/tab-separated-values",
        RenderProfileText(SnapshotProfile(*registry_)) + "\n" +
            RenderCriticalPathText(ComputeCriticalPaths(GlobalTracer())));
  }
  if (path == "/") {
    return HttpResponse("200 OK", "text/plain",
                        "confluence metrics server\n"
                        "endpoints: /metrics /trace.json /profile\n");
  }
  return HttpResponse("404 Not Found", "text/plain", "not found\n");
}

void MetricsServer::Stop() {
  stopping_ = true;
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    // shutdown() wakes the blocked accept(); the fd is closed only after
    // the accept thread joined (fd-recycling hazard, see IngestServer::Stop).
    ::shutdown(listen_fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  if (listen_fd >= 0) {
    ::close(listen_fd);
  }
}

}  // namespace cwf::obs
