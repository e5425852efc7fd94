#include "net/http_exposition.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/socket_io.hpp"
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"

namespace adr::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Request heads larger than this are refused (telemetry GETs are tiny;
/// anything bigger is a confused or hostile peer).
constexpr std::size_t kMaxRequestBytes = 4096;
/// A connection that has not completed its exchange within this budget
/// is closed — a stalled scraper must not accumulate fds.
constexpr auto kConnDeadline = std::chrono::seconds(5);
/// Connections served concurrently; beyond it, accepts are refused by
/// immediate close (scrapers retry on their next interval).
constexpr std::size_t kMaxConns = 32;

struct HttpMetrics {
  obs::Counter& requests;
  obs::Counter& errors;
};

HttpMetrics& http_metrics() {
  static HttpMetrics m{obs::metrics().counter("server.http_requests"),
                       obs::metrics().counter("server.http_errors")};
  return m;
}

struct HttpConn {
  int fd = -1;
  std::string in;
  std::string out;
  std::size_t out_pos = 0;
  bool responding = false;
  Clock::time_point deadline;
};

std::string http_response(int code, const char* reason, const char* content_type,
                          std::string body) {
  std::string head = "HTTP/1.0 " + std::to_string(code) + " " + reason +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  head += body;
  return head;
}

/// Parses "GET <path> HTTP/1.x" out of a complete request head.  Only
/// the request line matters; headers are ignored.
bool parse_request_line(const std::string& head, std::string& method,
                        std::string& target) {
  const std::size_t eol = head.find("\r\n");
  const std::string line = head.substr(0, eol);  // npos -> whole string
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  method = line.substr(0, sp1);
  target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  return !method.empty() && !target.empty();
}

/// Routes a parsed request to a full serialized response.
std::string respond(const std::string& method, const std::string& target) {
  if (method != "GET") {
    http_metrics().errors.add();
    return http_response(405, "Method Not Allowed", "text/plain",
                         "only GET is served\n");
  }
  std::string path = target;
  std::string query;
  const std::size_t qpos = target.find('?');
  if (qpos != std::string::npos) {
    path = target.substr(0, qpos);
    query = target.substr(qpos + 1);
  }
  if (path == "/metrics") {
    return http_response(200, "OK",
                         "text/plain; version=0.0.4; charset=utf-8",
                         obs::to_prometheus(obs::metrics().snapshot()));
  }
  if (path == "/history") {
    // Optional ?n=<k>: only the k most recent samples.
    std::size_t last_n = 0;
    if (query.rfind("n=", 0) == 0) {
      last_n = static_cast<std::size_t>(std::strtoul(query.c_str() + 2, nullptr, 10));
    }
    return http_response(200, "OK", "application/json",
                         obs::sampler().history_json(last_n));
  }
  if (path == "/healthz") {
    return http_response(200, "OK", "text/plain", "ok\n");
  }
  http_metrics().errors.add();
  return http_response(404, "Not Found", "text/plain",
                       "serves /metrics, /history and /healthz\n");
}

}  // namespace

HttpExpositionServer::HttpExpositionServer(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("HttpExpositionServer: socket() failed");
  }
  const int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("HttpExpositionServer: bind() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("HttpExpositionServer: getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("HttpExpositionServer: listen() failed");
  }
  set_nonblocking(listen_fd_);
}

HttpExpositionServer::~HttpExpositionServer() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void HttpExpositionServer::start() {
  if (running_.exchange(true)) return;
  int fds[2];
  if (::pipe(fds) != 0) {
    running_.store(false);
    throw std::runtime_error("HttpExpositionServer: pipe() failed");
  }
  wake_rd_ = fds[0];
  wake_wr_ = fds[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);
  thread_ = std::thread([this]() { loop(); });
}

void HttpExpositionServer::stop() {
  if (!running_.exchange(false)) return;
  wake();
  if (thread_.joinable()) thread_.join();
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
  wake_rd_ = wake_wr_ = -1;
}

void HttpExpositionServer::wake() {
  if (wake_wr_ < 0) return;
  const char one = 1;
  [[maybe_unused]] const ssize_t r = ::write(wake_wr_, &one, 1);
}

void HttpExpositionServer::loop() {
  std::vector<HttpConn> conns;
  std::vector<pollfd> pfds;
  while (running_.load()) {
    pfds.clear();
    pfds.push_back({listen_fd_, POLLIN, 0});
    pfds.push_back({wake_rd_, POLLIN, 0});
    for (const HttpConn& c : conns) {
      pfds.push_back({c.fd, static_cast<short>(c.responding ? POLLOUT : POLLIN), 0});
    }
    // Wake by the earliest connection deadline (1s floor keeps the idle
    // loop cheap; deadlines are seconds-scale).
    int timeout_ms = -1;
    if (!conns.empty()) {
      auto first = conns.front().deadline;
      for (const HttpConn& c : conns) first = std::min(first, c.deadline);
      const auto dt =
          std::chrono::duration_cast<std::chrono::milliseconds>(first - Clock::now());
      timeout_ms = static_cast<int>(std::max<long long>(dt.count(), 0));
    }
    const int n = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (!running_.load()) break;
    if (n < 0 && errno != EINTR) break;

    if (pfds[1].revents & POLLIN) {
      char buf[64];
      while (::read(wake_rd_, buf, sizeof(buf)) > 0) {
      }
    }
    if (pfds[0].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (conns.size() >= kMaxConns) {
          http_metrics().errors.add();
          ::close(fd);
          continue;
        }
        set_nonblocking(fd);
        HttpConn c;
        c.fd = fd;
        c.deadline = Clock::now() + kConnDeadline;
        conns.push_back(std::move(c));
      }
    }

    const auto now = Clock::now();
    for (std::size_t i = 0; i < conns.size();) {
      HttpConn& c = conns[i];
      const short revents = i + 2 < pfds.size() ? pfds[i + 2].revents : 0;
      bool close_conn = now >= c.deadline || (revents & (POLLERR | POLLHUP | POLLNVAL));
      if (!close_conn && !c.responding && (revents & POLLIN)) {
        char buf[1024];
        for (;;) {
          const ssize_t r = ::read(c.fd, buf, sizeof(buf));
          if (r > 0) {
            c.in.append(buf, static_cast<std::size_t>(r));
            if (c.in.size() > kMaxRequestBytes) {
              http_metrics().errors.add();
              close_conn = true;
              break;
            }
            continue;
          }
          if (r == 0) close_conn = true;  // EOF before a full head
          break;                          // EAGAIN or EOF
        }
        if (!close_conn && c.in.find("\r\n\r\n") != std::string::npos) {
          std::string method;
          std::string target;
          if (parse_request_line(c.in, method, target)) {
            c.out = respond(method, target);
          } else {
            http_metrics().errors.add();
            c.out = http_response(400, "Bad Request", "text/plain", "bad request\n");
          }
          http_metrics().requests.add();
          served_.fetch_add(1);
          c.responding = true;
        }
      }
      if (!close_conn && c.responding) {
        while (c.out_pos < c.out.size()) {
          const ssize_t w =
              ::write(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos);
          if (w > 0) {
            c.out_pos += static_cast<std::size_t>(w);
            continue;
          }
          if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          close_conn = true;  // peer vanished mid-response
          break;
        }
        if (c.out_pos >= c.out.size()) close_conn = true;  // exchange complete
      }
      if (close_conn) {
        ::close(c.fd);
        conns[i] = std::move(conns.back());
        conns.pop_back();
        // The pollfd snapshot no longer lines up with conns past i;
        // the swapped-in entry just waits for the next poll round.
        if (i + 2 < pfds.size()) pfds[i + 2].revents = 0;
      } else {
        ++i;
      }
    }
  }
  for (HttpConn& c : conns) ::close(c.fd);
}

}  // namespace adr::net
