#include "serving/http_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "core/check.h"

namespace cyqr {

namespace {

/// Reads the request head from `fd`: every byte through the blank line that
/// ends it (CRLFCRLF). Returns "" when no whole head arrives within
/// kMaxHeadBytes and the total read budget, which is checked between
/// receives, or before a receive times out or the client closes. The pages
/// are GET-only, so bytes after the head are ignored.
std::string ReadRequestHead(int fd) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(HttpEndpoint::kReadBudgetMillis);
  std::string data;
  char buf[1024];
  for (;;) {
    const size_t end = data.find("\r\n\r\n");
    if (end != std::string::npos) return data.substr(0, end + 4);
    const size_t room = HttpEndpoint::kMaxHeadBytes - data.size();
    if (room == 0 || std::chrono::steady_clock::now() >= deadline) return "";
    const ssize_t n = ::recv(fd, buf, std::min(sizeof(buf), room), 0);
    if (n <= 0) return "";
    data.append(buf, static_cast<size_t>(n));
  }
}

/// "GET /metrics HTTP/1.1\r\n..." -> "/metrics". The request line must be
/// exactly `GET <path> HTTP/1.0` or `GET <path> HTTP/1.1`, with a path that
/// starts with '/' and holds no space or control byte; any other head
/// (including "") gives "".
std::string ParseGetPath(const std::string& head) {
  const size_t line_end = head.find("\r\n");
  if (line_end == std::string::npos || head.rfind("GET /", 0) != 0) {
    return "";
  }
  const size_t path_begin = 4;
  const size_t path_end = head.find(' ', path_begin);
  if (path_end == std::string::npos || path_end > line_end) return "";
  const std::string version =
      head.substr(path_end + 1, line_end - path_end - 1);
  if (version != "HTTP/1.0" && version != "HTTP/1.1") return "";
  const std::string path = head.substr(path_begin, path_end - path_begin);
  for (const char ch : path) {
    if (static_cast<unsigned char>(ch) < 0x21 || ch == 0x7f) return "";
  }
  return path;
}

void SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
}

void SendPage(int fd, const IntrospectPage& page) {
  const char* reason = page.status_code == 200   ? "OK"
                       : page.status_code == 400 ? "Bad Request"
                       : page.status_code == 404 ? "Not Found"
                       : page.status_code == 503 ? "Service Unavailable"
                                                 : "Error";
  std::string response = "HTTP/1.1 " + std::to_string(page.status_code) +
                         " " + reason + "\r\n";
  response += "Content-Type: " +
              (page.content_type.empty() ? std::string("text/plain")
                                         : page.content_type) +
              "\r\n";
  response += "Content-Length: " + std::to_string(page.body.size()) + "\r\n";
  response += "Connection: close\r\n\r\n";
  response += page.body;
  SendAll(fd, response);
}

}  // namespace

HttpEndpoint::HttpEndpoint(const Options& options) : options_(options) {}

HttpEndpoint::~HttpEndpoint() { Stop(); }

void HttpEndpoint::AddRoute(const std::string& path, Handler handler) {
  CYQR_CHECK(handler != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  CYQR_CHECK_MSG(!started_, "AddRoute must precede Start()");
  routes_[path] = std::move(handler);
}

Status HttpEndpoint::Start() {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::FailedPrecondition("already started");
    started_ = true;
  }
  fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("bind(127.0.0.1:" +
                           std::to_string(options_.port) + ") failed");
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::IoError("listen() failed");
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return Status::IoError("getsockname() failed");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    listen_fd_ = fd;
    bound_port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  ThreadPool::Options pool_options;
  pool_options.num_threads = options_.num_threads;
  pool_options.queue_capacity = options_.queue_capacity;
  pool_options.shed_policy = ShedPolicy::kRejectNewest;
  pool_ = std::make_unique<ThreadPool>(pool_options);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpEndpoint::Stop() {
  // ordering: acq_rel — one stopper wins; the accept loop's relaxed reads
  // see the flag via the shutdown-induced accept failure.
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fd = listen_fd_;
    listen_fd_ = -1;
  }
  if (fd >= 0) {
    // shutdown() unblocks the accept(2) the accept thread is parked in;
    // close alone would not on all platforms.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (pool_ != nullptr) pool_->Drain();
}

int HttpEndpoint::port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bound_port_;
}

void HttpEndpoint::AcceptLoop() {
  for (;;) {
    int listen_fd = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      listen_fd = listen_fd_;
    }
    if (listen_fd < 0) return;  // Stop() already closed it.
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      // ordering: relaxed — the flag only confirms why accept failed.
      if (stopping_.load(std::memory_order_relaxed)) return;
      continue;  // Transient (EINTR, aborted connection): keep accepting.
    }
    timeval read_timeout{};
    read_timeout.tv_sec = kReadTimeoutMillis / 1000;
    read_timeout.tv_usec = kReadTimeoutMillis % 1000 * 1000;
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &read_timeout,
                 sizeof(read_timeout));
    ThreadPool::Job job;
    job.run = [this, conn] { HandleConnection(conn); };
    // Shed: the scrape storm case — answer 503 on the accept thread and
    // move on; the bounded pool queue never grows past its capacity.
    job.shed = [conn] {
      IntrospectPage page;
      page.status_code = 503;
      page.content_type = "text/plain";
      page.body = "introspection endpoint overloaded\n";
      SendPage(conn, page);
      ::close(conn);
    };
    (void)pool_->Submit(std::move(job));  // Refusal already ran the shed hook.
  }
}

void HttpEndpoint::HandleConnection(int fd) {
  // ordering: relaxed — observability counter/snapshot; no other memory is
  // published or consumed through it.
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::string path = ParseGetPath(ReadRequestHead(fd));
  IntrospectPage page;
  if (path.empty()) {
    page.status_code = 400;
    page.content_type = "text/plain";
    page.body = "expected a whole GET request head\n";
  } else {
    Handler handler;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const size_t query = path.find('?');
      const std::string clean =
          query == std::string::npos ? path : path.substr(0, query);
      auto it = routes_.find(clean);
      if (it == routes_.end()) it = routes_.find("");  // Fallback route.
      if (it != routes_.end()) handler = it->second;
    }
    if (handler != nullptr) {
      page = handler(path);
    } else {
      page.status_code = 404;
      page.content_type = "text/plain";
      page.body = "no route for " + path + "\n";
    }
  }
  SendPage(fd, page);
  ::close(fd);
}

void RegisterIntrospectionRoutes(HttpEndpoint* endpoint,
                                 const Introspector* introspector) {
  CYQR_CHECK(endpoint != nullptr);
  CYQR_CHECK(introspector != nullptr);
  // One fallback route: the introspector already knows its page set and
  // renders the 404 for unknown paths, keeping the endpoint generic.
  endpoint->AddRoute("", [introspector](const std::string& path) {
    return introspector->HandlePath(path);
  });
}

}  // namespace cyqr
