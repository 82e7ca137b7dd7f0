#include "serving/http_endpoint.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/collective.h"
#include "obs/flight_recorder.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cyqr {
namespace {

/// Opens a loopback TCP connection to `port`; -1 on failure.
int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `request` to 127.0.0.1:port as is and returns the full response
/// (status line + headers + body), or "" on any socket failure. A client
/// receive timeout turns a server that never answers into a failure
/// instead of a hang. Kept deliberately independent of HttpEndpoint's own
/// parsing.
std::string Exchange(int port, const std::string& request,
                     int timeout_seconds = 10) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  timeval timeout{};
  timeout.tv_sec = timeout_seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // Connection: close — EOF ends the response.
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

/// A well-formed GET of `path`, through Exchange.
std::string HttpGet(int port, const std::string& path,
                    int timeout_seconds = 10) {
  return Exchange(port,
                  "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n",
                  timeout_seconds);
}

/// Waits (up to 10 s) until the endpoint has picked up `count`
/// connections, so idle clients are known to occupy pool threads.
bool WaitForConnections(const HttpEndpoint& endpoint, int64_t count) {
  for (int i = 0; i < 1000 && endpoint.requests_total() < count; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return endpoint.requests_total() >= count;
}

std::string StatusLine(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

std::string Body(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(HttpEndpointTest, ServesRegisteredRouteOnEphemeralPort) {
  HttpEndpoint::Options options;
  options.port = 0;
  HttpEndpoint endpoint(options);
  endpoint.AddRoute("/ping", [](const std::string&) {
    IntrospectPage page;
    page.content_type = "text/plain";
    page.body = "pong\n";
    return page;
  });
  ASSERT_TRUE(endpoint.Start().ok());
  ASSERT_GT(endpoint.port(), 0);

  const std::string response = HttpGet(endpoint.port(), "/ping");
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 200 OK");
  EXPECT_EQ(Body(response), "pong\n");
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_GE(endpoint.requests_total(), 1);
  endpoint.Stop();
}

TEST(HttpEndpointTest, UnknownPathGets404AndStopIsIdempotent) {
  HttpEndpoint::Options options;
  options.port = 0;
  HttpEndpoint endpoint(options);
  endpoint.AddRoute("/only", [](const std::string&) {
    return IntrospectPage{200, "text/plain", "ok"};
  });
  ASSERT_TRUE(endpoint.Start().ok());
  const std::string response = HttpGet(endpoint.port(), "/nope");
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 404 Not Found");
  endpoint.Stop();
  endpoint.Stop();  // Idempotent.
  // A second endpoint can bind a fresh ephemeral port after the first
  // stopped — no lingering listener state.
  HttpEndpoint second(options);
  second.AddRoute("/only", [](const std::string&) {
    return IntrospectPage{200, "text/plain", "ok"};
  });
  ASSERT_TRUE(second.Start().ok());
  EXPECT_EQ(StatusLine(HttpGet(second.port(), "/only")),
            "HTTP/1.1 200 OK");
  second.Stop();
}

TEST(HttpEndpointTest, ConcurrentScrapesAllAnswered) {
  HttpEndpoint::Options options;
  options.port = 0;
  HttpEndpoint endpoint(options);
  endpoint.AddRoute("/ping", [](const std::string&) {
    return IntrospectPage{200, "text/plain", "pong"};
  });
  ASSERT_TRUE(endpoint.Start().ok());
  constexpr int kClients = 8;
  constexpr int kGetsEach = 10;
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kGetsEach; ++i) {
        const std::string response = HttpGet(endpoint.port(), "/ping");
        // Under a scrape storm a 503 shed is a legal answer; silence or
        // garbage is not.
        const std::string line = StatusLine(response);
        if (line == "HTTP/1.1 200 OK" ||
            line == "HTTP/1.1 503 Service Unavailable") {
          // ordering: relaxed — plain tally; the join below synchronizes.
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  // ordering: relaxed — read after the join; no concurrent writers left.
  EXPECT_EQ(ok_count.load(std::memory_order_relaxed), kClients * kGetsEach);
  endpoint.Stop();
}

TEST(HttpEndpointTest, IdleClientsDoNotBlockScrapes) {
  // Two clients that connect and send nothing hold both pool threads; the
  // read timeout must free them so a real scrape is still answered.
  HttpEndpoint::Options options;
  options.port = 0;
  options.num_threads = 2;
  HttpEndpoint endpoint(options);
  endpoint.AddRoute("/metrics", [](const std::string&) {
    return IntrospectPage{200, "text/plain", "ok"};
  });
  ASSERT_TRUE(endpoint.Start().ok());
  const int idle_a = Connect(endpoint.port());
  const int idle_b = Connect(endpoint.port());
  ASSERT_GE(idle_a, 0);
  ASSERT_GE(idle_b, 0);
  ASSERT_TRUE(WaitForConnections(endpoint, 2));

  const std::string response =
      HttpGet(endpoint.port(), "/metrics", /*timeout_seconds=*/3);
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 200 OK");
  // Close the idle clients first: an endpoint with no read timeout would
  // otherwise keep Stop() waiting on them forever.
  ::close(idle_a);
  ::close(idle_b);
  endpoint.Stop();
}

TEST(HttpEndpointTest, FullQueueShedsWith503ThenRecovers) {
  // One pool thread and one queue slot: an idle client holds the thread,
  // a second fills the queue, so the accept thread must shed the next
  // connection with a 503 instead of queueing it.
  HttpEndpoint::Options options;
  options.port = 0;
  options.num_threads = 1;
  options.queue_capacity = 1;
  HttpEndpoint endpoint(options);
  endpoint.AddRoute("/metrics", [](const std::string&) {
    return IntrospectPage{200, "text/plain", "ok"};
  });
  ASSERT_TRUE(endpoint.Start().ok());
  const int holder = Connect(endpoint.port());
  ASSERT_GE(holder, 0);
  ASSERT_TRUE(WaitForConnections(endpoint, 1));
  const int queued = Connect(endpoint.port());
  ASSERT_GE(queued, 0);

  const std::string shed =
      HttpGet(endpoint.port(), "/metrics", /*timeout_seconds=*/3);
  EXPECT_EQ(StatusLine(shed), "HTTP/1.1 503 Service Unavailable");
  EXPECT_NE(Body(shed).find("overloaded"), std::string::npos) << shed;

  // Closing both clients frees the thread and the slot; once the queued
  // one was picked up, a scrape is answered again.
  ::close(holder);
  ::close(queued);
  ASSERT_TRUE(WaitForConnections(endpoint, 2));
  EXPECT_EQ(StatusLine(HttpGet(endpoint.port(), "/metrics",
                               /*timeout_seconds=*/3)),
            "HTTP/1.1 200 OK");
  endpoint.Stop();
}

/// Connects and sends a never-ending request head one byte every 900 ms,
/// just inside the endpoint's receive timeout, until the endpoint closes
/// the connection. Returns how long the connection lived, or -1 s if it
/// outlived `give_up` or failed to connect.
std::chrono::milliseconds DripUntilClosed(int port,
                                          std::chrono::milliseconds give_up) {
  const auto start = std::chrono::steady_clock::now();
  const auto lived = [start] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
  };
  const int fd = Connect(port);
  if (fd < 0) return std::chrono::milliseconds(-1000);
  const std::string head = "GET /metrics HTTP/1.1\r\nX-Drip: ";
  for (size_t i = 0; lived() < give_up; ++i) {
    const char byte = i < head.size() ? head[i] : 'x';
    (void)::send(fd, &byte, 1, MSG_NOSIGNAL);
    pollfd poll_fd{fd, POLLIN, 0};
    if (::poll(&poll_fd, 1, /*timeout=*/900) > 0) {
      // The endpoint answered and closed: read through to its EOF.
      char buf[1024];
      while (::recv(fd, buf, sizeof(buf), 0) > 0) {
      }
      const std::chrono::milliseconds result = lived();
      ::close(fd);
      return result;
    }
  }
  ::close(fd);
  return std::chrono::milliseconds(-1000);
}

TEST(HttpEndpointTest, DrippingClientsAreCutAtTheReadBudget) {
  // Two clients that drip one byte every 0.9 s never trip the receive
  // timeout and hold both pool threads; the total read budget must still
  // free them, so a scrape queued behind them is answered.
  HttpEndpoint::Options options;
  options.port = 0;
  options.num_threads = 2;
  HttpEndpoint endpoint(options);
  endpoint.AddRoute("/metrics", [](const std::string&) {
    return IntrospectPage{200, "text/plain", "ok"};
  });
  ASSERT_TRUE(endpoint.Start().ok());
  const std::chrono::milliseconds cut_by(HttpEndpoint::kReadBudgetMillis +
                                         HttpEndpoint::kReadTimeoutMillis);
  const int port = endpoint.port();
  std::future<std::chrono::milliseconds> drip_a = std::async(
      std::launch::async, DripUntilClosed, port, 4 * cut_by);
  std::future<std::chrono::milliseconds> drip_b = std::async(
      std::launch::async, DripUntilClosed, port, 4 * cut_by);
  ASSERT_TRUE(WaitForConnections(endpoint, 2));

  const std::string response =
      HttpGet(port, "/metrics", /*timeout_seconds=*/10);
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 200 OK");
  // Scheduling slack on top of the bound: the drips start a few
  // milliseconds before the endpoint's clock does.
  const std::chrono::milliseconds slack(250);
  for (std::future<std::chrono::milliseconds>* drip : {&drip_a, &drip_b}) {
    const std::chrono::milliseconds lived = drip->get();
    EXPECT_GE(lived.count(), 0) << "drip was never closed";
    EXPECT_LE(lived, cut_by + slack);
  }
  endpoint.Stop();
}

TEST(HttpEndpointTest, StopIsNotHeldByAnIdleClient) {
  HttpEndpoint::Options options;
  options.port = 0;
  HttpEndpoint endpoint(options);
  endpoint.AddRoute("/metrics", [](const std::string&) {
    return IntrospectPage{200, "text/plain", "ok"};
  });
  ASSERT_TRUE(endpoint.Start().ok());
  const int idle = Connect(endpoint.port());
  ASSERT_GE(idle, 0);
  ASSERT_TRUE(WaitForConnections(endpoint, 1));

  std::future<void> stopped =
      std::async(std::launch::async, [&endpoint] { endpoint.Stop(); });
  EXPECT_EQ(stopped.wait_for(std::chrono::seconds(3)),
            std::future_status::ready);
  ::close(idle);  // Unblocks a Stop() that is still waiting on the client.
  stopped.get();
}

/// An endpoint with one route, /metrics, that answers 200 "ok".
class HttpEndpointHeadTest : public testing::Test {
 protected:
  void SetUp() override {
    endpoint_.AddRoute("/metrics", [](const std::string&) {
      return IntrospectPage{200, "text/plain", "ok"};
    });
    ASSERT_TRUE(endpoint_.Start().ok());
  }
  void TearDown() override { endpoint_.Stop(); }

  HttpEndpoint endpoint_{HttpEndpoint::Options{}};
};

TEST_F(HttpEndpointHeadTest, RequestLineWithoutBlankLineGets400WithinTheBudget) {
  // The request line alone, then silence: the head never ends, so the
  // receive timeout must end the read with a 400, not an answer.
  const auto start = std::chrono::steady_clock::now();
  const std::string response =
      Exchange(endpoint_.port(), "GET /metrics HTTP/1.1\r\n");
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 400 Bad Request");
  // Scheduling slack on top of the budget.
  EXPECT_LE(took, std::chrono::milliseconds(HttpEndpoint::kReadBudgetMillis +
                                            250));
}

TEST_F(HttpEndpointHeadTest, HeadWithNoBlankLineInTheSizeCapGets400) {
  // Exactly kMaxHeadBytes, so the endpoint reads every byte before it
  // answers (unread bytes would turn its close into a reset).
  std::string request = "GET /metrics HTTP/1.1\r\nX-Pad: ";
  request.resize(HttpEndpoint::kMaxHeadBytes, 'x');
  EXPECT_EQ(StatusLine(Exchange(endpoint_.port(), request)),
            "HTTP/1.1 400 Bad Request");
}

TEST_F(HttpEndpointHeadTest, OnlyGetPathHttp10Or11IsAnswered) {
  EXPECT_EQ(StatusLine(Exchange(endpoint_.port(),
                                "GET /metrics HTTP/1.0\r\n\r\n")),
            "HTTP/1.1 200 OK");
  EXPECT_EQ(StatusLine(Exchange(endpoint_.port(),
                                "GET /metrics HTTP/1.1\r\n\r\n")),
            "HTTP/1.1 200 OK");
  for (const std::string line :
       {"GET /metrics HTTP/1.1 extra", "GET /metrics", "GET /metrics ",
        "GET  /metrics HTTP/1.1", "GET metrics HTTP/1.1",
        "GET /metrics HTTP/2.0", "GET /metrics http/1.1",
        "POST /metrics HTTP/1.1", "get /metrics HTTP/1.1",
        "GET /met\trics HTTP/1.1", ""}) {
    EXPECT_EQ(StatusLine(Exchange(endpoint_.port(), line + "\r\n\r\n")),
              "HTTP/1.1 400 Bad Request")
        << "request line: " << line;
  }
  // A lone LF never ends the head.
  EXPECT_EQ(StatusLine(Exchange(endpoint_.port(),
                                "GET /metrics HTTP/1.1\n\n")),
            "HTTP/1.1 400 Bad Request");
}

class IntrospectionRoutesTest : public testing::Test {
 protected:
  IntrospectionRoutesTest()
      : sampler_(/*keep_per_bucket=*/4),
        recorder_(/*events_per_thread=*/64) {
    Introspector::Options options;
    options.metrics = &registry_;
    options.traces = &sampler_;
    options.flight = &recorder_;
    options.build_info = "http_endpoint_test";
    introspector_ = std::make_unique<Introspector>(options);
  }

  MetricsRegistry registry_;
  TraceSampler sampler_;
  FlightRecorder recorder_;
  std::unique_ptr<Introspector> introspector_;
};

TEST_F(IntrospectionRoutesTest, ServesMetricsStatuszTracezFlightz) {
  registry_.GetCounter("cyqr_test_requests_total")->Increment(3);
  recorder_.Record(FlightCategory::kGeneral,
                   recorder_.InternName("general.tick"), 1, 2);

  // A real collective wired as a /statusz section: its generation() is
  // lock-guarded, so the renderer is legal on endpoint threads.
  Collective::Options collective_options;
  collective_options.world_size = 1;
  Collective collective(collective_options);
  ASSERT_TRUE(collective.Barrier().ok());
  introspector_->AddStatusSection("collective_generation", [&collective] {
    return std::to_string(collective.generation());
  });

  HttpEndpoint::Options options;
  options.port = 0;
  HttpEndpoint endpoint(options);
  RegisterIntrospectionRoutes(&endpoint, introspector_.get());
  ASSERT_TRUE(endpoint.Start().ok());

  const std::string metrics = HttpGet(endpoint.port(), "/metrics");
  EXPECT_EQ(StatusLine(metrics), "HTTP/1.1 200 OK");
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(Body(metrics).find("cyqr_test_requests_total 3"),
            std::string::npos);

  const std::string statusz = HttpGet(endpoint.port(), "/statusz");
  EXPECT_EQ(StatusLine(statusz), "HTTP/1.1 200 OK");
  const std::string statusz_body = Body(statusz);
  EXPECT_NE(statusz_body.find("http_endpoint_test"), std::string::npos);
  EXPECT_NE(statusz_body.find("collective_generation: 1"),
            std::string::npos);

  const std::string flightz = HttpGet(endpoint.port(), "/flightz");
  EXPECT_EQ(StatusLine(flightz), "HTTP/1.1 200 OK");
  EXPECT_NE(Body(flightz).find("\"name\":\"general.tick\""),
            std::string::npos);

  const std::string tracez = HttpGet(endpoint.port(), "/tracez");
  EXPECT_EQ(StatusLine(tracez), "HTTP/1.1 200 OK");

  const std::string root = HttpGet(endpoint.port(), "/");
  EXPECT_EQ(StatusLine(root), "HTTP/1.1 200 OK");
  endpoint.Stop();
}

TEST_F(IntrospectionRoutesTest, ExemplarTraceIdResolvesInTracez) {
  // One sampled trace whose id is attached to a histogram observation:
  // the /metrics exemplar annotation must join against /tracez.
  Trace trace;
  trace.Annotate("serve", "cache");
  sampler_.Sample(trace, "cache");
  Histogram* latency = registry_.GetHistogram(
      "cyqr_test_latency_millis", {1.0, 10.0, 100.0});
  latency->Observe(0.5, trace.id());

  HttpEndpoint::Options options;
  options.port = 0;
  HttpEndpoint endpoint(options);
  RegisterIntrospectionRoutes(&endpoint, introspector_.get());
  ASSERT_TRUE(endpoint.Start().ok());

  const std::string metrics_body = Body(HttpGet(endpoint.port(), "/metrics"));
  const std::string annotation = "# {trace_id=\"" + trace.IdHex() + "\"}";
  EXPECT_NE(metrics_body.find(annotation), std::string::npos)
      << "no exemplar annotation in:\n"
      << metrics_body;

  const std::string tracez_body = Body(HttpGet(endpoint.port(), "/tracez"));
  EXPECT_NE(tracez_body.find(trace.IdHex()), std::string::npos)
      << "exemplar trace id not resolvable in:\n"
      << tracez_body;
  endpoint.Stop();
}

}  // namespace
}  // namespace cyqr
