#ifndef CYCLEQR_SERVING_HTTP_ENDPOINT_H_
#define CYCLEQR_SERVING_HTTP_ENDPOINT_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/status.h"
#include "core/thread_annotations.h"
#include "core/thread_pool.h"
#include "obs/introspect.h"

namespace cyqr {

/// Minimal blocking HTTP/1.1 server for the live-introspection pages —
/// deliberately small: GET only, close-per-request, loopback by default.
/// It exists so an operator (or the CI smoke step) can `curl
/// localhost:PORT/metrics` against a live `cyqr_cli serve|train` process;
/// it is NOT the request-serving data path, which stays on RewriteServer.
///
/// Threading: one accept thread parks in accept(2); each accepted
/// connection is handed to a small ThreadPool whose bounded queue sheds
/// excess connections with a 503 — a scrape storm cannot pile up
/// unbounded work (the same overload discipline as the serving path).
/// Every connection reads its request head under a fixed receive timeout
/// and a fixed total budget (kReadTimeoutMillis, kReadBudgetMillis), so a
/// client that connects and sends nothing, or drips its bytes, cannot hold
/// a pool thread. Only a whole head, ending in a blank line within
/// kMaxHeadBytes, whose request line is `GET <path> HTTP/1.0` or
/// `HTTP/1.1`, is answered; anything else gets 400 Bad Request and is
/// closed.
///
/// Lifecycle: Start() binds/listens and spawns the accept thread; Stop()
/// shuts the listen socket down (unblocking accept), joins the thread,
/// and drains the pool. The destructor stops implicitly.
class HttpEndpoint {
 public:
  /// Handles one request path, returning the page to send back.
  using Handler = std::function<IntrospectPage(const std::string& path)>;

  /// Longest wait for any one receive of a request head: a client that
  /// sends nothing frees its pool thread after this long.
  static constexpr int kReadTimeoutMillis = 1000;
  /// Total time a connection may take to send its request head: a client
  /// that drips a byte just inside every receive timeout is cut here, at
  /// most one receive timeout late.
  static constexpr int kReadBudgetMillis = 2000;
  /// Longest request head read, blank line included.
  static constexpr size_t kMaxHeadBytes = 8192;

  struct Options {
    /// Port to listen on (loopback). 0 picks an ephemeral port — read it
    /// back from port() after Start(); tests and the CI smoke use this.
    int port = 0;
    int num_threads = 2;
    size_t queue_capacity = 16;
  };

  explicit HttpEndpoint(const Options& options);
  ~HttpEndpoint();
  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// Registers `handler` for an exact path. Must be called before
  /// Start(). Paths not matching any route fall through to the fallback
  /// route "" when registered, else get a built-in 404.
  void AddRoute(const std::string& path, Handler handler);

  /// Binds 127.0.0.1:port, listens, and spawns the accept thread.
  [[nodiscard]] Status Start();

  /// Unblocks accept, joins the accept thread, drains the connection
  /// pool. Idempotent.
  void Stop();

  /// The bound port (after a successful Start); 0 before.
  int port() const;

  int64_t requests_total() const {
    // ordering: relaxed — stat snapshot for reporting; a stale value is
    // acceptable.
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void HandleConnection(int fd);

  const Options options_;
  mutable std::mutex mu_;
  std::map<std::string, Handler> routes_ CYQR_GUARDED_BY(mu_);
  int listen_fd_ CYQR_GUARDED_BY(mu_) = -1;
  int bound_port_ CYQR_GUARDED_BY(mu_) = 0;
  bool started_ CYQR_GUARDED_BY(mu_) = false;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<int64_t> requests_{0};
};

/// Wires the standard introspection page set onto an endpoint: routes
/// /metrics, /statusz, /tracez, /flightz, and "/" through
/// `introspector->HandlePath`. The introspector must outlive the endpoint.
void RegisterIntrospectionRoutes(HttpEndpoint* endpoint,
                                 const Introspector* introspector);

}  // namespace cyqr

#endif  // CYCLEQR_SERVING_HTTP_ENDPOINT_H_
