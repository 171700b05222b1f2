// Minimal HTTP/1.1 front end for the query engine (DESIGN §13).
//
// Deliberately small: blocking POSIX sockets, thread-per-connection,
// GET-only, keep-alive. Each connection owns a request-scoped arena — four
// grow-only buffers (request, response, body, key scratch) reused across
// every request on the connection, so after the first few requests the hot
// path performs zero heap allocations end to end: parse in place, probe the
// sealed indexes, append the answer into the reused body buffer.
//
// Endpoints (all GET):
//   /healthz                         liveness probe
//   /metricsz                        obs registry snapshot (ac-metrics-v1)
//   /inflation?asn=A[,A...]          per-AS inflation points (batched)
//   /amortized?slash24=a.b.c.0[,..]  per-/24 amortization points (batched)
//   /catchment?letter=K[&site=S,..]  per-site catchment shares
//   /route?letter=K&asn=A&region=R   one selection (wait-free when sealed)
//   /grid?stride=N                   differential CSV (== `acctx serve --grid`)
//
// Malformed requests (bad numbers, unknown params, missing required params,
// oversized lines) get 400; unknown paths 404; non-GET 405. Errors never
// throw across the connection loop — a connection that misbehaves is
// answered and, for protocol-level garbage, closed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <string_view>
#include <thread>

#include "src/serve/query_engine.h"

namespace ac::serve {

namespace detail {
struct conn_arena;  // the per-connection request-scoped buffers (http.cpp)
}

struct http_options {
    std::uint16_t port = 0;    // 0 = kernel-assigned ephemeral port
    int max_connections = 64;  // concurrent connection cap (excess queue in listen backlog)
    /// Whole-request budget for reading one header block, idle keep-alive
    /// wait included, and again for writing one response: a client that
    /// trickles bytes, or stops reading, is dropped once it passes.
    std::chrono::milliseconds header_deadline{10000};
};

class http_server {
public:
    /// Binds and listens on 127.0.0.1 immediately (so `port()` is valid
    /// before `start()`); throws std::runtime_error when the bind fails.
    http_server(const query_engine& engine, http_options options);
    ~http_server();

    http_server(const http_server&) = delete;
    http_server& operator=(const http_server&) = delete;

    /// The bound port (the kernel's choice when options.port was 0).
    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

    /// Spawns the acceptor; returns immediately.
    void start();
    /// start() + block until stop() is called from another thread (or the
    /// process is signalled). The CLI's serving mode.
    void run();
    /// Stops accepting, shuts down live connections, joins all threads.
    /// Idempotent.
    void stop();

private:
    void accept_loop();
    void handle_connection(int fd);
    /// Parses one request's header block and fills arena.response; returns
    /// the HTTP status. Pure request handling — no socket I/O.
    int handle_request(std::string_view headers, detail::conn_arena& arena,
                       bool keep_alive) const;

    const query_engine& engine_;
    http_options options_;
    /// Atomic: stop() closes and clears the fd while the acceptor thread is
    /// still reading it for accept() (the close is what unblocks accept).
    std::atomic<int> listen_fd_{-1};
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::thread acceptor_;

    std::mutex mutex_;
    std::condition_variable idle_;
    std::set<int> live_fds_;  // open connection sockets, for shutdown on stop()
    int active_ = 0;          // live connection threads
};

} // namespace ac::serve
