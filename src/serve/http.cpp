#include "src/serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sys/time.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"

namespace ac::serve {

namespace detail {

/// All per-request storage, owned by the connection and reused for every
/// request on it. Buffers only grow; after warmup no handler allocates.
struct conn_arena {
    std::string request;    // raw bytes read so far
    std::string body;       // the JSON/CSV payload
    std::string response;   // status line + headers + body
    std::vector<std::uint32_t> keys;   // parsed asn=/slash24= lists
    std::vector<std::uint32_t> sites;  // parsed site= list (catchment)
};

} // namespace detail

using detail::conn_arena;

namespace {

// --- observability ---------------------------------------------------------

obs::counter& request_counter() {
    static obs::counter& c = obs::registry::global().get_counter("serve.requests");
    return c;
}
obs::counter& bad_request_counter() {
    static obs::counter& c = obs::registry::global().get_counter("serve.responses_400");
    return c;
}
obs::counter& not_found_counter() {
    static obs::counter& c = obs::registry::global().get_counter("serve.responses_404");
    return c;
}
obs::counter& connection_counter() {
    static obs::counter& c = obs::registry::global().get_counter("serve.connections");
    return c;
}
obs::histogram& request_us_histogram() {
    static constexpr double bounds[] = {1.0,    2.0,    5.0,    10.0,   20.0,
                                        50.0,   100.0,  200.0,  500.0,  1000.0,
                                        2000.0, 5000.0, 10000.0};
    static obs::histogram& h = obs::registry::global().get_histogram("serve.request_us", bounds);
    return h;
}

// --- tiny strict parsers ---------------------------------------------------

bool parse_u64(std::string_view text, std::uint64_t& out) {
    if (text.empty() || text.size() > 20) return false;
    std::uint64_t v = 0;
    for (const char ch : text) {
        if (ch < '0' || ch > '9') return false;
        const std::uint64_t digit = static_cast<std::uint64_t>(ch - '0');
        if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

bool parse_u32(std::string_view text, std::uint32_t& out) {
    std::uint64_t v = 0;
    if (!parse_u64(text, v) || v > std::numeric_limits<std::uint32_t>::max()) return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

/// "a.b.c.d" or "a.b.c.d/24" -> /24 key.
bool parse_slash24(std::string_view text, std::uint32_t& key) {
    if (text.ends_with("/24")) text.remove_suffix(3);
    const auto addr = net::ipv4_addr::parse(text);
    if (!addr) return false;
    key = addr->value() >> 8;
    return true;
}

/// Comma-separated values through `parse_one` into `out`. Empty elements and
/// trailing commas are malformed; list size is capped to keep one request
/// from ballooning a response.
template <typename Parse>
bool parse_list(std::string_view text, std::vector<std::uint32_t>& out, Parse parse_one) {
    constexpr std::size_t max_batch = 4096;
    out.clear();
    while (!text.empty()) {
        const std::size_t comma = text.find(',');
        const std::string_view element =
            comma == std::string_view::npos ? text : text.substr(0, comma);
        std::uint32_t value = 0;
        if (!parse_one(element, value) || out.size() >= max_batch) return false;
        out.push_back(value);
        if (comma == std::string_view::npos) break;
        text.remove_prefix(comma + 1);
        if (text.empty()) return false;  // trailing comma
    }
    return !out.empty();
}

/// One query parameter: present at most once, never empty.
struct param {
    std::string_view value;
    bool present = false;
};

/// Splits "k=v&k=v" against a fixed set of allowed keys. Unknown keys,
/// repeats, and empty values are malformed.
bool parse_query(std::string_view query, std::span<const std::string_view> names,
                 std::span<param> out) {
    while (!query.empty()) {
        const std::size_t amp = query.find('&');
        const std::string_view pair =
            amp == std::string_view::npos ? query : query.substr(0, amp);
        const std::size_t eq = pair.find('=');
        if (eq == std::string_view::npos || eq == 0 || eq + 1 == pair.size()) return false;
        const std::string_view key = pair.substr(0, eq);
        const std::string_view value = pair.substr(eq + 1);
        bool known = false;
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (key != names[i]) continue;
            if (out[i].present) return false;  // repeated parameter
            out[i] = {value, true};
            known = true;
            break;
        }
        if (!known) return false;
        if (amp == std::string_view::npos) break;
        query.remove_prefix(amp + 1);
    }
    return true;
}

// --- response assembly -----------------------------------------------------

void build_response(conn_arena& arena, int status, std::string_view reason,
                    std::string_view content_type, bool keep_alive) {
    arena.response.clear();
    arena.response += "HTTP/1.1 ";
    arena.response += std::to_string(status);
    arena.response += ' ';
    arena.response += reason;
    arena.response += "\r\nContent-Type: ";
    arena.response += content_type;
    arena.response += "\r\nContent-Length: ";
    arena.response += std::to_string(arena.body.size());
    arena.response += keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                                 : "\r\nConnection: close\r\n\r\n";
    arena.response += arena.body;
}

void error_body(conn_arena& arena, std::string_view message) {
    arena.body.clear();
    arena.body += "{\"error\":\"";
    arena.body += message;
    arena.body += "\"}";
}

using clock_type = std::chrono::steady_clock;

/// Limits the next blocking recv/send on `fd` (`option` is SO_RCVTIMEO or
/// SO_SNDTIMEO) to the time left before `deadline`; false once it passed.
bool arm_timeout(int fd, int option, clock_type::time_point deadline) {
    const auto left =
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - clock_type::now());
    if (left.count() <= 0) return false;
    timeval timeout{};
    timeout.tv_sec = static_cast<time_t>(left.count() / 1000000);
    timeout.tv_usec = static_cast<suseconds_t>(left.count() % 1000000);
    ::setsockopt(fd, SOL_SOCKET, option, &timeout, sizeof(timeout));
    return true;
}

/// Sends all of `data` by `deadline`, each send waiting only for the time
/// left, so a client that stops reading cannot pin the connection's thread.
/// False on a socket error or once the deadline passes.
bool write_all(int fd, std::string_view data, clock_type::time_point deadline) {
    while (!data.empty()) {
        if (!arm_timeout(fd, SO_SNDTIMEO, deadline)) return false;
        const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

} // namespace

http_server::http_server(const query_engine& engine, http_options options)
    : engine_(engine), options_(options) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 128) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error("serve: cannot bind 127.0.0.1:" +
                                 std::to_string(options_.port));
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
}

http_server::~http_server() { stop(); }

void http_server::start() {
    if (acceptor_.joinable()) return;
    acceptor_ = std::thread([this] { accept_loop(); });
}

void http_server::run() {
    start();
    acceptor_.join();
    std::unique_lock lock{mutex_};
    idle_.wait(lock, [this] { return active_ == 0; });
}

void http_server::stop() {
    if (stopping_.exchange(true)) {
        if (acceptor_.joinable()) acceptor_.join();
        return;
    }
    if (const int fd = listen_fd_.exchange(-1); fd >= 0) {
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
    {
        std::lock_guard lock{mutex_};
        for (const int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
        idle_.notify_all();  // wake an acceptor parked on the connection cap
    }
    if (acceptor_.joinable() && acceptor_.get_id() != std::this_thread::get_id()) {
        acceptor_.join();
    }
    std::unique_lock lock{mutex_};
    idle_.wait(lock, [this] { return active_ == 0; });
}

void http_server::accept_loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
        const int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) continue;
            break;  // listen socket closed by stop()
        }
        {
            std::unique_lock lock{mutex_};
            idle_.wait(lock, [this] {
                return stopping_.load(std::memory_order_relaxed) ||
                       active_ < options_.max_connections;
            });
            if (stopping_.load(std::memory_order_relaxed)) {
                ::close(fd);
                break;
            }
            ++active_;
            live_fds_.insert(fd);
        }
        connection_counter().add(1);
        // The connection thread never closes fd itself: the close happens
        // after the fd leaves live_fds_, so stop() can't shut down a
        // recycled descriptor.
        std::thread([this, fd] {
            handle_connection(fd);
            {
                std::lock_guard lock{mutex_};
                live_fds_.erase(fd);
                --active_;
                // Notify under the lock: a stop() woken by active_ == 0 can
                // destroy the server the moment it reacquires mutex_, which
                // it cannot do until this block unlocks — so the broadcast
                // never races the condition variable's destruction.
                idle_.notify_all();
            }
            ::close(fd);
        }).detach();
    }
    // Unblock a run() caller waiting on the acceptor.
    std::lock_guard lock{mutex_};
    idle_.notify_all();
}

void http_server::handle_connection(int fd) {
    constexpr std::size_t max_request_bytes = 8192;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    conn_arena arena;
    char chunk[4096];
    bool keep_alive = true;

    while (keep_alive && !stopping_.load(std::memory_order_relaxed)) {
        // Read until the end of the header block, within one deadline for
        // the whole block: each recv may wait only for the time left, so
        // neither an idle keep-alive client nor a trickling one holds its
        // thread past it. Bytes already read past the previous request are
        // the start of the next one (pipelining).
        std::size_t header_end = arena.request.find("\r\n\r\n");
        const auto deadline = clock_type::now() + options_.header_deadline;
        while (header_end == std::string::npos) {
            if (!arm_timeout(fd, SO_RCVTIMEO, deadline)) return;
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) {
                return;  // peer closed, timed out, or was shut down by stop()
            }
            arena.request.append(chunk, static_cast<std::size_t>(n));
            header_end = arena.request.find("\r\n\r\n");
            if (arena.request.size() > max_request_bytes &&
                header_end == std::string::npos) {
                error_body(arena, "request too large");
                build_response(arena, 400, "Bad Request", "application/json", false);
                write_all(fd, arena.response, clock_type::now() + options_.header_deadline);
                bad_request_counter().add(1);
                return;
            }
        }

        const auto started = clock_type::now();
        request_counter().add(1);
        const std::string_view request{arena.request};
        const std::string_view headers = request.substr(0, header_end);

        // HTTP/1.1 defaults to keep-alive; honour an explicit close.
        keep_alive = headers.find("Connection: close") == std::string_view::npos &&
                     headers.find("connection: close") == std::string_view::npos;

        // Last-resort guard: a handler that throws answers 500 and closes
        // this connection instead of terminating the detached thread (and
        // with it the whole process).
        int status = 0;
        try {
            status = handle_request(headers, arena, keep_alive);
        } catch (const std::exception& e) {
            error_body(arena, e.what());
            build_response(arena, 500, "Internal Server Error", "application/json", false);
            status = 500;
            keep_alive = false;
        }
        if (status == 400) bad_request_counter().add(1);
        if (status == 404) not_found_counter().add(1);
        const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock_type::now() - started);
        request_us_histogram().observe(static_cast<double>(elapsed.count()) / 1000.0);

        // The response gets the same budget as a header block: a client that
        // stops reading is dropped once it passes.
        if (!write_all(fd, arena.response, clock_type::now() + options_.header_deadline)) break;
        arena.request.erase(0, header_end + 4);
    }
}

int http_server::handle_request(std::string_view headers, conn_arena& arena,
                                bool keep_alive) const {
    const auto respond = [&](int status, std::string_view reason,
                             std::string_view content_type) {
        build_response(arena, status, reason, content_type, keep_alive);
        return status;
    };
    const auto bad_request = [&](std::string_view message) {
        error_body(arena, message);
        return respond(400, "Bad Request", "application/json");
    };

    // Request line: METHOD SP target SP HTTP/1.x
    const std::size_t line_end = headers.find("\r\n");
    const std::string_view line =
        line_end == std::string_view::npos ? headers : headers.substr(0, line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
        return bad_request("malformed request line");
    }
    const std::string_view method = line.substr(0, sp1);
    const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string_view version = line.substr(sp2 + 1);
    if (!version.starts_with("HTTP/1.")) return bad_request("unsupported protocol");
    if (method != "GET") {
        error_body(arena, "method not allowed");
        return respond(405, "Method Not Allowed", "application/json");
    }

    const std::size_t qmark = target.find('?');
    const std::string_view path =
        qmark == std::string_view::npos ? target : target.substr(0, qmark);
    const std::string_view query =
        qmark == std::string_view::npos ? std::string_view{} : target.substr(qmark + 1);

    if (path == "/healthz") {
        if (!query.empty()) return bad_request("healthz takes no parameters");
        arena.body.assign("ok\n");
        return respond(200, "OK", "text/plain");
    }

    if (path == "/metricsz") {
        if (!query.empty()) return bad_request("metricsz takes no parameters");
        std::ostringstream json;  // not a hot path: diagnostics only
        obs::registry::global().write_json(json);
        arena.body = json.str();
        return respond(200, "OK", "application/json");
    }

    if (path == "/inflation") {
        const std::string_view names[] = {"asn"};
        param params[1];
        if (!parse_query(query, names, params) || !params[0].present ||
            !parse_list(params[0].value, arena.keys,
                        [](std::string_view t, std::uint32_t& v) { return parse_u32(t, v); })) {
            return bad_request("inflation requires asn=<u32>[,<u32>...]");
        }
        engine_.inflation_json(arena.keys, arena.body);
        return respond(200, "OK", "application/json");
    }

    if (path == "/amortized") {
        const std::string_view names[] = {"slash24"};
        param params[1];
        if (!parse_query(query, names, params) || !params[0].present ||
            !parse_list(params[0].value, arena.keys, parse_slash24)) {
            return bad_request("amortized requires slash24=<a.b.c.0>[,...]");
        }
        engine_.amortized_json(arena.keys, arena.body);
        return respond(200, "OK", "application/json");
    }

    if (path == "/catchment") {
        const std::string_view names[] = {"letter", "site"};
        param params[2];
        if (!parse_query(query, names, params) || !params[0].present ||
            params[0].value.size() != 1) {
            return bad_request("catchment requires letter=<K>[&site=<u32>,...]");
        }
        arena.sites.clear();
        if (params[1].present &&
            !parse_list(params[1].value, arena.sites,
                        [](std::string_view t, std::uint32_t& v) { return parse_u32(t, v); })) {
            return bad_request("catchment site list is malformed");
        }
        if (!engine_.catchment_json(params[0].value[0], arena.sites, arena.body)) {
            return bad_request("unknown letter or site id");
        }
        return respond(200, "OK", "application/json");
    }

    if (path == "/route") {
        const std::string_view names[] = {"letter", "asn", "region"};
        param params[3];
        std::uint32_t asn = 0;
        std::uint64_t region = 0;
        if (!parse_query(query, names, params) || !params[0].present ||
            params[0].value.size() != 1 || !params[1].present ||
            !parse_u32(params[1].value, asn) || !params[2].present ||
            !parse_u64(params[2].value, region) ||
            region > std::numeric_limits<topo::region_id>::max()) {
            return bad_request("route requires letter=<K>&asn=<u32>&region=<id>");
        }
        if (!engine_.route_json(params[0].value[0], asn,
                                static_cast<topo::region_id>(region), arena.body)) {
            return bad_request("unknown letter");
        }
        return respond(200, "OK", "application/json");
    }

    if (path == "/grid") {
        const std::string_view names[] = {"stride"};
        param params[1];
        std::uint64_t stride = 1;
        if (!parse_query(query, names, params) ||
            (params[0].present && (!parse_u64(params[0].value, stride) || stride == 0))) {
            return bad_request("grid takes stride=<u64 >= 1>");
        }
        engine_.grid_csv(static_cast<std::size_t>(stride), arena.body);
        return respond(200, "OK", "text/csv");
    }

    error_body(arena, "unknown path");
    return respond(404, "Not Found", "application/json");
}

} // namespace ac::serve
