// Blocking loopback HTTP client for the serving-layer tests (serve_test and
// the request-parser cases of fuzz_test).
#pragma once

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace ac::testing_support {

/// Minimal blocking loopback client: one connection, sequential requests.
class test_client {
public:
    /// A positive `rcvbuf` shrinks the receive buffer before connecting,
    /// which caps the window the server may fill.
    explicit test_client(std::uint16_t port, int rcvbuf = 0) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ >= 0 && rcvbuf > 0) {
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        connected_ =
            fd_ >= 0 &&
            ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
    }
    ~test_client() {
        if (fd_ >= 0) ::close(fd_);
    }
    test_client(const test_client&) = delete;
    test_client& operator=(const test_client&) = delete;

    [[nodiscard]] bool connected() const { return connected_; }

    /// Sends `raw` verbatim and returns everything up to the end of the
    /// response body (headers + body), or "" on socket failure.
    std::string round_trip(const std::string& raw) {
        if (::send(fd_, raw.data(), raw.size(), 0) != static_cast<ssize_t>(raw.size())) {
            return {};
        }
        std::string response;
        std::size_t header_end = std::string::npos;
        while (header_end == std::string::npos) {
            if (!fill(response)) return {};
            header_end = response.find("\r\n\r\n");
        }
        const std::size_t body_start = header_end + 4;
        const std::size_t length = content_length(response);
        while (response.size() < body_start + length) {
            if (!fill(response)) return {};
        }
        return response.substr(0, body_start + length);
    }

    std::string get(const std::string& target) {
        return round_trip("GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
    }

    /// Bounds each later recv, so a test fails instead of hanging.
    void set_recv_timeout(std::chrono::milliseconds wait) {
        timeval timeout{};
        timeout.tv_sec = static_cast<time_t>(wait.count() / 1000);
        timeout.tv_usec = static_cast<suseconds_t>((wait.count() % 1000) * 1000);
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    }

    /// Sends `raw` verbatim; false on socket failure.
    bool send_raw(const std::string& raw) {
        return ::send(fd_, raw.data(), raw.size(), MSG_NOSIGNAL) ==
               static_cast<ssize_t>(raw.size());
    }

    /// Everything the server sends until it closes the connection.
    std::string read_to_end() {
        std::string out;
        while (fill(out)) {
        }
        return out;
    }

    /// Shuts down the sending side: the server reads end-of-stream after
    /// whatever was sent, while responses can still arrive.
    void half_close() { ::shutdown(fd_, SHUT_WR); }

    /// Sends one byte; false once the server has reset the connection.
    bool send_byte(char byte) { return ::send(fd_, &byte, 1, MSG_NOSIGNAL) == 1; }

    /// Waits up to `wait` for the server to close the connection.
    bool closed_within(std::chrono::milliseconds wait) {
        pollfd p{fd_, POLLIN, 0};
        if (::poll(&p, 1, static_cast<int>(wait.count())) <= 0) return false;
        char byte = 0;
        return ::recv(fd_, &byte, 1, MSG_DONTWAIT) <= 0;
    }

    static int status_of(const std::string& response) {
        // "HTTP/1.1 NNN ..."
        if (response.size() < 12) return -1;
        return std::atoi(response.c_str() + 9);
    }

    static std::string body_of(const std::string& response) {
        const auto pos = response.find("\r\n\r\n");
        return pos == std::string::npos ? std::string{} : response.substr(pos + 4);
    }

private:
    bool fill(std::string& response) {
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0) return false;
        response.append(chunk, static_cast<std::size_t>(n));
        return true;
    }

    static std::size_t content_length(const std::string& response) {
        const auto pos = response.find("Content-Length: ");
        if (pos == std::string::npos) return 0;
        return static_cast<std::size_t>(
            std::strtoull(response.c_str() + pos + 16, nullptr, 10));
    }

    int fd_ = -1;
    bool connected_ = false;
};

} // namespace ac::testing_support
