// Blocking HTTP/1.1 client over one keep-alive loopback connection, one
// request in flight (the serve workload's closed loop).
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

namespace perfbench {

class loopback_client {
public:
    explicit loopback_client(std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) throw std::runtime_error("perfbench: socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
            ::close(fd_);
            throw std::runtime_error("perfbench: connect() failed");
        }
    }
    ~loopback_client() { ::close(fd_); }
    loopback_client(const loopback_client&) = delete;
    loopback_client& operator=(const loopback_client&) = delete;

    /// One round trip. Returns the HTTP status (0 when the exchange failed);
    /// body() then views the response body until the next call.
    int get(std::string_view target) {
        request_.assign("GET ");
        request_ += target;
        request_ += " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
        if (!send_all()) return 0;

        response_.clear();
        std::size_t header_end = std::string::npos;
        while (header_end == std::string::npos) {
            if (!fill()) return 0;
            header_end = response_.find("\r\n\r\n");
        }
        body_start_ = header_end + 4;
        const auto length_at = response_.find("Content-Length: ");
        if (length_at == std::string::npos || length_at > header_end) return 0;
        body_length_ = std::strtoull(response_.c_str() + length_at + 16, nullptr, 10);
        while (response_.size() < body_start_ + body_length_) {
            if (!fill()) return 0;
        }
        if (response_.compare(0, 9, "HTTP/1.1 ") != 0) return 0;
        return std::atoi(response_.c_str() + 9);
    }

    [[nodiscard]] std::string_view body() const {
        return std::string_view{response_}.substr(body_start_, body_length_);
    }

private:
    bool send_all() {
        const char* data = request_.data();
        std::size_t left = request_.size();
        while (left > 0) {
            const ssize_t n = ::send(fd_, data, left, MSG_NOSIGNAL);
            if (n <= 0) return false;
            data += n;
            left -= static_cast<std::size_t>(n);
        }
        return true;
    }

    bool fill() {
        char chunk[16384];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n <= 0) return false;
        response_.append(chunk, static_cast<std::size_t>(n));
        return true;
    }

    int fd_ = -1;
    std::string request_;
    std::string response_;
    std::size_t body_start_ = 0;
    std::size_t body_length_ = 0;
};

} // namespace perfbench
