// Small helpers shared by the benchmark driver: clocks, order statistics,
// process resource readings, hashing, file I/O, and the benchmark's own span
// log (the traced run's record of every public library call it makes).
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

inline double ms_since(clock_type::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

/// Median with the usual midpoint for even counts.
inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process so far, MiB (ru_maxrss is in KiB).
inline double peak_rss_mib() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;
}

/// User + system CPU seconds consumed by this process so far.
inline double process_cpu_s() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    const auto secs = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
    };
    return secs(u.ru_utime) + secs(u.ru_stime);
}

/// FNV-1a style digest over 8-byte words (then the tail bytes): cheap
/// enough to check every op's multi-megabyte output.
inline std::uint64_t digest64(std::span<const std::byte> bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, bytes.data() + i, 8);
        h = (h ^ word) * 0x100000001b3ULL;
    }
    for (; i < bytes.size(); ++i) h = (h ^ static_cast<std::uint64_t>(bytes[i])) * 0x100000001b3ULL;
    return h;
}

inline std::string read_file(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    if (!in) throw std::runtime_error("perfbench: cannot read " + path);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

/// The benchmark's own trace: one record per public library call the traced
/// run makes (name, start, end, parent record, op id), kept in memory and
/// written out when the run ends. A layer is the name's prefix before '/'.
class span_log {
public:
    struct record {
        std::string name;
        double start_us = 0.0;
        double end_us = 0.0;
        int parent = -1;  // index into records, -1 at top level
        int op = -1;      // op id the span belongs to, -1 outside ops
    };

    int open(std::string_view name) {
        record r;
        r.name = std::string{name};
        r.parent = stack_.empty() ? -1 : stack_.back();
        r.op = op_;
        r.start_us = now_us();
        records_.push_back(std::move(r));
        stack_.push_back(static_cast<int>(records_.size()) - 1);
        return stack_.back();
    }

    void close(int index) {
        records_[static_cast<std::size_t>(index)].end_us = now_us();
        if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
    }

    void set_op(int op) noexcept { op_ = op; }
    [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

    /// Self time per layer: each span's duration minus the part of it its
    /// child spans cover (children never overlap: one thread opens them).
    [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const {
        std::vector<double> child_us(records_.size(), 0.0);
        for (const auto& r : records_) {
            if (r.parent >= 0) {
                child_us[static_cast<std::size_t>(r.parent)] += r.end_us - r.start_us;
            }
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const auto& r = records_[i];
            const std::string layer = r.name.substr(0, r.name.find('/'));
            out[layer] += (r.end_us - r.start_us - child_us[i]) / 1000.0;
        }
        return out;
    }

    void write_json(std::ostream& out) const {
        out << "[\n";
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const auto& r = records_[i];
            out << "  {\"id\": " << i << ", \"name\": \"" << r.name
                << "\", \"start_us\": " << r.start_us << ", \"end_us\": " << r.end_us
                << ", \"parent\": " << r.parent << ", \"op\": " << r.op << "}"
                << (i + 1 < records_.size() ? ",\n" : "\n");
        }
        out << "]\n";
    }

private:
    static double now_us() {
        return std::chrono::duration<double, std::micro>(clock_type::now().time_since_epoch())
            .count();
    }

    std::vector<record> records_;
    std::vector<int> stack_;
    int op_ = -1;
};

/// RAII span over one public call; a null log (untraced op) records nothing.
class scoped_span {
public:
    scoped_span(span_log* log, std::string_view name) : log_(log) {
        if (log_ != nullptr) index_ = log_->open(name);
    }
    ~scoped_span() {
        if (log_ != nullptr) log_->close(index_);
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    span_log* log_;
    int index_ = -1;
};

} // namespace perfbench
