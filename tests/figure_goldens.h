// The small world's figure files, pinned by FNV-1a checksum: report_test
// holds a live build to them and snapshot_test a hydrated snapshot.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace ac::test {

inline std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/// One checksum per file `core::write_figure_csvs` writes. The Fig. 2, 3,
/// 5, 6a and 7 files were captured from the row-oriented pipeline before
/// the columnar refactor, and every later refactor (shared table kernels,
/// the routing fast path) kept them. A deliberate analysis change must
/// update them.
inline const std::map<std::string, std::uint64_t>& figure_goldens() {
    static const std::map<std::string, std::uint64_t> golden{
        {"fig02a_root_geographic_inflation.csv", 0xf89b2711a8752802ull},
        {"fig02b_root_latency_inflation.csv", 0x6a9c3423ad802dbdull},
        {"fig03_queries_per_user.csv", 0x3ece8f7160e524bcull},
        {"fig04a_probe_ring_latency.csv", 0xc665f75a814c5fbfull},
        {"fig04b_ring_step_delta.csv", 0xf4a948f4e2469266ull},
        {"fig05a_cdn_geographic_inflation.csv", 0x5d7265254d591962ull},
        {"fig05b_cdn_latency_inflation.csv", 0xf9188357f8e7a56full},
        {"fig06a_as_path_lengths.csv", 0xe720d1e81e60ee21ull},
        {"fig06b_inflation_by_path_length.csv", 0xe755a247fb1f31aaull},
        {"fig07a_size_latency_efficiency.csv", 0xdc045b25c74e6a2bull},
        {"fig07b_coverage.csv", 0x8131c0bca505e0dcull},
        {"fig08_queries_per_user_unfiltered.csv", 0x8c5bde86c490f13aull},
        {"fig09_queries_per_user_by_ip.csv", 0x992e98544d065487ull},
        {"fig10_favorite_site.csv", 0x544dd1f1a9ca3729ull},
        {"headline_numbers.csv", 0x048946ee9c121aeaull},
    };
    return golden;
}

} // namespace ac::test
