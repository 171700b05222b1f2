// The paper's inflation metrics (§3.1, Eq. 1 and Eq. 2), applied with one
// methodology to both systems (§6's direct-comparability requirement).
//
// Geographic inflation per query for recursive R and deployment j:
//   GI(R,j) = (2/c_f) * ( sum_i N(R,j_i) d(R,j_i) / N(R,j) - min_k d(R,j_k) )
// over *global* sites only. Latency inflation replaces measured distance
// with TCP-derived median RTTs and lower-bounds the optimum by the (2/3)c_f
// rule [46]:
//   LI(R,j) = sum_i N(R,j_i) l(R,j_i) / N(R,j) - best_case_rtt(min_k d).
//
// Results are CDFs of *users*: each /24's value is weighted by the Microsoft
// user count behind it (the DITL∩CDN join).
//
// Both metrics run on the shared columnar kernels (src/table/): records are
// grouped by source /24 through a stable sort, so /24s are visited in
// ascending key order and every floating-point accumulation order is a pure
// function of the input rows. Both metrics take only the columnar forms
// the world keeps (`capture::letter_table`, `cdn::server_log_table`).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "src/analysis/stats.h"
#include "src/anycast/deployment.h"
#include "src/capture/filter.h"
#include "src/cdn/cdn.h"
#include "src/cdn/telemetry.h"
#include "src/dns/root_letters.h"
#include "src/engine/thread_pool.h"
#include "src/population/population.h"
#include "src/topology/addressing.h"

namespace ac::analysis {

struct root_inflation_options {
    /// Weight /24s by Microsoft user counts (the DITL∩CDN join). When false,
    /// every /24 weighs 1 (a recursive-level rather than user-level view).
    bool weight_by_users = true;
};

struct root_inflation_result {
    /// Geographic inflation per root query, ms, per letter (Fig. 2a).
    std::map<char, weighted_cdf> geographic;
    /// System-wide per-query inflation, accounting for each recursive's
    /// spread of queries over letters (the "All Roots" line).
    weighted_cdf geographic_all_roots;
    /// Latency inflation per root query, ms (Fig. 2b; TCP-usable letters).
    std::map<char, weighted_cdf> latency;
    weighted_cdf latency_all_roots;

    /// Fraction of users with zero geographic inflation, per letter — the
    /// y-intercepts of Fig. 2a and the "efficiency" of Fig. 7a-right.
    [[nodiscard]] double efficiency(char letter) const;
};

/// One /24's inflation contribution for a single letter. Produced in
/// ascending /24 key order; only /24s that pass the paper's filters (located,
/// inside the DITL∩CDN join when weighting, nonzero global-site volume)
/// appear. Shared by the batch CDFs (compute_root_inflation) and the serve
/// layer's per-AS point queries — one implementation, no logic fork.
struct slash24_inflation {
    std::uint32_t key = 0;   // /24 key (source ip >> 8)
    double gi_ms = 0.0;      // geographic inflation per query (Eq. 1)
    double li_ms = 0.0;      // latency inflation per query (Eq. 2)
    double weight = 0.0;     // user weight behind the /24
    double vol_total = 0.0;  // global-site query volume behind gi_ms
    double lat_vol = 0.0;    // TCP-covered volume behind li_ms
    bool has_li = false;     // latency metric available for this /24
};

/// Per-/24 inflation slices for one letter's capture against its deployment.
/// `include_latency` gates the TCP RTT join (letters without usable TCP data
/// get gi only). Reductions fan out over `pool` (null = inline); output is
/// identical at any thread count.
[[nodiscard]] std::vector<slash24_inflation> letter_inflation_slices(
    const capture::letter_table& letter, const anycast::deployment& dep,
    bool include_latency, const topo::geo_database& geodb, const pop::cdn_user_counts& users,
    const root_inflation_options& options = {}, engine::thread_pool* pool = nullptr);

/// Computes Fig. 2 from columnar DITL captures. Letters are selected by
/// their data-availability flags (G/I excluded; H single-site excluded;
/// D/L excluded from the latency metric). Per-/24 reductions fan out over
/// `pool` (null = inline); output is identical at any thread count.
[[nodiscard]] root_inflation_result compute_root_inflation(
    std::span<const capture::letter_table> letters, const dns::root_system& roots,
    const topo::geo_database& geodb, const pop::cdn_user_counts& users,
    const root_inflation_options& options = {}, engine::thread_pool* pool = nullptr);

struct cdn_inflation_result {
    std::vector<weighted_cdf> geographic_by_ring;  // indexed by ring
    std::vector<weighted_cdf> latency_by_ring;

    [[nodiscard]] double efficiency(int ring) const;
};

/// Computes Fig. 5's CDN curves from columnar server-side logs. Users in a
/// <region, AS> location sit at the location's mean position (§6).
[[nodiscard]] cdn_inflation_result compute_cdn_inflation(const cdn::server_log_table& logs,
                                                         const cdn::cdn_network& cdn);

/// Zero-inflation tolerance: distances within this round-trip budget of the
/// optimum count as uninflated (sub-ms wobble is measurement noise).
inline constexpr double zero_inflation_epsilon_ms = 0.5;

} // namespace ac::analysis
