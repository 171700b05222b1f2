// Joining DITL query volumes with user populations (§2.1, §4.3, App. B).
//
// The paper's central methodological move: amortize root-DNS query volumes
// over the users each recursive serves, joining the two datasets by /24
// (DITL∩CDN). This module implements the join, the resulting
// queries-per-user-per-day CDFs (Fig. 3 / Fig. 8 / Fig. 9), the overlap
// statistics that justify the /24 aggregation (Table 4), and the
// favorite-site coherence measure of Eq. 3 (Fig. 10).
//
// All aggregation runs on the shared columnar kernels (src/table/): volumes
// are grouped by sorted key, so every result is deterministic by
// construction — iteration order is ascending key order, never hash order.
// Every function takes the columnar `capture::letter_table` form.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/analysis/stats.h"
#include "src/capture/filter.h"
#include "src/dns/query_model.h"
#include "src/engine/thread_pool.h"
#include "src/population/population.h"
#include "src/topology/addressing.h"

namespace ac::analysis {

struct amortization_options {
    /// Join DITL volumes and user counts by /24 (true; Fig. 3) or by exact
    /// resolver IP (false; Fig. 9's sensitivity analysis).
    bool join_by_slash24 = true;
};

struct amortization_result {
    /// Queries per user per day, weighted by users: the CDN line.
    weighted_cdf cdn;
    /// The APNIC line: volume accumulated by ASN, divided by the AS's
    /// estimated user population.
    weighted_cdf apnic;
    /// The Ideal line: once-per-TTL querying amortized over CDN user counts.
    weighted_cdf ideal;
    /// Fraction of DITL query volume attributable to a user population.
    double attributed_volume_fraction = 0.0;
};

/// Builds Fig. 3 (or Fig. 8 when fed unfiltered captures, or Fig. 9 with
/// join_by_slash24=false). The DITL∩CDN key sort is serial; `pool` is
/// accepted so existing callers keep compiling and is not used.
[[nodiscard]] amortization_result compute_amortization(
    std::span<const capture::letter_table> letters, const pop::user_base& base,
    const pop::cdn_user_counts& cdn_users, const pop::apnic_user_counts& apnic_users,
    const topo::ip_to_asn& as_mapper, const dns::query_model_options& model_options,
    const amortization_options& options = {}, engine::thread_pool* pool = nullptr);

/// Per-/24 daily DITL query volume summed across letters, as parallel sorted
/// columns (keys ascend, volumes aligned). This is the join input both
/// compute_amortization and the serve layer's amortized point queries start
/// from — one implementation, no logic fork.
struct slash24_volumes {
    std::vector<std::uint32_t> keys;
    std::vector<double> volumes;

    [[nodiscard]] std::size_t size() const noexcept { return keys.size(); }
};

/// The /24-keyed DITL volume aggregation.
[[nodiscard]] slash24_volumes ditl_volumes_by_slash24(
    std::span<const capture::letter_table> letters);

/// Table 4: how much of each dataset the other covers, with and without the
/// /24 aggregation.
struct overlap_stats {
    double ditl_recursives = 0.0;  // share of DITL sources with CDN user data
    double ditl_volume = 0.0;      // share of DITL query volume covered
    double cdn_recursives = 0.0;   // share of CDN-observed resolvers seen in DITL
    double cdn_volume = 0.0;       // share of CDN-observed users covered
};

struct overlap_comparison {
    overlap_stats by_ip;       // exact-address join
    overlap_stats by_slash24;  // /24 join
};

/// Both universes are sorted key columns merged in one pass.
[[nodiscard]] overlap_comparison compute_overlap(
    std::span<const capture::letter_table> letters, const pop::cdn_user_counts& cdn_users);

/// Fig. 10 / Eq. 3: for each /24 with more than one active source IP, the
/// fraction of its queries that do not reach its most popular ("favorite")
/// site. Returns one CDF of /24s per letter.
struct favorite_site_result {
    std::map<char, weighted_cdf> fraction_not_favorite;  // CDF over /24s
};

/// Per-/24 reductions fan out over `pool` (null = inline);
/// output is identical at any thread count.
[[nodiscard]] favorite_site_result compute_favorite_site(
    std::span<const capture::letter_table> captures, engine::thread_pool* pool = nullptr);

} // namespace ac::analysis
