// CDN proximity and latency views: Fig. 1's user proximity to front-ends,
// Fig. 4's probe latency per ring and latency change per ring step, and
// Fig. 14's per-continent rollup of latency to the largest ring.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/analysis/stats.h"
#include "src/atlas/atlas.h"
#include "src/cdn/cdn.h"
#include "src/cdn/telemetry.h"
#include "src/population/population.h"
#include "src/topology/region.h"

namespace ac::analysis {

/// Arrays indexed by `topo::continent`.
inline constexpr std::size_t continent_count =
    static_cast<std::size_t>(topo::continent::antarctica) + 1;

/// Fig. 1: front-ends are deployed where users are.
struct user_proximity {
    /// Front-ends of the largest ring per continent.
    std::array<int, continent_count> front_ends_by_continent{};
    /// Per ring: share of users whose nearest front-end is within 500 km
    /// and within 1000 km.
    std::vector<double> within_500km;
    std::vector<double> within_1000km;
};

[[nodiscard]] user_proximity compute_user_proximity(const cdn::cdn_network& cdn,
                                                    const pop::user_base& base,
                                                    const topo::region_table& regions);

/// Fig. 4a: per ring, the CDF over `probes` probes sampled from the fleet
/// of the per-RTT latency (minimum of three pings); unreachable probes are
/// left out.
[[nodiscard]] std::vector<weighted_cdf> probe_ring_latency(const atlas::probe_fleet& fleet,
                                                           const cdn::cdn_network& cdn,
                                                           int probes, std::uint64_t seed);

/// Fig. 4b: per ring step r -> r+1 (index r), the CDF over <region, AS>
/// locations that measured both rings of the per-RTT latency change,
/// smaller ring minus larger ring: positive when the larger ring is faster.
/// Client-side rows hold the population fixed across rings; a fetch is
/// `fetch_rtt_multiple` RTTs.
[[nodiscard]] std::vector<weighted_cdf> ring_step_delta(
    std::span<const cdn::client_measurement_row> rows, int ring_count,
    double fetch_rtt_multiple);

/// Fig. 14: server-side median RTTs to the largest ring, weighted by users.
struct latency_map {
    /// Per continent: RTT relative to the slowest location's.
    std::array<weighted_cdf, continent_count> relative_by_continent;
    weighted_cdf near_users;  // ms; nearest front-end < 500 km away
    weighted_cdf far_users;   // ms; nearest front-end > 2000 km away
};

[[nodiscard]] latency_map compute_latency_map(const cdn::server_log_table& logs,
                                              const cdn::cdn_network& cdn,
                                              const topo::region_table& regions);

} // namespace ac::analysis
