// Site-failure (DDoS / withdrawal) studies.
//
// Table 1's top reason for root growth is DDoS resilience: capacity and
// catchment behaviour when sites go dark. This module rebuilds a
// deployment's routing state with a subset of sites withdrawn (a BGP
// withdrawal is exactly "the announcement disappears") and measures how
// catchments shift: how much traffic moves, where it lands, and what the
// latency penalty is — the resilience dimension the paper discusses but
// does not measure (§7.3, [58]).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/anycast/deployment.h"
#include "src/population/population.h"

namespace ac::anycast {

/// The routing state of `dep` with `failed_sites` withdrawn. Sites keep
/// their original ids; withdrawn sites simply stop announcing.
class degraded_deployment {
public:
    degraded_deployment(const deployment& dep, std::span<const route::site_id> failed_sites,
                        const topo::as_graph& graph);

    /// Selection against the surviving announcement set.
    [[nodiscard]] std::optional<route::path_result> select(topo::asn_t asn,
                                                           topo::region_id region) const;

private:
    std::vector<route::site_id> site_map_;  // degraded id -> original id
    std::unique_ptr<route::anycast_rib> rib_;  // null when no site survives
};

/// Outcome of failing a set of sites under a fixed user population.
struct failover_report {
    int failed_sites = 0;
    double affected_user_share = 0.0;    // users whose site changed
    double stranded_user_share = 0.0;    // users with no route afterwards
    double median_rtt_before_ms = 0.0;   // over affected users
    double median_rtt_after_ms = 0.0;    // over affected users
    /// Load concentration: largest share of *moved* users absorbed by a
    /// single surviving site (the DDoS-cascade risk metric).
    double max_absorbed_share = 0.0;
};

/// Fails `failed_sites` of `dep` and measures the shift over the user base.
[[nodiscard]] failover_report run_failover_study(const deployment& dep,
                                                 std::span<const route::site_id> failed_sites,
                                                 const pop::user_base& users,
                                                 const topo::as_graph& graph);

} // namespace ac::anycast
