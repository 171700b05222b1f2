// The latency-vs-load frontier: the headline figure of the load subsystem.
//
// Sweeps demand from light to saturating and, at each level, assigns every
// time bucket's offered connections under both policies (latency-only vs
// load-aware, src/load/policy.h). Each point reports user-experienced
// latency (p50/p95 over served connections, weighted by connection count)
// and the overload fraction — for latency-only, the fraction of connections
// served by a front-end past its capacity; for load-aware, the fraction no
// front-end could take at all. The crossover is the figure: load-aware pays
// a small latency premium (overflow rides inner rings) to keep overload
// near zero until the fleet is truly saturated.
//
// NOTE: this header belongs to the analysis layer but the implementation is
// compiled into `ac_load` (src/load/CMakeLists.txt): it depends on the load
// subsystem, and ac_scenario already links ac_analysis, so linking ac_load
// from ac_analysis would cycle.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "src/cdn/cdn.h"
#include "src/engine/thread_pool.h"
#include "src/load/capacity.h"
#include "src/load/demand.h"
#include "src/load/policy.h"
#include "src/population/population.h"
#include "src/scenario/event.h"

namespace ac::analysis {

struct load_frontier_options {
    load::capacity_plan capacity;
    load::demand_plan demand;
    /// Demand sweep, percent of nominal. The default spans comfortable
    /// (25%) to 4x-saturated (400%) around the 1.3x-provisioned fleet.
    std::vector<int> levels{25, 50, 100, 200, 400};
    bool run_latency_only = true;
    bool run_load_aware = true;
};

/// One (policy, demand level, bucket) cell of the frontier.
struct load_frontier_point {
    load::policy_kind policy = load::policy_kind::latency_only;
    int level_pct = 100;
    int bucket = 0;
    std::int64_t offered_conn = 0;
    std::int64_t served_first_conn = 0;
    std::int64_t shed_conn = 0;
    std::int64_t unserved_conn = 0;
    std::int64_t overflow_hop_conn = 0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double overload_fraction = 0.0;
    double shed_fraction = 0.0;
    double mean_overflow_hops = 0.0;
};

struct load_frontier_result {
    std::vector<load_frontier_point> points;  // policy-major, then level, bucket
    int buckets = 0;
    std::size_t locations = 0;
    std::size_t reachable_locations = 0;
    std::int64_t nominal_conn = 0;         // fleet demand at level 100
    std::int64_t total_capacity_conn = 0;  // provisioned fleet capacity
    std::vector<std::int64_t> capacity_conn;  // per front-end
    /// Connections served per front-end at the reference point (load-aware
    /// at 100% if run, else latency-only), via the table group-by kernels.
    std::vector<double> fe_served_conn;
};

/// Served-latency quantiles of one frontier point (0 when nothing is kept).
struct rtt_quantiles {
    double p50_ms = 0.0;
    double p95_ms = 0.0;
};

/// Largest per-point connection total for which every partial sum is an
/// exactly representable double (2^53).
inline constexpr std::int64_t max_exact_conn = std::int64_t{1} << 53;

/// p50/p95 of cell RTTs weighted by integer connection counts `kept`, in one
/// pass over `order` (cells ascending by RTT, ties in any order; as
/// route_plan::rtt_order()). Bit-identical to a weighted_cdf over the kept
/// cells. Throws std::overflow_error when the kept total exceeds
/// `max_exact_conn`, where that equality would no longer be guaranteed.
[[nodiscard]] rtt_quantiles kept_rtt_quantiles(std::span<const std::uint32_t> order,
                                               std::span<const double> cell_rtt_ms,
                                               std::span<const std::int64_t> kept);

[[nodiscard]] load_frontier_result compute_load_frontier(
    const cdn::cdn_network& cdn, const pop::user_base& base, const scenario::timeline& tl,
    const load_frontier_options& options, engine::thread_pool* pool = nullptr);

/// Writes the frontier CSV. With `only` set, rows are filtered to that
/// policy and the `policy` column is omitted entirely — so two single-policy
/// runs that agree numerically produce byte-identical files (the
/// infinite-capacity acceptance check compares them with cmp).
void write_load_frontier_csv(std::ostream& out, const load_frontier_result& result,
                             std::optional<load::policy_kind> only = std::nullopt);

} // namespace ac::analysis
