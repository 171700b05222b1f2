#include "src/analysis/load_frontier.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <string>

#include "src/load/gauges.h"
#include "src/netbase/strfmt.h"
#include "src/obs/trace.h"
#include "src/table/table.h"

namespace ac::analysis {

namespace {

load_frontier_point make_point(const load::route_plan& plan, const load::bucket_result& r,
                               load::policy_kind policy, int level, int bucket) {
    load_frontier_point p;
    p.policy = policy;
    p.level_pct = level;
    p.bucket = bucket;
    p.offered_conn = r.offered;
    p.served_first_conn = r.served_first;
    p.shed_conn = r.shed;
    p.unserved_conn = r.unserved;
    p.overflow_hop_conn = r.overflow_hop_conn;

    // Latency of what was actually served: every kept (location, ring) cell
    // weighs its RTT by its connections. Latency-only keeps everything on
    // the outermost ring (overloaded front-ends still serve, just badly —
    // that shows up in overload_fraction, not here); load-aware's unserved
    // residue is excluded because those users got nothing.
    const auto q = kept_rtt_quantiles(plan.rtt_order(), plan.cell_rtt_ms(), r.kept);
    p.p50_ms = q.p50_ms;
    p.p95_ms = q.p95_ms;
    if (r.offered > 0) {
        p.overload_fraction = static_cast<double>(r.unserved) / static_cast<double>(r.offered);
        p.shed_fraction = static_cast<double>(r.shed) / static_cast<double>(r.offered);
    }
    if (r.shed > 0) {
        p.mean_overflow_hops =
            static_cast<double>(r.overflow_hop_conn) / static_cast<double>(r.shed);
    }
    return p;
}

/// Per-front-end served totals through the table kernels: group every kept
/// (location, ring) cell by its front-end and sum connections.
std::vector<double> served_by_front_end(const load::route_plan& plan,
                                        const load::bucket_result& r) {
    std::vector<std::uint32_t> keys;
    std::vector<double> conn;
    const auto rings = static_cast<std::size_t>(plan.rings());
    for (std::size_t l = 0; l < plan.locations(); ++l) {
        for (std::size_t ring = 0; ring < rings; ++ring) {
            const std::int64_t kept = r.kept[l * rings + ring];
            if (kept > 0) {
                keys.push_back(
                    static_cast<std::uint32_t>(plan.front_end(l, static_cast<int>(ring))));
                conn.push_back(static_cast<double>(kept));
            }
        }
    }
    const auto grouping = table::make_grouping(std::span<const std::uint32_t>{keys});
    const auto totals = table::sum_by(grouping, std::span<const double>{conn});
    std::vector<double> served(static_cast<std::size_t>(plan.front_ends()), 0.0);
    for (std::size_t g = 0; g < grouping.groups(); ++g) {
        served[grouping.keys[g]] = totals[g];
    }
    return served;
}

} // namespace

rtt_quantiles kept_rtt_quantiles(std::span<const std::uint32_t> order,
                                std::span<const double> cell_rtt_ms,
                                std::span<const std::int64_t> kept) {
    // weighted_cdf sorts (RTT, weight) pairs and returns the first RTT whose
    // running weight sum reaches q x total. With integer weights and a total
    // of at most 2^53 every running sum is exact, so the sum at the end of
    // each equal-RTT group does not depend on the order inside the group,
    // and the crossing lands in the same group whatever that order is.
    std::int64_t total = 0;
    for (const std::uint32_t cell : order) {
        if (kept[cell] > 0) total += kept[cell];
    }
    if (total > max_exact_conn) {
        throw std::overflow_error("load_frontier: " + std::to_string(total) +
                                  " connections in one point exceed 2^53");
    }
    rtt_quantiles q;
    if (total == 0) return q;
    const double p50_target = 0.5 * static_cast<double>(total);
    const double p95_target = 0.95 * static_cast<double>(total);
    std::int64_t cumulative = 0;
    bool have_p50 = false;
    for (const std::uint32_t cell : order) {
        if (kept[cell] <= 0) continue;
        cumulative += kept[cell];
        q.p95_ms = cell_rtt_ms[cell];  // stays at the last kept cell if never reached
        if (!have_p50 && static_cast<double>(cumulative) >= p50_target) {
            q.p50_ms = q.p95_ms;
            have_p50 = true;
        }
        if (static_cast<double>(cumulative) >= p95_target) break;
    }
    return q;
}

load_frontier_result compute_load_frontier(const cdn::cdn_network& cdn,
                                           const pop::user_base& base,
                                           const scenario::timeline& tl,
                                           const load_frontier_options& options,
                                           engine::thread_pool* pool) {
    if (options.levels.empty()) {
        throw std::invalid_argument("load_frontier: no demand levels");
    }
    obs::span frontier_span{"load/frontier"};

    const load::demand_series demand{base, tl, options.demand,
                                     static_cast<topo::region_id>(cdn.regions().size())};
    const load::route_plan plan{cdn, base, pool};
    const load::capacity_model capacity{cdn, demand.nominal_total(), options.capacity};

    load_frontier_result out;
    out.buckets = demand.buckets();
    out.locations = plan.locations();
    out.reachable_locations = plan.reachable_locations();
    out.nominal_conn = demand.nominal_total();
    out.total_capacity_conn = capacity.total();
    out.capacity_conn.assign(capacity.per_front_end().begin(), capacity.per_front_end().end());

    // One job per (level, bucket): it builds that bucket's offered vector
    // once, assigns it under each enabled policy, and writes each point to
    // its own slot of the policy-major output. Jobs share only immutable
    // inputs, so the points are the same bytes at any thread count.
    std::vector<load::policy_kind> kinds;
    if (options.run_latency_only) kinds.push_back(load::policy_kind::latency_only);
    if (options.run_load_aware) kinds.push_back(load::policy_kind::load_aware);
    const auto buckets = static_cast<std::size_t>(demand.buckets());
    const std::size_t per_policy = options.levels.size() * buckets;

    // Reference cell for the per-front-end serving profile: the load-aware
    // policy (else latency-only) at bucket 0 of the first 100% level (else
    // of the first level).
    const load::policy_kind ref_policy = options.run_load_aware
                                             ? load::policy_kind::load_aware
                                             : load::policy_kind::latency_only;
    const auto nominal = std::find(options.levels.begin(), options.levels.end(), 100);
    const std::size_t ref_job =
        nominal == options.levels.end()
            ? 0
            : static_cast<std::size_t>(nominal - options.levels.begin()) * buckets;

    out.points.resize(kinds.size() * per_policy);
    engine::parallel_over(
        pool, per_policy,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t job = begin; job < end; ++job) {
                const int level = options.levels[job / buckets];
                const auto t = static_cast<int>(job % buckets);
                const auto offered = demand.offered_bucket(t, level);
                for (std::size_t k = 0; k < kinds.size(); ++k) {
                    const auto r =
                        load::assign_bucket(plan, offered, capacity.per_front_end(), kinds[k]);
                    if (kinds[k] == ref_policy && job == ref_job) {
                        out.fe_served_conn = served_by_front_end(plan, r);
                    }
                    out.points[k * per_policy + job] = make_point(plan, r, kinds[k], level, t);
                }
            }
        },
        1);
    frontier_span.set_items(out.points.size());

    if (!out.fe_served_conn.empty()) {
        load::set_front_end_conn_gauges(out.fe_served_conn);
    }
    return out;
}

void write_load_frontier_csv(std::ostream& out, const load_frontier_result& result,
                             std::optional<load::policy_kind> only) {
    if (!only) out << "policy,";
    out << "demand_pct,bucket,offered_conn,served_first_conn,shed_conn,unserved_conn,"
           "p50_ms,p95_ms,overload_fraction,shed_fraction,mean_overflow_hops\n";
    for (const auto& p : result.points) {
        if (only && p.policy != *only) continue;
        if (!only) out << load::policy_name(p.policy) << ',';
        out << p.level_pct << ',' << p.bucket << ',' << p.offered_conn << ','
            << p.served_first_conn << ',' << p.shed_conn << ',' << p.unserved_conn << ','
            << strfmt::fixed(p.p50_ms, 3) << ',' << strfmt::fixed(p.p95_ms, 3) << ','
            << strfmt::fixed(p.overload_fraction, 6) << ','
            << strfmt::fixed(p.shed_fraction, 6) << ','
            << strfmt::fixed(p.mean_overflow_hops, 4) << '\n';
    }
}

} // namespace ac::analysis
