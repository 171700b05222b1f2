#include "src/analysis/diagnosis.h"

#include <algorithm>

#include "src/netbase/geo.h"

namespace ac::analysis {

std::string_view to_string(path_problem problem) noexcept {
    switch (problem) {
        case path_problem::healthy: return "healthy";
        case path_problem::no_peering: return "no-peering";
        case path_problem::far_ingress: return "far-ingress";
        case path_problem::far_front_end: return "far-front-end";
        case path_problem::isolated_user: return "isolated-user";
    }
    return "unknown";
}

std::vector<path_diagnosis> diagnosis_report::worst(std::size_t count) const {
    std::vector<path_diagnosis> sorted;
    sorted.reserve(diagnoses.size());
    for (const auto& d : diagnoses) {
        if (d.problem != path_problem::healthy) sorted.push_back(d);
    }
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
        return a.excess_ms * a.users > b.excess_ms * b.users;
    });
    if (sorted.size() > count) sorted.resize(count);
    return sorted;
}

diagnosis_report diagnose_cdn_paths(const cdn::cdn_network& cdn, const pop::user_base& users,
                                    const diagnosis_options& options) {
    const int ring = options.ring >= 0 ? options.ring : cdn.ring_count() - 1;
    diagnosis_report report;
    double total_users = 0.0;

    for (const auto& loc : users.locations()) {
        const auto path = cdn.evaluate(loc.asn, loc.region, ring);
        if (!path) continue;
        total_users += loc.users;

        path_diagnosis d;
        d.asn = loc.asn;
        d.region = loc.region;
        d.users = loc.users;
        d.rtt_ms = path->rtt_ms;
        const double nearest_km = cdn.nearest_front_end_km(loc.region, ring);
        d.optimal_ms = geo::best_case_rtt_ms(nearest_km);
        d.excess_ms = std::max(0.0, d.rtt_ms - d.optimal_ms);

        // Classification, most actionable cause first.
        const double ingress_km = cdn.regions().distance_km(loc.region, path->ingress_pop);
        const bool direct = path->path_ases <= 2;
        if (d.excess_ms <= options.healthy_budget_ms) {
            d.problem = path_problem::healthy;
        } else if (nearest_km > options.isolated_km) {
            d.problem = path_problem::isolated_user;
        } else if (!direct) {
            d.problem = path_problem::no_peering;
        } else if (ingress_km > options.far_km) {
            d.problem = path_problem::far_ingress;
        } else if (path->front_end_km > options.far_km) {
            d.problem = path_problem::far_front_end;
        } else {
            // Direct, near ingress, near front-end, yet over budget: the
            // residual is circuitous fiber — count as healthy-adjacent
            // ingress trouble for the worklist.
            d.problem = path_problem::far_ingress;
        }
        report.user_share_by_problem[static_cast<std::size_t>(d.problem)] += loc.users;
        report.diagnoses.push_back(d);
    }

    if (total_users > 0.0) {
        for (auto& share : report.user_share_by_problem) share /= total_users;
    }
    return report;
}

} // namespace ac::analysis
