#include "src/anycast/failover.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>


namespace ac::anycast {

degraded_deployment::degraded_deployment(const deployment& dep,
                                         std::span<const route::site_id> failed_sites,
                                         const topo::as_graph& graph)
    : dep_(&dep), failed_(failed_sites.begin(), failed_sites.end()) {
    std::unordered_set<route::site_id> down(failed_.begin(), failed_.end());
    std::vector<route::announcement> announcements;
    for (const auto& s : dep.sites()) {
        if (down.contains(s.id)) continue;
        const auto degraded_id = static_cast<route::site_id>(site_map_.size());
        site_map_.push_back(s.id);
        announcements.push_back(
            route::announcement{degraded_id, s.host_asn, s.region, s.scope, {}});
    }
    surviving_ = static_cast<int>(site_map_.size());
    if (surviving_ > 0) {
        rib_ = std::make_unique<route::anycast_rib>(graph, std::move(announcements));
    }
}

std::optional<route::path_result> degraded_deployment::select(topo::asn_t asn,
                                                              topo::region_id region) const {
    if (rib_ == nullptr) return std::nullopt;
    auto path = rib_->select(asn, region);
    if (path) path->site = site_map_[path->site];
    return path;
}

failover_report run_failover_study(const deployment& dep,
                                   std::span<const route::site_id> failed_sites,
                                   const pop::user_base& users,
                                   const topo::as_graph& graph) {
    const degraded_deployment degraded{dep, failed_sites, graph};

    failover_report report;
    report.failed_sites = static_cast<int>(failed_sites.size());

    // (value, weight) samples; ac_analysis sits above this library in the
    // dependency order, so the weighted median is computed locally.
    std::vector<std::pair<double, double>> rtt_before;
    std::vector<std::pair<double, double>> rtt_after;
    std::unordered_map<route::site_id, double> absorbed;  // moved users per new site
    double total_users = 0.0;
    double affected = 0.0;
    double stranded = 0.0;
    double moved_total = 0.0;

    for (const auto& loc : users.locations()) {
        total_users += loc.users;
        const auto before = dep.rib().select(loc.asn, loc.region);
        if (!before) continue;  // unreachable even before the failure
        const auto after = degraded.select(loc.asn, loc.region);
        if (!after) {
            stranded += loc.users;
            continue;
        }
        if (after->site == before->site) continue;
        affected += loc.users;
        moved_total += loc.users;
        absorbed[after->site] += loc.users;
        rtt_before.emplace_back(before->rtt_ms, loc.users);
        rtt_after.emplace_back(after->rtt_ms, loc.users);
    }

    if (total_users > 0.0) {
        report.affected_user_share = affected / total_users;
        report.stranded_user_share = stranded / total_users;
    }
    auto weighted_median = [](std::vector<std::pair<double, double>> samples) {
        if (samples.empty()) return 0.0;
        std::sort(samples.begin(), samples.end());
        double total = 0.0;
        for (const auto& [v, w] : samples) total += w;
        double cumulative = 0.0;
        for (const auto& [v, w] : samples) {
            cumulative += w;
            if (cumulative >= total / 2.0) return v;
        }
        return samples.back().first;
    };
    report.median_rtt_before_ms = weighted_median(std::move(rtt_before));
    report.median_rtt_after_ms = weighted_median(std::move(rtt_after));
    for (const auto& [site, moved] : absorbed) {
        report.max_absorbed_share =
            std::max(report.max_absorbed_share, moved_total > 0.0 ? moved / moved_total : 0.0);
    }
    return report;
}

} // namespace ac::anycast
