#include "src/analysis/unicast.h"

#include <algorithm>
#include <limits>

#include "src/netbase/geo.h"

namespace ac::analysis {

unicast_comparison compare_with_unicast(const anycast::deployment& dep,
                                        const pop::user_base& users) {
    unicast_comparison result;
    double total_users = 0.0;
    double optimal_users = 0.0;

    for (const auto& loc : users.locations()) {
        const auto anycast_path = dep.rib().select(loc.asn, loc.region);
        if (!anycast_path) continue;

        // Unicast alternative: route to every global site individually and
        // take the fastest. evaluate() *is* the unicast path: it follows the
        // AS-level route toward that specific origin announcement.
        double best_unicast = std::numeric_limits<double>::infinity();
        route::site_id best_site = anycast_path->site;
        for (const auto& s : dep.sites()) {
            if (s.scope != route::announcement_scope::global) continue;
            const auto unicast = dep.rib().evaluate(loc.asn, loc.region, s.id);
            if (unicast && unicast->rtt_ms < best_unicast) {
                best_unicast = unicast->rtt_ms;
                best_site = s.id;
            }
        }
        if (!std::isfinite(best_unicast)) continue;

        total_users += loc.users;
        if (best_site == anycast_path->site) optimal_users += loc.users;
        result.anycast_penalty_ms.add(std::max(0.0, anycast_path->rtt_ms - best_unicast),
                                      loc.users);
        const double bound = geo::best_case_rtt_ms(dep.nearest_global_site_km(loc.region));
        result.unicast_inflation_ms.add(std::max(0.0, best_unicast - bound), loc.users);
    }

    result.anycast_optimal_share = total_users > 0.0 ? optimal_users / total_users : 0.0;
    return result;
}

} // namespace ac::analysis
