// Example: using the library as a deployment design tool.
//
// Sweeps anycast deployment size and strategy over one fixed world and
// reports the latency/efficiency frontier — the Fig. 7a trade-off as an API
// you can run against your own scenario.
//
//   $ ./deployment_designer
//
#include <iostream>

#include "src/analysis/stats.h"
#include "src/anycast/deployment.h"
#include "src/netbase/strfmt.h"
#include "src/population/population.h"
#include "src/topology/generator.h"

namespace {

using namespace ac;

struct outcome {
    double median_rtt_ms = 0.0;
    double efficiency = 0.0;  // share of users reaching their closest site
};

outcome evaluate(const anycast::deployment& dep, const pop::user_base& users) {
    analysis::weighted_cdf rtt;
    double at_closest = 0.0;
    double total = 0.0;
    for (const auto& loc : users.locations()) {
        const auto path = dep.rib().select(loc.asn, loc.region);
        if (!path) continue;
        rtt.add(path->rtt_ms, loc.users);
        total += loc.users;
        const double nearest = dep.nearest_global_site_km(loc.region);
        if (path->direct_km - nearest < 50.0) at_closest += loc.users;
    }
    return outcome{rtt.empty() ? 0.0 : rtt.median(), total > 0 ? at_closest / total : 0.0};
}

} // namespace

int main() {
    using namespace ac;

    const auto regions = topo::make_regions(topo::region_plan{}, 99);
    topo::graph_plan graph_plan;
    graph_plan.eyeball_count = 800;
    auto graph = topo::make_graph(regions, graph_plan, 99);

    topo::address_space space;
    const pop::user_base users{graph, regions, space, pop::user_base_plan{}, 99};

    std::cout << "strategy        sites  median RTT  % users at closest site\n";
    topo::asn_t next_asn = topo::asn_blocks::content_base + 500;
    for (const auto strategy : {anycast::hosting_strategy::open_hosting,
                                anycast::hosting_strategy::operator_run,
                                anycast::hosting_strategy::cdn_partnered}) {
        for (int sites : {5, 20, 60, 120}) {
            anycast::deployment_plan plan;
            plan.strategy = strategy;
            plan.global_sites = sites;
            plan.seed = static_cast<std::uint64_t>(sites) * 31 + 7;
            plan.name = std::string{strategy == anycast::hosting_strategy::open_hosting
                                        ? "open"
                                        : strategy == anycast::hosting_strategy::operator_run
                                              ? "operator"
                                              : "cdn-partnered"} +
                        "-" + std::to_string(sites);
            if (strategy != anycast::hosting_strategy::open_hosting) {
                plan.dedicated_asn = next_asn++;
            }
            if (strategy == anycast::hosting_strategy::cdn_partnered) {
                plan.eyeball_peering_fraction = 0.5;
            }
            if (strategy == anycast::hosting_strategy::open_hosting) {
                plan.local_ixp_peering_p = 0.4;
            }
            const auto dep = anycast::build_deployment(plan, graph, regions);
            const auto result = evaluate(dep, users);
            std::cout << "  " << plan.name;
            for (std::size_t pad = plan.name.size(); pad < 18; ++pad) std::cout << ' ';
            std::cout << strfmt::fixed(result.median_rtt_ms, 1) << " ms      "
                      << strfmt::fixed(100.0 * result.efficiency, 1) << "%\n";
        }
    }
    std::cout << "\nMore sites lower latency but route more users past their closest\n"
                 "site; peering breadth moves the whole frontier (paper §7.2).\n";
    return 0;
}
