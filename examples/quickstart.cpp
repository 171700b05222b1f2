// Quickstart: build a synthetic Internet, deploy an anycast service two
// ways, and compare user-experienced latency and inflation — the paper's
// "tale of two systems" in 80 lines.
//
//   $ ./quickstart
//
#include <iostream>

#include "src/analysis/stats.h"
#include "src/anycast/deployment.h"
#include "src/netbase/strfmt.h"
#include "src/population/population.h"
#include "src/topology/generator.h"

int main() {
    using namespace ac;

    // 1. A world: regions, an AS-level Internet, and users.
    const auto regions = topo::make_regions(topo::region_plan{}, /*seed=*/7);
    topo::graph_plan graph_plan;
    graph_plan.eyeball_count = 600;
    auto graph = topo::make_graph(regions, graph_plan, /*seed=*/7);

    topo::address_space space;
    pop::user_base users{graph, regions, space, pop::user_base_plan{}, /*seed=*/7};
    std::cout << "World: " << regions.size() << " regions, " << graph.as_count()
              << " ASes, " << strfmt::fixed(users.total_users() / 1e6, 1) << "M users\n\n";

    // 2. Two anycast deployments of the same size, different strategies.
    anycast::deployment_plan open_plan;
    open_plan.name = "open-hosted";
    open_plan.strategy = anycast::hosting_strategy::open_hosting;
    open_plan.global_sites = 40;
    open_plan.seed = 11;
    const auto open_dep = anycast::build_deployment(open_plan, graph, regions);

    anycast::deployment_plan cdn_plan;
    cdn_plan.name = "cdn-style";
    cdn_plan.strategy = anycast::hosting_strategy::cdn_partnered;
    cdn_plan.global_sites = 40;
    cdn_plan.dedicated_asn = topo::asn_blocks::content_base + 1;
    cdn_plan.eyeball_peering_fraction = 0.6;
    cdn_plan.seed = 13;
    const auto cdn_dep = anycast::build_deployment(cdn_plan, graph, regions);

    // 3. Evaluate both against the user population.
    for (const auto* dep : {&open_dep, &cdn_dep}) {
        analysis::weighted_cdf rtt;
        analysis::weighted_cdf inflation_km;
        for (const auto& loc : users.locations()) {
            const auto path = dep->rib().select(loc.asn, loc.region);
            if (!path) continue;
            rtt.add(path->rtt_ms, loc.users);
            const double nearest = dep->nearest_global_site_km(loc.region);
            inflation_km.add(path->direct_km - nearest >= 0 ? path->direct_km - nearest : 0,
                             loc.users);
        }
        std::cout << dep->name() << " (" << dep->global_site_count() << " sites):\n"
                  << "  median RTT          " << strfmt::fixed(rtt.median(), 1) << " ms\n"
                  << "  p95 RTT             " << strfmt::fixed(rtt.quantile(0.95), 1)
                  << " ms\n"
                  << "  users w/ 0 km infl. "
                  << strfmt::fixed(100.0 * inflation_km.fraction_leq(50.0), 1) << " %\n"
                  << "  p90 inflation       " << strfmt::fixed(inflation_km.quantile(0.9), 0)
                  << " km\n\n";
    }

    std::cout << "Same site count, different engineering: peering breadth, not\n"
                 "anycast itself, decides whether routes inflate (paper §7.1).\n";
    return 0;
}
