// Ablation: site placement strategy (§7.2's open question).
//
// Holds the host network fixed (one well-peered content AS) and swaps only
// *where* the sites go: greedy latency-optimal (k-median), the default
// population-weighted draw, and uniform random. Scores the k-median
// objective, the realized anycast latency, and efficiency — separating the
// placement component of Fig. 7a from the routing component.
#include <memory>

#include "bench/bench_common.h"
#include "src/analysis/stats.h"
#include "src/anycast/placement.h"
#include "src/netbase/strfmt.h"
#include "src/topology/generator.h"

namespace {

using namespace ac;

struct scenario {
    std::string name;
    std::vector<topo::region_id> site_regions;
};

void print_figure(std::ostream& os) {
    // A private world: placement ablation attaches its own host networks.
    const auto regions = topo::make_regions(topo::region_plan{}, 4242);
    topo::graph_plan graph_plan;
    auto graph = topo::make_graph(regions, graph_plan, 4242);
    topo::address_space space;
    const pop::user_base users{graph, regions, space, pop::user_base_plan{}, 4242};

    constexpr int sites = 64;
    std::vector<scenario> scenarios;
    scenarios.push_back({"greedy-kmedian", anycast::greedy_placement(users, regions, sites)});
    scenarios.push_back({"random", anycast::random_placement(regions, sites, 4242)});
    {
        // The default builder's population-weighted placement, extracted by
        // building a throwaway deployment.
        anycast::deployment_plan plan;
        plan.name = "popweighted";
        plan.strategy = anycast::hosting_strategy::operator_run;
        plan.global_sites = sites;
        plan.dedicated_asn = topo::asn_blocks::content_base + 900;
        plan.seed = 4242;
        const auto dep = anycast::build_deployment(plan, graph, regions);
        std::vector<topo::region_id> picked;
        for (const auto& s : dep.sites()) picked.push_back(s.region);
        scenarios.push_back({"pop-weighted", std::move(picked)});
    }

    os << "=== Ablation: placement strategy (" << sites << " sites, same host network) ===\n";
    os << "  strategy        mean user dist (km)  median RTT (ms)  efficiency\n";
    topo::asn_t next_asn = topo::asn_blocks::content_base + 901;
    for (const auto& s : scenarios) {
        const double objective = anycast::mean_user_distance_km(users, regions, s.site_regions);

        // Identical host-network recipe for every strategy.
        topo::content_attachment attach;
        attach.asn = next_asn++;
        attach.name = s.name + "-net";
        attach.presence = s.site_regions;
        attach.transit_peering_fraction = 0.5;
        attach.eyeball_peering_fraction = 0.4;
        attach.seed = 4242;
        topo::attach_content_as(graph, regions, attach);
        std::vector<anycast::site> site_list;
        for (std::size_t i = 0; i < s.site_regions.size(); ++i) {
            site_list.push_back(anycast::site{static_cast<route::site_id>(i),
                                              s.name + "-" + std::to_string(i), attach.asn,
                                              s.site_regions[i],
                                              route::announcement_scope::global});
        }
        const anycast::deployment dep{s.name, std::move(site_list), graph, regions};

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
        os << "  " << s.name;
        for (std::size_t pad = s.name.size(); pad < 15; ++pad) os << ' ';
        os << strfmt::fixed(objective, 0) << "                 "
           << strfmt::fixed(rtt.empty() ? 0.0 : rtt.median(), 1) << "            "
           << strfmt::fixed(total > 0 ? at_closest / total : 0.0, 3) << "\n";
    }
    os << "  => greedy placement beats population weighting on the distance\n"
          "     objective, but BGP still decides how much of it users see.\n";
}

void BM_GreedyPlacement(benchmark::State& state) {
    const auto regions = topo::make_regions(topo::region_plan{}, 4242);
    topo::graph_plan plan;
    plan.eyeball_count = 400;
    auto graph = topo::make_graph(regions, plan, 4242);
    topo::address_space space;
    const pop::user_base users{graph, regions, space, pop::user_base_plan{}, 4242};
    for (auto _ : state) {
        auto placement = anycast::greedy_placement(users, regions, 32);
        benchmark::DoNotOptimize(placement);
    }
}
BENCHMARK(BM_GreedyPlacement)->Unit(benchmark::kMillisecond);

} // namespace

AC_BENCH_MAIN(print_figure)
