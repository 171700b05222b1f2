// Example: what a user sees across CDN rings.
//
// Picks a handful of user locations and walks them across R28..R110: the
// ingress PoP stays fixed while the internal WAN leg shrinks, and the
// per-page-load cost (x10 RTTs, §5.1) makes the differences user-visible —
// unlike in the root DNS.
//
//   $ ./cdn_ring_study
//
#include <algorithm>
#include <iostream>

#include "src/analysis/inflation.h"
#include "src/core/world.h"
#include "src/netbase/strfmt.h"

int main() {
    using namespace ac;

    const core::world w{core::world_config{}};
    const auto& cdn = w.cdn_net();
    const auto& regions = w.regions();

    // Show the three most-populated user locations plus two from the tail.
    auto locations = w.users().locations();
    std::sort(locations.begin(), locations.end(),
              [](const auto& a, const auto& b) { return a.users > b.users; });
    std::vector<pop::user_location> picks{locations[0], locations[1], locations[2],
                                          locations[locations.size() / 2],
                                          locations[locations.size() - 10]};

    for (const auto& loc : picks) {
        std::cout << "user location <" << regions.at(loc.region).name << ", AS" << loc.asn
                  << "> (" << strfmt::fixed(loc.users / 1e6, 2) << "M users)\n";
        for (int ring = 0; ring < cdn.ring_count(); ++ring) {
            const auto path = cdn.evaluate(loc.asn, loc.region, ring);
            if (!path) {
                std::cout << "  " << cdn.ring_name(ring) << ": unreachable\n";
                continue;
            }
            std::cout << "  " << cdn.ring_name(ring) << ": ingress at "
                      << regions.at(path->ingress_pop).name << ", front-end "
                      << regions.at(cdn.front_end_regions()[static_cast<std::size_t>(
                             path->front_end)]).name
                      << ", RTT " << strfmt::fixed(path->rtt_ms, 1) << " ms (external "
                      << strfmt::fixed(path->external_rtt_ms, 1) << " + WAN "
                      << strfmt::fixed(path->internal_rtt_ms, 1) << "), page load ~"
                      << strfmt::fixed(path->rtt_ms * 10.0, 0) << " ms, AS path "
                      << path->path_ases << " hops\n";
        }
        std::cout << "\n";
    }

    // Aggregate: the ring-size experiment of Fig. 4/5 in two lines.
    const auto inflation = analysis::compute_cdn_inflation(w.server_log_table(), cdn);
    std::cout << "Across all users:\n";
    for (int ring = 0; ring < cdn.ring_count(); ++ring) {
        std::cout << "  " << cdn.ring_name(ring) << ": "
                  << strfmt::fixed(100.0 * inflation.efficiency(ring), 0)
                  << "% of users at their closest front-end; latency inflation p90 = "
                  << strfmt::fixed(
                         inflation.latency_by_ring[static_cast<std::size_t>(ring)].quantile(
                             0.9),
                         1)
                  << " ms/RTT\n";
    }
    std::cout << "\nEvery RTT of inflation costs ~10x per page load (§5.1), so the CDN\n"
                 "engineers it away with peering - the paper's 'tale of two systems'.\n";
    return 0;
}
