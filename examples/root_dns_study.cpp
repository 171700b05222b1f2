// Example: the paper's root-DNS story end to end.
//
// Builds the 2018 study world, measures inflation to every letter (Fig. 2),
// amortizes queries over users (Fig. 3), and prints the §4.3 conclusion:
// routes are inflated, but users barely ever wait on the root.
//
//   $ ./root_dns_study [seed]
//
#include <cstdlib>
#include <iostream>

#include "src/analysis/inflation.h"
#include "src/analysis/join.h"
#include "src/core/render.h"
#include "src/core/world.h"
#include "src/netbase/strfmt.h"

int main(int argc, char** argv) {
    using namespace ac;

    core::world_config config;
    if (argc > 1) config.seed = std::strtoull(argv[1], nullptr, 10);
    std::cout << "Building the 2018 study world (seed " << config.seed << ")...\n";
    const core::world w{config};
    std::cout << "  " << w.graph().as_count() << " ASes, "
              << strfmt::fixed(w.users().total_users() / 1e6, 0) << "M users, "
              << w.users().recursives().size() << " recursive /24s, "
              << strfmt::fixed(w.ditl().total_queries_per_day() / 1e9, 1)
              << "B root queries/day\n\n";

    // --- §3: routes to the root DNS are inflated. ---
    const auto inflation = analysis::compute_root_inflation(w.filtered_tables(), w.roots(),
                                                            w.geodb(), w.cdn_user_counts());
    std::cout << "Geographic inflation per root query (per letter):\n";
    for (const auto& [letter, cdf] : inflation.geographic) {
        std::cout << "  " << letter << " ("
                  << w.roots().deployment_of(letter).global_site_count()
                  << " sites): median " << strfmt::fixed(cdf.median(), 1) << " ms, p90 "
                  << strfmt::fixed(cdf.quantile(0.9), 1) << " ms, users at closest site "
                  << strfmt::fixed(100.0 * inflation.efficiency(letter), 0) << "%\n";
    }
    std::cout << "System-wide (All Roots): "
              << strfmt::fixed(
                     100.0 * inflation.geographic_all_roots.fraction_above(
                                 analysis::zero_inflation_epsilon_ms),
                     1)
              << "% of users see some inflation; "
              << strfmt::fixed(100.0 * inflation.latency_all_roots.fraction_above(100.0), 1)
              << "% wait >100 ms extra per root query.\n\n";

    // --- §4: ...but nobody is waiting. ---
    const auto amortized = analysis::compute_amortization(
        w.filtered_tables(), w.users(), w.cdn_user_counts(), w.apnic_user_counts(), w.as_mapper(),
        w.config().query_model);
    std::cout << "Queries per user per day (amortized over user populations):\n";
    std::cout << "  CDN user counts:   median "
              << strfmt::fixed(amortized.cdn.median(), 2) << "\n";
    std::cout << "  APNIC user counts: median "
              << strfmt::fixed(amortized.apnic.median(), 2) << "\n";
    std::cout << "  Ideal (1/TTL):     median "
              << strfmt::fixed(amortized.ideal.median(), 4) << "\n\n";

    const double extra_ms_per_day = amortized.cdn.median() *
                                    inflation.latency_all_roots.median();
    std::cout << "Takeaway: the median user waits for ~"
              << strfmt::fixed(amortized.cdn.median(), 1)
              << " root queries a day; even with "
              << strfmt::fixed(inflation.latency_all_roots.median(), 0)
              << " ms median inflation that is ~" << strfmt::fixed(extra_ms_per_day, 0)
              << " ms of avoidable delay per day - imperceptible (paper §4.3).\n";
    return 0;
}
