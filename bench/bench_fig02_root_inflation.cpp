// Figure 2: inflation to the root DNS.
//
// 2a — CDF of geographic inflation per root query, per letter + All Roots.
// 2b — CDF of latency inflation per root query (TCP-usable letters).
//
// Paper shapes to match: nearly every user inflated to some letter (All
// Roots y-intercept lowest); ~10.8% of users >20 ms (2,000 km) geographic
// inflation on average; 20-40% of users >100 ms latency inflation to
// individual letters but only ~10% system-wide; B (2 sites) barely inflated;
// larger deployments more likely to inflate.
#include <algorithm>

#include "bench/bench_common.h"
#include "src/analysis/inflation.h"
#include "src/netbase/strfmt.h"

namespace {

using namespace ac;

const analysis::root_inflation_result& result() {
    static const analysis::root_inflation_result r = analysis::compute_root_inflation(
        bench::world_2018().filtered_tables(), bench::world_2018().roots(),
        bench::world_2018().geodb(), bench::world_2018().cdn_user_counts());
    return r;
}

void print_figure(std::ostream& os) {
    const auto& w = bench::world_2018();
    const auto& r = result();

    os << "=== Figure 2a: geographic inflation per root query (CDF of users) ===\n";
    // Present letters by deployment size, as the paper's legend does.
    std::vector<std::pair<int, char>> order;
    for (const auto& [letter, cdf] : r.geographic) {
        order.emplace_back(w.roots().deployment_of(letter).global_site_count(), letter);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [sites, letter] : order) {
        core::print_cdf_row(os, std::string{letter} + " - " + std::to_string(sites),
                            r.geographic.at(letter));
    }
    core::print_cdf_row(os, "All Roots", r.geographic_all_roots);
    core::print_fraction_row(os, "All Roots thresholds", r.geographic_all_roots,
                             {0.5, 10.0, 20.0, 50.0});

    os << "=== Figure 2b: latency inflation per root query (CDF of users) ===\n";
    std::vector<std::pair<int, char>> lat_order;
    for (const auto& [letter, cdf] : r.latency) {
        lat_order.emplace_back(w.roots().deployment_of(letter).global_site_count(), letter);
    }
    std::sort(lat_order.begin(), lat_order.end());
    for (const auto& [sites, letter] : lat_order) {
        auto& cdf = r.latency.at(letter);
        core::print_cdf_row(os, std::string{letter} + " - " + std::to_string(sites), cdf);
        os << "    users >100ms: " << ac::strfmt::fixed(cdf.fraction_above(100.0), 3) << "\n";
    }
    core::print_cdf_row(os, "All Roots", r.latency_all_roots);
    os << "  All Roots users >100ms: "
       << ac::strfmt::fixed(r.latency_all_roots.fraction_above(100.0), 3) << "\n";
}

void BM_ComputeRootInflation(benchmark::State& state) {
    const auto& w = bench::world_2018();
    for (auto _ : state) {
        auto r = analysis::compute_root_inflation(w.filtered_tables(), w.roots(), w.geodb(),
                                                  w.cdn_user_counts());
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_ComputeRootInflation)->Unit(benchmark::kMillisecond);

} // namespace

AC_BENCH_MAIN(print_figure)
