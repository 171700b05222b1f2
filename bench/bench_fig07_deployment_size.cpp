// Figure 7: larger deployments are less efficient but have lower latency.
//
// 7a — per deployment (letters + rings): median Atlas latency and efficiency
//      (share of users with zero geographic inflation). Paper: latency falls
//      and efficiency falls as deployments grow; F bucks the trend (low
//      latency *and* decent efficiency, courtesy of its CDN partner); B is
//      efficient (49%) yet slow (~160 ms).
// 7b — coverage: share of users within X km of a site. All Roots covers 91%
//      within 500 km; L (138 sites) covers users as well as R110.
#include "bench/bench_common.h"
#include "src/analysis/deployment_metrics.h"
#include "src/analysis/inflation.h"
#include "src/netbase/strfmt.h"

namespace {

using namespace ac;

void print_figure(std::ostream& os) {
    const auto& w = bench::world_2018();
    const auto& cdn = w.cdn_net();

    // Efficiency comes from the Fig. 2a / Fig. 5a y-intercepts.
    const auto root_inflation = analysis::compute_root_inflation(
        w.filtered_tables(), w.roots(), w.geodb(), w.cdn_user_counts());
    const auto cdn_inflation = analysis::compute_cdn_inflation(w.server_log_table(), w.cdn_net());

    os << "=== Figure 7a: median latency and efficiency vs deployment size ===\n";
    os << "  deployment  sites  median-latency(ms)  efficiency(%users at closest)\n";
    for (char letter : w.roots().geographic_analysis_letters()) {
        const auto& dep = w.roots().deployment_of(letter);
        const double latency = analysis::median_probe_latency(w.fleet(), dep, 7);
        os << "  " << letter << "           " << strfmt::zero_padded(dep.global_site_count(), 3)
           << "    " << strfmt::fixed(latency, 1) << "                "
           << strfmt::fixed(root_inflation.efficiency(letter), 3) << "\n";
    }
    for (int ring = 0; ring < cdn.ring_count(); ++ring) {
        const double latency = analysis::median_probe_latency_to_ring(w.fleet(), cdn, ring, 7);
        os << "  " << cdn.ring_name(ring) << "        " << strfmt::zero_padded(cdn.ring_size(ring), 3)
           << "    " << strfmt::fixed(latency, 1) << "                "
           << strfmt::fixed(cdn_inflation.efficiency(ring), 3) << "\n";
    }

    os << "=== Figure 7b: coverage radius (share of users within X km) ===\n";
    const std::vector<double> radii{250, 500, 750, 1000, 1250, 1500, 1750, 2000};
    auto print_curve = [&](const analysis::coverage_curve& curve) {
        os << "  " << curve.name << " (" << curve.global_sites << "):";
        for (std::size_t i = 0; i < curve.radii_km.size(); ++i) {
            os << "  " << static_cast<int>(curve.radii_km[i]) << "km="
               << strfmt::fixed(curve.covered_fraction[i], 2);
        }
        os << "\n";
    };
    print_curve(analysis::compute_all_roots_coverage(w.roots(), w.users(), w.regions(), radii));
    for (int ring = cdn.ring_count() - 1; ring >= 0; --ring) {
        print_curve(analysis::compute_ring_coverage(cdn, ring, w.users(), w.regions(), radii));
    }
    for (char letter : {'L', 'F', 'J', 'K', 'D'}) {
        print_curve(
            analysis::compute_coverage(w.roots().deployment_of(letter), w.users(), w.regions(), radii));
    }
}

void BM_CoverageCurve(benchmark::State& state) {
    const auto& w = bench::world_2018();
    const std::vector<double> radii{250, 500, 1000, 2000};
    for (auto _ : state) {
        auto c = analysis::compute_coverage(w.roots().deployment_of('L'), w.users(),
                                            w.regions(), radii);
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_CoverageCurve)->Unit(benchmark::kMillisecond);

} // namespace

AC_BENCH_MAIN(print_figure)
