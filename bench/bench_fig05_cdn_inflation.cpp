// Figure 5: anycast inflation can be small.
//
// CDN inflation (server-side logs, same Eq. 1/Eq. 2 methodology as the
// roots) vs the Root-DNS system-wide line. Paper shapes: most CDN users see
// zero geographic inflation (y-intercepts ~0.5+ vs 0.03 for roots); 85%
// under 10 ms GI per RTT on all rings; latency inflation roughly constant in
// ring size; <30 ms for 70% of users and <100 ms for 99%; system-wide root
// inflation is comparable, individual letters much worse.
#include "bench/bench_common.h"
#include "src/analysis/inflation.h"
#include "src/netbase/strfmt.h"

namespace {

using namespace ac;

struct figure5 {
    analysis::cdn_inflation_result cdn;
    analysis::root_inflation_result roots;
};

const figure5& result() {
    static const figure5 r = [] {
        const auto& w = bench::world_2018();
        figure5 f{analysis::compute_cdn_inflation(w.server_log_table(), w.cdn_net()),
                  analysis::compute_root_inflation(w.filtered_tables(), w.roots(), w.geodb(),
                                                   w.cdn_user_counts())};
        return f;
    }();
    return r;
}

void print_figure(std::ostream& os) {
    const auto& w = bench::world_2018();
    const auto& cdn = w.cdn_net();
    const auto& r = result();

    os << "=== Figure 5a: geographic inflation per RTT (CDF of users) ===\n";
    for (int ring = 0; ring < cdn.ring_count(); ++ring) {
        const auto& cdf = r.cdn.geographic_by_ring[static_cast<std::size_t>(ring)];
        core::print_cdf_row(os, cdn.ring_name(ring), cdf);
        os << "    <=10ms: " << strfmt::fixed(cdf.fraction_leq(10.0), 3)
           << "  zero: " << strfmt::fixed(r.cdn.efficiency(ring), 3) << "\n";
    }
    core::print_cdf_row(os, "Root DNS", r.roots.geographic_all_roots);
    os << "    roots with any GI: "
       << strfmt::fixed(r.roots.geographic_all_roots.fraction_above(
              analysis::zero_inflation_epsilon_ms), 3)
       << "  roots >10ms: "
       << strfmt::fixed(r.roots.geographic_all_roots.fraction_above(10.0), 3) << "\n";

    os << "=== Figure 5b: latency inflation per RTT (CDF of users) ===\n";
    for (int ring = 0; ring < cdn.ring_count(); ++ring) {
        const auto& cdf = r.cdn.latency_by_ring[static_cast<std::size_t>(ring)];
        core::print_cdf_row(os, cdn.ring_name(ring), cdf);
        os << "    <=30ms: " << strfmt::fixed(cdf.fraction_leq(30.0), 3)
           << "  <=60ms: " << strfmt::fixed(cdf.fraction_leq(60.0), 3)
           << "  <=100ms: " << strfmt::fixed(cdf.fraction_leq(100.0), 3) << "\n";
    }
    core::print_cdf_row(os, "Root DNS", r.roots.latency_all_roots);
    os << "    roots >100ms: "
       << strfmt::fixed(r.roots.latency_all_roots.fraction_above(100.0), 3) << "\n";

    // §6's headline comparison.
    double any_inflation_cdn = 0.0;
    for (int ring = 0; ring < cdn.ring_count(); ++ring) {
        any_inflation_cdn += 1.0 - r.cdn.efficiency(ring);
    }
    any_inflation_cdn /= cdn.ring_count();
    os << "  mean CDN users with any geographic inflation: "
       << strfmt::fixed(any_inflation_cdn, 3) << " (paper ~0.35 inflated / 0.65 at closest)\n";
}

void BM_ComputeCdnInflation(benchmark::State& state) {
    const auto& w = bench::world_2018();
    for (auto _ : state) {
        auto r = analysis::compute_cdn_inflation(w.server_log_table(), w.cdn_net());
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_ComputeCdnInflation)->Unit(benchmark::kMillisecond);

} // namespace

AC_BENCH_MAIN(print_figure)
