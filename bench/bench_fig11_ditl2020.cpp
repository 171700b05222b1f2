// Figure 11 / Appendix B.3: the 2020 DITL re-analysis.
//
// The 2020 capture has different coverage (B absent, E/F incomplete, L
// anonymized) and different letter sizes (A grew to 51, J to 127, K to 75).
// Paper conclusion: neither the per-user query counts nor the inflation
// picture changes qualitatively.
#include "bench/bench_common.h"
#include "src/analysis/inflation.h"
#include "src/analysis/join.h"
#include "src/netbase/strfmt.h"

namespace {

using namespace ac;

void print_figure(std::ostream& os) {
    const auto& w = bench::world_2020();

    os << "=== Figure 11a: daily queries per user, 2020 DITL ===\n";
    const auto amortized = analysis::compute_amortization(
        w.filtered_tables(), w.users(), w.cdn_user_counts(), w.apnic_user_counts(), w.as_mapper(),
        w.config().query_model);
    os << "  CDN   median=" << strfmt::fixed(amortized.cdn.median(), 3)
       << "  p90=" << strfmt::fixed(amortized.cdn.quantile(0.9), 2) << "\n";
    os << "  APNIC median=" << strfmt::fixed(amortized.apnic.median(), 3) << "\n";
    os << "  Ideal median=" << strfmt::fixed(amortized.ideal.median(), 4) << "\n";

    os << "=== Figure 11b: geographic inflation per root query, 2020 DITL ===\n";
    const auto inflation = analysis::compute_root_inflation(w.filtered_tables(), w.roots(),
                                                            w.geodb(), w.cdn_user_counts());
    for (const auto& [letter, cdf] : inflation.geographic) {
        os << "  " << letter << " - " << w.roots().deployment_of(letter).global_site_count()
           << ": zero-frac=" << strfmt::fixed(cdf.fraction_leq(0.5), 3)
           << "  p90=" << strfmt::fixed(cdf.quantile(0.9), 1) << " ms\n";
    }
    core::print_cdf_row(os, "All Roots", inflation.geographic_all_roots);
    os << "  users inflated >20ms (2,000 km): "
       << strfmt::fixed(inflation.geographic_all_roots.fraction_above(20.0), 3)
       << " (paper ~10%, stable across years)\n";
}

void BM_Build2020Inflation(benchmark::State& state) {
    const auto& w = bench::world_2020();
    for (auto _ : state) {
        auto r = analysis::compute_root_inflation(w.filtered_tables(), w.roots(), w.geodb(),
                                                  w.cdn_user_counts());
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_Build2020Inflation)->Unit(benchmark::kMillisecond);

} // namespace

AC_BENCH_MAIN(print_figure)
