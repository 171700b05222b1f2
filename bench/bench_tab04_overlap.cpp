// Table 4: DITL / CDN dataset overlap, with and without /24 aggregation.
//
// Paper values: DITL recursives 2.45% -> 29.3%; DITL volume 8.4% -> 72.2%;
// CDN recursives 41.9% -> 78.8%; CDN volume 47.05% -> 88.1%.
#include "bench/bench_common.h"
#include "src/analysis/join.h"
#include "src/netbase/strfmt.h"

namespace {

using namespace ac;

void print_figure(std::ostream& os) {
    const auto& w = bench::world_2018();
    const auto overlap = analysis::compute_overlap(w.filtered_tables(), w.cdn_user_counts());

    os << "=== Table 4: DITL ∩ CDN overlap (exact-IP join, /24 join) ===\n";
    auto pct = [](double v) { return strfmt::fixed(100.0 * v, 2) + "%"; };
    os << "  DITL recursives covered: " << pct(overlap.by_ip.ditl_recursives) << " ("
       << pct(overlap.by_slash24.ditl_recursives) << ")   [paper 2.45% (29.3%)]\n";
    os << "  DITL volume covered:     " << pct(overlap.by_ip.ditl_volume) << " ("
       << pct(overlap.by_slash24.ditl_volume) << ")   [paper 8.4% (72.2%)]\n";
    os << "  CDN recursives covered:  " << pct(overlap.by_ip.cdn_recursives) << " ("
       << pct(overlap.by_slash24.cdn_recursives) << ")   [paper 41.9% (78.8%)]\n";
    os << "  CDN volume covered:      " << pct(overlap.by_ip.cdn_volume) << " ("
       << pct(overlap.by_slash24.cdn_volume) << ")   [paper 47.05% (88.1%)]\n";
}

void BM_ComputeOverlap(benchmark::State& state) {
    const auto& w = bench::world_2018();
    for (auto _ : state) {
        auto r = analysis::compute_overlap(w.filtered_tables(), w.cdn_user_counts());
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_ComputeOverlap)->Unit(benchmark::kMillisecond);

} // namespace

AC_BENCH_MAIN(print_figure)
