// Figure 9 / Appendix B.2: amortization without the /24 join.
//
// Joining by exact resolver IP captures only ~8.4% of DITL volume, dropping
// the per-user median to roughly 1/30th of the /24-joined estimate — the
// justification for aggregating both datasets by /24.
#include "bench/bench_common.h"
#include "src/analysis/join.h"
#include "src/netbase/strfmt.h"

namespace {

using namespace ac;

analysis::amortization_result amortize(bool by_slash24) {
    const auto& w = bench::world_2018();
    analysis::amortization_options opts;
    opts.join_by_slash24 = by_slash24;
    return analysis::compute_amortization(w.filtered_tables(), w.users(), w.cdn_user_counts(),
                                          w.apnic_user_counts(), w.as_mapper(),
                                          w.config().query_model, opts);
}

void print_figure(std::ostream& os) {
    const auto joined = amortize(true);
    const auto exact = amortize(false);

    os << "=== Figure 9: daily queries per user without the /24 join ===\n";
    os << "  CDN by /24 : median=" << strfmt::fixed(joined.cdn.median(), 3)
       << "  attributed volume=" << strfmt::fixed(joined.attributed_volume_fraction, 3)
       << "\n";
    os << "  CDN by IP  : median=" << strfmt::fixed(exact.cdn.median(), 4)
       << "  attributed volume=" << strfmt::fixed(exact.attributed_volume_fraction, 3)
       << "\n";
    os << "  median ratio (by-/24 / by-IP): "
       << strfmt::fixed(joined.cdn.median() / exact.cdn.median(), 1)
       << "x (paper ~30x)\n";
    os << "  APNIC (join-independent): median=" << strfmt::fixed(exact.apnic.median(), 3)
       << "\n";
}

void BM_ExactJoinAmortization(benchmark::State& state) {
    for (auto _ : state) {
        auto r = amortize(false);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_ExactJoinAmortization)->Unit(benchmark::kMillisecond);

} // namespace

AC_BENCH_MAIN(print_figure)
