// Figure 8 / Appendix B.1: the effect of counting invalid-TLD and PTR
// queries. Re-runs the Fig. 3 amortization on *unfiltered* volumes.
//
// Paper shapes: the CDN median jumps ~20x (to ~22 queries/user/day) and the
// APNIC median ~6x, because junk concentrates at /24s with many users.
#include "bench/bench_common.h"
#include "src/analysis/join.h"
#include "src/netbase/strfmt.h"

namespace {

using namespace ac;

analysis::amortization_result amortize(bool filtered) {
    const auto& w = bench::world_2018();
    capture::filter_options fo;
    if (!filtered) {
        fo.drop_invalid_tld = false;
        fo.drop_ptr = false;
    }
    const auto letters = capture::to_tables(capture::filter_all(w.ditl(), fo));
    return analysis::compute_amortization(letters, w.users(), w.cdn_user_counts(),
                                          w.apnic_user_counts(), w.as_mapper(),
                                          w.config().query_model);
}

void print_figure(std::ostream& os) {
    const auto with_junk = amortize(/*filtered=*/false);
    const auto without_junk = amortize(/*filtered=*/true);

    os << "=== Figure 8: daily queries per user, counting invalid TLD + PTR ===\n";
    auto row = [&](const char* label, const analysis::weighted_cdf& cdf) {
        os << "  " << label << ": p25=" << strfmt::fixed(cdf.quantile(0.25), 3)
           << "  p50=" << strfmt::fixed(cdf.quantile(0.5), 3)
           << "  p75=" << strfmt::fixed(cdf.quantile(0.75), 3)
           << "  p90=" << strfmt::fixed(cdf.quantile(0.9), 2) << "\n";
    };
    row("CDN   (unfiltered)", with_junk.cdn);
    row("CDN   (filtered)  ", without_junk.cdn);
    row("APNIC (unfiltered)", with_junk.apnic);
    row("APNIC (filtered)  ", without_junk.apnic);
    os << "  CDN median inflation factor from junk: "
       << strfmt::fixed(with_junk.cdn.median() / without_junk.cdn.median(), 1)
       << "x (paper ~20x)\n";
    os << "  APNIC median inflation factor from junk: "
       << strfmt::fixed(with_junk.apnic.median() / without_junk.apnic.median(), 1)
       << "x (paper ~6x)\n";
}

void BM_UnfilteredAmortization(benchmark::State& state) {
    for (auto _ : state) {
        auto r = amortize(false);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_UnfilteredAmortization)->Unit(benchmark::kMillisecond);

} // namespace

AC_BENCH_MAIN(print_figure)
