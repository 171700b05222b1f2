// Figure 3: queries per user per day to the root DNS.
//
// Filtered DITL volumes amortized over user populations. Paper shapes:
// median ~1 query/user/day on the CDN counts; APNIC agrees at the
// high level (the methodology is robust to the user-count source); the
// Ideal line (once-per-TTL) sits orders of magnitude lower (median 0.007).
#include "bench/bench_common.h"
#include "src/analysis/join.h"
#include "src/netbase/strfmt.h"

namespace {

using namespace ac;

const analysis::amortization_result& result() {
    static const analysis::amortization_result r = analysis::compute_amortization(
        bench::world_2018().filtered_tables(), bench::world_2018().users(),
        bench::world_2018().cdn_user_counts(), bench::world_2018().apnic_user_counts(),
        bench::world_2018().as_mapper(), bench::world_2018().config().query_model);
    return r;
}

void print_line(std::ostream& os, const std::string& label,
                const analysis::weighted_cdf& cdf) {
    os << "  " << label << ":";
    for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
        os << "  p" << static_cast<int>(q * 100) << "="
           << strfmt::fixed(cdf.quantile(q), 4);
    }
    os << "  (queries/user/day, n=" << cdf.size() << ")\n";
}

void print_figure(std::ostream& os) {
    const auto& r = result();
    os << "=== Figure 3: daily root-DNS queries per user (CDF of users) ===\n";
    print_line(os, "Ideal ", r.ideal);
    print_line(os, "CDN   ", r.cdn);
    print_line(os, "APNIC ", r.apnic);
    os << "  CDN median / Ideal median = "
       << strfmt::fixed(r.cdn.median() / r.ideal.median(), 1) << "x\n";
    os << "  users waiting for <=1 query/day (CDN): "
       << strfmt::fixed(r.cdn.fraction_leq(1.0), 3) << "\n";
    os << "  attributed DITL volume fraction: "
       << strfmt::fixed(r.attributed_volume_fraction, 3) << "\n";
}

void BM_ComputeAmortization(benchmark::State& state) {
    const auto& w = bench::world_2018();
    for (auto _ : state) {
        auto r = analysis::compute_amortization(w.filtered_tables(), w.users(), w.cdn_user_counts(),
                                                w.apnic_user_counts(), w.as_mapper(),
                                                w.config().query_model);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_ComputeAmortization)->Unit(benchmark::kMillisecond);

} // namespace

AC_BENCH_MAIN(print_figure)
