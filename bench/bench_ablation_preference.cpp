// Ablation: recursive letter preference ([60]).
//
// The All-Roots per-query inflation of Fig. 2 depends on recursives
// spreading queries toward low-latency letters. This ablation sweeps the
// preference strength from uniform querying to strong preference and
// reports the All-Roots latency-inflation tail — quantifying how much of
// the system-level result the paper owes to resolver behaviour rather than
// to the deployments.
#include "bench/bench_common.h"
#include "src/analysis/inflation.h"
#include "src/netbase/strfmt.h"

namespace {

using namespace ac;

struct setting {
    std::string name;
    double gamma_lo;
    double gamma_hi;
    double uniform_mix;
};

void print_figure(std::ostream& os) {
    os << "=== Ablation: letter-preference strength ===\n";
    os << "  preference     All-Roots LI p50   p90   >100ms\n";
    const setting settings[] = {
        {"uniform", 0.0, 0.0, 1.0},
        {"default", 1.2, 2.6, 0.10},
        {"strong", 3.0, 4.0, 0.02},
    };
    for (const auto& s : settings) {
        core::world_config config;
        config.query_model.preference_gamma_lo = s.gamma_lo;
        config.query_model.preference_gamma_hi = s.gamma_hi;
        config.query_model.preference_uniform_mix = s.uniform_mix;
        const core::world w{std::move(config)};
        const auto inflation = analysis::compute_root_inflation(
            w.filtered_tables(), w.roots(), w.geodb(), w.cdn_user_counts());
        const auto& li = inflation.latency_all_roots;
        os << "  " << s.name;
        for (std::size_t pad = s.name.size(); pad < 13; ++pad) os << ' ';
        os << strfmt::fixed(li.median(), 1) << "           "
           << strfmt::fixed(li.quantile(0.9), 1) << "  "
           << strfmt::fixed(li.fraction_above(100.0), 3) << "\n";
    }
    os << "  => preferential querying is load-bearing: with uniform querying the\n"
          "     All-Roots tail approaches the per-letter curves of Fig. 2b.\n";
}

void BM_WorldBuild(benchmark::State& state) {
    for (auto _ : state) {
        core::world w{core::world_config{}};
        benchmark::DoNotOptimize(&w);
    }
}
BENCHMARK(BM_WorldBuild)->Unit(benchmark::kMillisecond);

} // namespace

AC_BENCH_MAIN(print_figure)
