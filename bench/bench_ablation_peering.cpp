// Ablation: peering breadth is the mechanism (§7.1).
//
// The paper attributes the CDN's low inflation to "extensive peering and
// engineering". This ablation re-runs the world with the CDN's direct
// eyeball-peering fraction swept from 0 (transit only) to the default 0.72
// and reports what Fig. 5/6 would have shown: inflation rises and 2-AS paths
// vanish as peering is removed, with everything else held fixed.
#include "bench/bench_common.h"
#include "src/analysis/deployment_metrics.h"
#include "src/analysis/inflation.h"
#include "src/netbase/strfmt.h"

namespace {

using namespace ac;

core::world make_world(double eyeball_peering) {
    core::world_config config;
    config.cdn.eyeball_peering_fraction = eyeball_peering;
    return core::world{std::move(config)};
}

void print_figure(std::ostream& os) {
    os << "=== Ablation: CDN eyeball-peering fraction ===\n";
    os << "  peering  2-AS share  GI zero-frac  LI p50 (ms)  LI p90 (ms)  median RTT (ms)\n";
    for (double peering : {0.0, 0.2, 0.45, 0.72}) {
        const auto w = make_world(peering);
        const auto inflation = analysis::compute_cdn_inflation(w.server_log_table(), w.cdn_net());
        const int top_ring = w.cdn_net().ring_count() - 1;
        const auto& li = inflation.latency_by_ring[static_cast<std::size_t>(top_ring)];

        // 2-AS share over user locations.
        int direct = 0;
        int total = 0;
        analysis::weighted_cdf rtt;
        for (const auto& loc : w.users().locations()) {
            const auto path = w.cdn_net().evaluate(loc.asn, loc.region, top_ring);
            if (!path) continue;
            ++total;
            if (path->path_ases <= 2) ++direct;
            rtt.add(path->rtt_ms, loc.users);
        }
        os << "  " << strfmt::fixed(peering, 2) << "     "
           << strfmt::fixed(total ? static_cast<double>(direct) / total : 0.0, 3) << "       "
           << strfmt::fixed(inflation.efficiency(top_ring), 3) << "         "
           << strfmt::fixed(li.median(), 1) << "         "
           << strfmt::fixed(li.quantile(0.9), 1) << "         "
           << strfmt::fixed(rtt.median(), 1) << "\n";
    }
    os << "  => removing peering reproduces root-letter-like inflation on the\n"
          "     same deployment: the mechanism is interconnection, not anycast.\n";
}

void BM_WorldWithPeering(benchmark::State& state) {
    for (auto _ : state) {
        auto w = make_world(0.45);
        benchmark::DoNotOptimize(&w);
    }
}
BENCHMARK(BM_WorldWithPeering)->Unit(benchmark::kMillisecond);

} // namespace

AC_BENCH_MAIN(print_figure)
