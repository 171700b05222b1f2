// Figure 14 / Appendix F: R110 latency by region.
//
// The paper's map colors user populations by relative latency to R110.
// We print the textual equivalent: per-continent relative-latency summaries
// and the correlation the figure demonstrates — latency falls with distance
// to the nearest front-end.
#include "bench/bench_common.h"
#include "src/analysis/stats.h"
#include "src/netbase/strfmt.h"

namespace {

using namespace ac;

void print_figure(std::ostream& os) {
    const auto& w = bench::world_2018();
    const auto& cdn = w.cdn_net();
    const int r110 = cdn.ring_count() - 1;

    // Per-<region,AS> medians to R110 from server-side logs.
    const auto& logs = w.server_log_table();
    double max_latency = 1.0;
    for (std::size_t i = 0; i < logs.rows(); ++i) {
        if (logs.ring[i] == r110) max_latency = std::max(max_latency, logs.median_rtt_ms[i]);
    }

    os << "=== Figure 14: relative latency to R110 by continent ===\n";
    analysis::weighted_cdf by_continent[7];
    analysis::weighted_cdf near_users;  // <500 km from a front-end
    analysis::weighted_cdf far_users;   // >2000 km
    for (std::size_t i = 0; i < logs.rows(); ++i) {
        if (logs.ring[i] != r110) continue;
        const auto& region = w.regions().at(logs.region[i]);
        const double median = logs.median_rtt_ms[i];
        const double users = logs.users[i];
        by_continent[static_cast<int>(region.cont)].add(median / max_latency, users);
        const double d = cdn.nearest_front_end_km(region.id, r110);
        if (d < 500.0) near_users.add(median, users);
        if (d > 2000.0) far_users.add(median, users);
    }
    for (int c = 0; c < 7; ++c) {
        if (by_continent[c].empty()) continue;
        os << "  " << topo::to_string(static_cast<topo::continent>(c))
           << ": median relative latency = " << strfmt::fixed(by_continent[c].median(), 3)
           << " (p90 " << strfmt::fixed(by_continent[c].quantile(0.9), 3) << ")\n";
    }
    if (!near_users.empty() && !far_users.empty()) {
        os << "  users <500 km from a front-end: median "
           << strfmt::fixed(near_users.median(), 1) << " ms; users >2000 km: median "
           << strfmt::fixed(far_users.median(), 1)
           << " ms (latency falls near front-ends)\n";
    }
}

void BM_Fig14Aggregation(benchmark::State& state) {
    const auto& w = bench::world_2018();
    for (auto _ : state) {
        const auto& logs = w.server_log_table();
        double total = 0.0;
        for (std::size_t i = 0; i < logs.rows(); ++i) {
            if (logs.ring[i] == w.cdn_net().ring_count() - 1) total += logs.median_rtt_ms[i];
        }
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_Fig14Aggregation)->Unit(benchmark::kMicrosecond);

} // namespace

AC_BENCH_MAIN(print_figure)
