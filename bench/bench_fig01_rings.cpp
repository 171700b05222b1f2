// Figure 1: Microsoft's CDN rings and user populations.
//
// The map itself is a plot; the bench prints its content: ring sizes, the
// nesting property, per-continent front-end counts, and how user population
// concentrates around front-ends (the figure's point: front-ends are
// deployed where users are).
#include "bench/bench_common.h"
#include "src/netbase/strfmt.h"

namespace {

using namespace ac;

void print_figure(std::ostream& os) {
    const auto& w = bench::world_2018();
    const auto& cdn = w.cdn_net();
    const auto& regions = w.regions();

    os << "=== Figure 1: CDN rings and user populations ===\n";
    os << "  rings:";
    for (int r = 0; r < cdn.ring_count(); ++r) os << " " << cdn.ring_name(r);
    os << "  (nested: each ring contains all smaller rings)\n";

    // Front-ends per continent for the largest ring.
    int per_continent[7] = {};
    for (topo::region_id id : cdn.front_end_regions()) {
        ++per_continent[static_cast<int>(regions.at(id).cont)];
    }
    os << "  R" << cdn.ring_size(cdn.ring_count() - 1) << " front-ends by continent:";
    for (int c = 0; c < 7; ++c) {
        if (per_continent[c] == 0) continue;
        os << " " << topo::to_string(static_cast<topo::continent>(c)) << "="
           << per_continent[c];
    }
    os << "\n";

    // User concentration: share of users within 500/1000 km of a front-end,
    // per ring.
    for (int ring = 0; ring < cdn.ring_count(); ++ring) {
        double within_500 = 0.0;
        double within_1000 = 0.0;
        double total = 0.0;
        for (const auto& loc : w.users().locations()) {
            const double d = cdn.nearest_front_end_km(loc.region, ring);
            total += loc.users;
            if (d <= 500.0) within_500 += loc.users;
            if (d <= 1000.0) within_1000 += loc.users;
        }
        os << "  " << cdn.ring_name(ring) << ": users within 500 km = "
           << strfmt::fixed(100.0 * within_500 / total, 1) << "%, within 1000 km = "
           << strfmt::fixed(100.0 * within_1000 / total, 1) << "%\n";
    }
    os << "  total users: " << strfmt::fixed(w.users().total_users() / 1e6, 1) << "M across "
       << w.users().locations().size() << " <region, AS> locations\n";
}

void BM_NearestFrontEnd(benchmark::State& state) {
    const auto& w = bench::world_2018();
    const auto& cdn = w.cdn_net();
    const auto& locs = w.users().locations();
    std::size_t i = 0;
    for (auto _ : state) {
        const auto& loc = locs[i++ % locs.size()];
        benchmark::DoNotOptimize(cdn.nearest_front_end_km(loc.region, 4));
    }
}
BENCHMARK(BM_NearestFrontEnd);

} // namespace

AC_BENCH_MAIN(print_figure)
