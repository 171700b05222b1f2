// Route-selection fast-path baseline: measures select_many throughput over
// every user <region, AS> source against the CDN PoP RIB, comparing
//
//   * cold       — first select_many pass on a fresh RIB (cache fills),
//   * warm       — repeated select_many on the filled cache,
//
// each at 1 thread and on the pool, and exports an ac-bench-v1
// BENCH_routing.json. The acceptance bar for the fast path is warm >= 5x
// over cold.
//
//   bench_routing [--threads N] [--repeat R] [--out FILE]
#include <algorithm>
#include <chrono>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#define AC_BENCH_NO_HARNESS
#include "bench/bench_common.h"
#include "src/core/world.h"

namespace {

using namespace ac;

using clock_type = std::chrono::steady_clock;

std::vector<route::source_key> dedup_sources(const pop::user_base& users) {
    std::vector<route::source_key> sources;
    sources.reserve(users.locations().size());
    for (const auto& loc : users.locations()) {
        sources.push_back(route::source_key{loc.asn, loc.region});
    }
    std::sort(sources.begin(), sources.end(), [](const auto& a, const auto& b) {
        return a.asn != b.asn ? a.asn < b.asn : a.region < b.region;
    });
    sources.erase(std::unique(sources.begin(), sources.end(),
                              [](const auto& a, const auto& b) {
                                  return a.asn == b.asn && a.region == b.region;
                              }),
                  sources.end());
    return sources;
}

route::anycast_rib fresh_rib(const core::world& w, engine::thread_pool* pool) {
    return route::anycast_rib{w.graph(), w.cdn_net().pop_rib().announcements(),
                             pool};
}

struct leg_metrics {
    bench::metric* cold_ms = nullptr;
    bench::metric* warm_ms = nullptr;
    double hit_rate = 0.0;
};

void run(const core::world& w, std::span<const route::source_key> sources,
         engine::thread_pool* pool, int repeat, leg_metrics& leg) {
    // Cold vs warm on one rib: the first pass fills the cache, later passes
    // hit it. Cold is a single sample per leg (a second "cold" pass would be
    // warm, and rebuilding the rib per repeat would dominate the run).
    const auto rib = fresh_rib(w, pool);
    auto start = clock_type::now();
    (void)rib.select_many(sources, pool);
    leg.cold_ms->add(bench::ms_since(start));

    for (int i = 0; i < repeat; ++i) {
        start = clock_type::now();
        (void)rib.select_many(sources, pool);
        leg.warm_ms->add(bench::ms_since(start));
    }

    const auto stats = rib.select_cache_stats();
    const auto lookups = stats.hits + stats.misses;
    leg.hit_rate = lookups == 0
                       ? 0.0
                       : static_cast<double>(stats.hits) / static_cast<double>(lookups);
}

leg_metrics add_leg(bench::report& report, const char* prefix) {
    using bench::direction;
    leg_metrics leg;
    const std::string p{prefix};
    leg.cold_ms = &report.add_metric(p + ".cold_ms", "ms", direction::lower_is_better, 2.0);
    leg.warm_ms = &report.add_metric(p + ".warm_ms", "ms", direction::lower_is_better, 2.0);
    return leg;
}

} // namespace

int main(int argc, char** argv) {
    const auto args =
        bench::bench_args::parse(argc, argv, "bench_routing", 5, "BENCH_routing.json");

    std::cerr << "building small world...\n";
    auto config = core::world_config::small();
    config.threads = 1;
    const core::world w{std::move(config)};
    const auto sources = dedup_sources(w.users());
    std::cerr << sources.size() << " distinct <AS, region> sources\n";

    bench::report report{"routing", "small", args.repeat};
    report.set_note("cold/warm = select_many before and after the select cache fills");
    auto serial = add_leg(report, "serial");
    auto parallel = add_leg(report, "parallel");

    std::cerr << "measuring serial selection (threads=1)...\n";
    run(w, sources, nullptr, args.repeat, serial);
    std::cerr << "measuring pooled selection (threads=" << args.threads << ")...\n";
    engine::thread_pool pool{args.threads};
    run(w, sources, &pool, args.repeat, parallel);

    using bench::direction;
    report.add_scalar("warm_cache_speedup_serial", "x", direction::higher_is_better, 0.6,
                      serial.cold_ms->median() / serial.warm_ms->median());
    report.add_scalar("warm_cache_speedup_parallel", "x", direction::higher_is_better, 0.6,
                      parallel.cold_ms->median() / parallel.warm_ms->median());
    report.add_scalar("cache_hit_rate", "ratio", direction::higher_is_better, 0.1,
                      serial.hit_rate);

    std::ostringstream info;
    info << "{\"sources\": " << sources.size() << ", \"threads\": " << args.threads << "}";
    report.add_details("workload", info.str());
    return report.write_file_and_stdout(args.out_path);
}
