// Load subsystem baseline: route-plan construction, per-bucket assignment
// under both policies, and the full load frontier sweep.
//
//   * route_plan.build_ms     — freeze per-(location, ring) front-ends/RTTs
//     and the inverse CSR membership for the small world
//   * assign.latency_ms       — one bucket, latency-only policy
//   * assign.load_aware_ms    — one bucket, load-aware waterfall at 400%
//     demand (every ring saturates, so this is the worst-case shed path)
//   * frontier.compute_ms     — the whole acctx-load sweep: both policies,
//     five demand levels, every timeline bucket
//   * shed/unserved "conn" scalars — deterministic integer outputs of the
//     400% load-aware bucket, gated at zero tolerance on every machine
//     (ci/check_bench.py treats "conn" as machine-independent)
//
//   bench_load [--threads N] [--repeat R] [--out FILE]
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>

#define AC_BENCH_NO_HARNESS
#include "bench/bench_common.h"
#include "src/analysis/load_frontier.h"
#include "src/core/world.h"
#include "src/load/capacity.h"
#include "src/load/demand.h"
#include "src/load/policy.h"
#include "src/scenario/event.h"

namespace {

using namespace ac;

using clock_type = std::chrono::steady_clock;

} // namespace

int main(int argc, char** argv) {
    const auto args = bench::bench_args::parse(argc, argv, "bench_load", 5, "BENCH_load.json");

    std::cerr << "building small world...\n";
    auto config = core::world_config::small();
    config.threads = 1;
    const core::world w{std::move(config)};
    engine::thread_pool pool{args.threads};

    bench::report report{"load", "small", args.repeat};
    report.set_note("route_plan freezes per-(location, ring) routing; assign legs run one "
                    "demand bucket under each policy (load-aware at 400% = worst-case "
                    "overflow); frontier is the full acctx-load sweep; conn scalars are "
                    "deterministic integers gated at zero tolerance");
    using bench::direction;
    auto& plan_ms =
        report.add_metric("route_plan.build_ms", "ms", direction::lower_is_better, 2.0);
    auto& latency_ms =
        report.add_metric("assign.latency_ms", "ms", direction::lower_is_better, 2.0);
    auto& aware_ms =
        report.add_metric("assign.load_aware_ms", "ms", direction::lower_is_better, 2.0);
    auto& frontier_ms =
        report.add_metric("frontier.compute_ms", "ms", direction::lower_is_better, 3.0);

    const auto tl = scenario::parse_timeline_text(
        "0 demand-diurnal 40 24\n"
        "1 demand-hotspot 0 250\n"
        "2 demand-flash 1 300 2\n");
    load::demand_plan dplan;
    dplan.connections_per_user = w.config().telemetry.connections_per_user;
    const load::demand_series demand{w.users(), tl, dplan,
                                     static_cast<topo::region_id>(w.cdn_net().regions().size())};

    std::cerr << "freezing route plan for " << demand.locations() << " locations...\n";
    for (int i = 0; i < args.repeat; ++i) {
        const auto start = clock_type::now();
        const load::route_plan plan{w.cdn_net(), w.users(), &pool};
        plan_ms.add(bench::ms_since(start));
    }

    const load::route_plan plan{w.cdn_net(), w.users(), &pool};
    const load::capacity_model capacity{w.cdn_net(), demand.nominal_total(), {}};

    std::cerr << "assigning one bucket per policy...\n";
    std::int64_t shed = 0, unserved = 0;
    for (int i = 0; i < args.repeat; ++i) {
        auto start = clock_type::now();
        const auto lat = load::assign_bucket(plan, demand.offered_bucket(0, 100),
                                             capacity.per_front_end(),
                                             load::policy_kind::latency_only);
        latency_ms.add(bench::ms_since(start));

        start = clock_type::now();
        const auto aware = load::assign_bucket(plan, demand.offered_bucket(0, 400),
                                               capacity.per_front_end(),
                                               load::policy_kind::load_aware);
        aware_ms.add(bench::ms_since(start));
        shed = aware.shed;
        unserved = aware.unserved;
        if (lat.served_first + lat.shed != lat.offered ||
            aware.served_first + aware.shed != aware.offered) {
            std::cerr << "bench_load: conservation violated\n";
            return 1;
        }
    }
    report.add_scalar("load_aware.shed_400_conn", "conn", direction::lower_is_better, 0.0,
                      static_cast<double>(shed));
    report.add_scalar("load_aware.unserved_400_conn", "conn", direction::lower_is_better, 0.0,
                      static_cast<double>(unserved));

    std::cerr << "computing full frontier...\n";
    analysis::load_frontier_options options;
    options.demand = dplan;
    std::size_t points = 0;
    for (int i = 0; i < args.repeat; ++i) {
        const auto start = clock_type::now();
        const auto result =
            analysis::compute_load_frontier(w.cdn_net(), w.users(), tl, options, &pool);
        frontier_ms.add(bench::ms_since(start));
        points = result.points.size();
    }

    std::ostringstream info;
    info << "{\"locations\": " << demand.locations() << ", \"front_ends\": "
         << plan.front_ends() << ", \"rings\": " << plan.rings()
         << ", \"buckets\": " << demand.buckets() << ", \"frontier_points\": " << points
         << ", \"threads\": " << args.threads << "}";
    report.add_details("workload", info.str());
    return report.write_file_and_stdout(args.out_path);
}
