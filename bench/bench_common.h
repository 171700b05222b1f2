// Shared bench scaffolding: every figure/table bench builds the same
// full-scale world (memoized per process) and prints its paper-style rows
// before running the google-benchmark timings. Performance is gated by
// perfbench (BENCHMARK.json), not here.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/render.h"
#include "src/core/world.h"

namespace ac::bench {

/// The full-scale 2018-DITL world, built once per process.
inline const core::world& world_2018() {
    static const core::world instance{core::world_config{}};
    return instance;
}

/// The 2020-DITL world (App. B.3 / Fig. 11).
inline const core::world& world_2020() {
    static const core::world instance = [] {
        core::world_config config;
        config.year = core::ditl_year::y2020;
        return core::world{std::move(config)};
    }();
    return instance;
}

} // namespace ac::bench

/// Main for figure benches: prints the figure, then runs timings.
#define AC_BENCH_MAIN(print_fn)                                   \
    int main(int argc, char** argv) {                             \
        ::benchmark::Initialize(&argc, argv);                     \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv)) \
            return 1;                                             \
        print_fn(std::cout);                                      \
        ::benchmark::RunSpecifiedBenchmarks();                    \
        ::benchmark::Shutdown();                                  \
        return 0;                                                 \
    }
