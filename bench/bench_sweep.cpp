// Sweep harness baseline: grid throughput plus the memory ceiling of the
// large tier.
//
//   * grid.build_ms           — fresh 2x2 small grid (peering x rings)
//     through run_grid, cells fanned across the pool
//   * grid.cells_per_minute   — the same measurement as a rate
//   * grid.cells              — cell count of the spec, unit "cells": a
//     machine-independent scalar gated at zero tolerance (a grid that
//     silently lost a cell is a regression on any host)
//   * resume.skip_ms          — second run over the finished grid: every
//     cell skips via the manifest, so this is the pure resume overhead
//   * large.build_ms          — one large-tier cell (~1.27B users, 330
//     front-ends, ~1.9M capture records), full pool width
//   * large.peak_rss_mb       — getrusage high-water after the large cell;
//     the bench itself FAILS (exit 1) if it crosses the hard ceiling, so
//     a world whose memory runs away cannot pass by reporting a big number
//
//   bench_sweep [--threads N] [--repeat R] [--out FILE]
#include <sys/resource.h>

#include <chrono>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#define AC_BENCH_NO_HARNESS
#include "bench/bench_common.h"
#include "src/sweep/driver.h"
#include "src/sweep/spec.h"

namespace {

using namespace ac;

using clock_type = std::chrono::steady_clock;

// Hard ceiling on resident memory after building the large cell. The large
// world holds all ~1.9M capture records (~45 MB) in memory plus the
// routing/user state, which sits well under 1 GiB; a materialized dataset
// that outgrows that at a future larger tier is the failure mode this guards.
constexpr long large_rss_ceiling_mb = 2048;

long peak_rss_mb() {
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return -1;
    return usage.ru_maxrss / 1024;  // ru_maxrss is KiB on Linux
}

sweep::grid_spec small_grid() {
    std::istringstream spec_text(
        "tier small\n"
        "seed 42\n"
        "dim peering 0.3 0.72\n"
        "dim rings 3 5\n");
    return sweep::parse_grid_spec(spec_text);
}

sweep::grid_spec large_cell() {
    std::istringstream spec_text("tier large\nseed 42\n");
    return sweep::parse_grid_spec(spec_text);
}

} // namespace

int main(int argc, char** argv) {
    const auto args =
        bench::bench_args::parse(argc, argv, "bench_sweep", 3, "BENCH_sweep.json");

    bench::report report{"sweep", "small+large", args.repeat};
    report.set_note("grid legs run a fresh 2x2 small grid (peering x rings) per repeat; "
                    "resume re-runs the finished grid (all cells skip); the large leg "
                    "builds one large-tier cell once and asserts the rusage "
                    "high-water stays under the hard ceiling");
    using bench::direction;
    auto& grid_ms = report.add_metric("grid.build_ms", "ms", direction::lower_is_better, 3.0);
    auto& grid_rate =
        report.add_metric("grid.cells_per_minute", "cpm", direction::higher_is_better, 0.75);
    auto& resume_ms =
        report.add_metric("resume.skip_ms", "ms", direction::lower_is_better, 3.0);

    const auto grid = small_grid();
    namespace fs = std::filesystem;
    const fs::path out_dir = fs::temp_directory_path() / "ac_bench_sweep_grid";

    std::cerr << "building " << grid.cell_count() << "-cell small grid x" << args.repeat
              << "...\n";
    sweep::sweep_options options;
    options.threads = args.threads;
    std::size_t built = 0;
    for (int i = 0; i < args.repeat; ++i) {
        fs::remove_all(out_dir);
        const auto start = clock_type::now();
        const auto result = sweep::run_grid(grid, out_dir.string(), options);
        const double wall = bench::ms_since(start);
        grid_ms.add(wall);
        grid_rate.add(static_cast<double>(result.built) / (wall / 60000.0));
        built = result.built;
        if (result.built != grid.cell_count()) {
            std::cerr << "bench_sweep: fresh grid built " << result.built << "/"
                      << grid.cell_count() << " cells\n";
            return 1;
        }
    }
    report.add_scalar("grid.cells", "cells", direction::higher_is_better, 0.0,
                      static_cast<double>(built));

    std::cerr << "resuming finished grid...\n";
    for (int i = 0; i < args.repeat; ++i) {
        const auto start = clock_type::now();
        const auto result = sweep::run_grid(grid, out_dir.string(), options);
        resume_ms.add(bench::ms_since(start));
        if (result.skipped != grid.cell_count()) {
            std::cerr << "bench_sweep: resume skipped " << result.skipped << "/"
                      << grid.cell_count() << " cells\n";
            return 1;
        }
    }
    fs::remove_all(out_dir);

    std::cerr << "building one large-tier cell...\n";
    const fs::path large_dir = fs::temp_directory_path() / "ac_bench_sweep_large";
    fs::remove_all(large_dir);
    const auto large_start = clock_type::now();
    const auto large_result = sweep::run_grid(large_cell(), large_dir.string(), options);
    const double large_wall = bench::ms_since(large_start);
    fs::remove_all(large_dir);
    if (large_result.built != 1) {
        std::cerr << "bench_sweep: large cell did not build\n";
        return 1;
    }
    const long rss_mb = peak_rss_mb();
    if (rss_mb < 0 || rss_mb > large_rss_ceiling_mb) {
        std::cerr << "bench_sweep: peak RSS " << rss_mb << " MiB exceeds the "
                  << large_rss_ceiling_mb << " MiB ceiling for the materialized large "
                  << "world\n";
        return 1;
    }
    report.add_scalar("large.build_ms", "ms", direction::lower_is_better, 3.0, large_wall);
    report.add_scalar("large.peak_rss_mb", "mb", direction::lower_is_better, 1.0,
                      static_cast<double>(rss_mb));

    std::ostringstream info;
    info << "{\"grid_cells\": " << grid.cell_count() << ", \"threads\": " << args.threads
         << ", \"rss_ceiling_mb\": " << large_rss_ceiling_mb << "}";
    report.add_details("workload", info.str());
    return report.write_file_and_stdout(args.out_path);
}
