// Columnar kernel baseline over small-world data. Times
//
//   * a sequential sum over the per-letter DITL qpd columns, decoded once
//     from a small-world snapshot image (the load-time decode is untimed),
//   * group-by over the server-log ASN column (the span radix-sort path), and
//   * the big DITL /24 join sort (serial LSD radix permutation),
//
// and exports an ac-bench-v1 BENCH_table.json gated by ci/check_bench.py.
//
//   bench_table [--repeat R] [--out FILE]
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <utility>
#include <vector>

#define AC_BENCH_NO_HARNESS
#include "bench/bench_common.h"
#include "src/core/world.h"
#include "src/snapshot/world_io.h"
#include "src/table/table.h"

namespace {

using namespace ac;

/// Keeps results observable so the compiler cannot drop a timed pass.
volatile double g_sink = 0.0;

void time_into(bench::metric& samples, int repeat, const auto& fn) {
    for (int i = 0; i < repeat; ++i) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        samples.add(bench::ms_since(start));
    }
}

/// Scans are microseconds on the small world; loop them inside each timed
/// pass so one sample is comfortably above timer resolution.
constexpr int scan_loops = 50;

/// The join key column is the small world's /24 keys tiled to at least this
/// many rows, so one sort is long enough to time.
constexpr std::size_t join_min_rows = std::size_t{1} << 16;

} // namespace

int main(int argc, char** argv) {
    const auto args = bench::bench_args::parse(argc, argv, "bench_table", 5, "BENCH_table.json");

    std::cerr << "building small world (serial)...\n";
    auto config = core::world_config::small();
    config.threads = 1;
    const core::world w{std::move(config)};

    std::cerr << "archiving + reopening (encoded columns decode on load)...\n";
    const auto bundle = snapshot::bundle::from_bytes(snapshot::encode_world(w));

    // One qpd column per DITL letter (delta-encoded on disk).
    std::vector<table::column<double>> qpd;
    const auto letter_count = bundle->scalar<std::uint32_t>("ditl/letter_count");
    for (std::uint32_t i = 0; i < letter_count; ++i) {
        qpd.push_back(bundle->typed_column<double>("ditl/" + std::to_string(i) + "/rec/qpd"));
    }

    // The server ASN key column (dictionary-encoded on disk).
    const auto asn = bundle->typed_column<std::uint32_t>("server/asn");

    // The DITL /24 join key column, concatenated across letters, then tiled.
    std::vector<std::uint32_t> base_keys;
    for (const auto& t : w.filtered_tables()) {
        for (const std::uint32_t ip : t.source_ip.view()) base_keys.push_back(ip >> 8);
    }
    std::vector<std::uint32_t> s24;
    while (s24.size() < join_min_rows) {
        s24.insert(s24.end(), base_keys.begin(), base_keys.end());
    }

    bench::report report{"table", "small", args.repeat};
    report.set_note("scan = sum x" + std::to_string(scan_loops) +
                    " over columns decoded once from the snapshot image; "
                    "join sort = serial LSD radix permutation");
    using bench::direction;

    std::cerr << "timing scans...\n";
    auto& plain_scan = report.add_metric("scan.plain_ms", "ms", direction::lower_is_better, 2.0);
    time_into(plain_scan, args.repeat, [&] {
        double total = 0.0;
        for (int loop = 0; loop < scan_loops; ++loop) {
            for (const auto& col : qpd) {
                for (const double v : col.view()) total += v;
            }
        }
        g_sink = total;
    });

    std::cerr << "timing group-by...\n";
    auto& span_groupby =
        report.add_metric("groupby.span_sort_ms", "ms", direction::lower_is_better, 2.0);
    time_into(span_groupby, args.repeat, [&] {
        for (int loop = 0; loop < scan_loops; ++loop) {
            const auto g = table::make_grouping(asn.view());
            g_sink = static_cast<double>(g.groups());
        }
    });

    std::cerr << "timing join sort over " << s24.size() << " keys...\n";
    auto& serial_sort =
        report.add_metric("join.serial_sort_ms", "ms", direction::lower_is_better, 2.0);
    time_into(serial_sort, args.repeat, [&] {
        for (int loop = 0; loop < scan_loops; ++loop) {
            const auto perm = table::sort_permutation(std::span<const std::uint32_t>{s24});
            g_sink = static_cast<double>(perm.size());
        }
    });

    std::ostringstream info;
    info << "{\"join_rows\": " << s24.size() << "}";
    report.add_details("workload", info.str());
    return report.write_file_and_stdout(args.out_path);
}
