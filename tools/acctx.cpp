// acctx — the anycast-context command line.
//
// One binary to build worlds, run the paper's analyses, and archive and
// re-analyze DITL captures:
//
//   acctx world    [--seed N] [--scale small|medium|large] [--year 2018|2020]
//                  [--threads N] [--timing]
//   acctx inflation [...]           Fig. 2-style root inflation summary
//   acctx amortize  [...]           Fig. 3-style queries/user/day summary
//   acctx cdn       [...]           Fig. 5-style CDN inflation summary
//   acctx export    [...] --out F   archive the DITL dataset as a DITL snapshot
//   acctx analyze   --in F          filter + summarize the DITL captures of any
//                                   snapshot (DITL-only or full world)
//   acctx snapshot  [...] --out F   build a world and archive it as a snapshot
//   acctx snapshot  --info F        print an existing snapshot's section table
//   acctx report    [...] --out DIR write plot-ready CSVs for every figure
//   acctx scenario  [...] --timeline F [--letters KF] [--out CSV]
//                                   replay a failover event timeline and
//                                   re-measure catchment/latency per step
//   acctx serve     --snapshot F [--port N] [--threads N]
//                                   long-running query service over a world
//                                   snapshot (HTTP/1.1 JSON; DESIGN §13);
//                                   --grid F writes the differential CSV
//                                   offline and exits instead
//   acctx load      [--policy latency|load-aware|both] [--demand TIMELINE]
//                   [--headroom H|inf] [--out CSV] [--from-snapshot F]
//                                   latency-vs-load frontier: latency-only vs
//                                   FastRoute-style load-aware assignment
//                                   across demand levels (DESIGN §14)
//   acctx sweep     --grid SPEC --out DIR [--threads N] [--max-cells N]
//                                   build every cell of a grid spec (one
//                                   snapshot + metrics JSON + figure-CSV
//                                   bundle per cell) with a resumable
//                                   manifest; byte-identical at any thread
//                                   count (DESIGN §15)
//
// World scale is a named tier: --scale small|medium|large ("full" is a
// legacy alias for medium, the paper-scale default).
//
// Every world-building command accepts --threads N (0 = hardware
// concurrency, 1 = serial, at most 256); thread count never changes output
// bytes. Numeric flags take decimal digits within their range or fail with a
// usage error naming the flag.
//
// The analysis commands (inflation/amortize/cdn/report) also accept
// --from-snapshot FILE: datasets load from the archive instead of being
// synthesized, and figures are byte-identical to a live build with the
// archived config. --from-snapshot conflicts with --seed/--scale/--year
// (the archive pins them); --threads still applies (it never changes bytes).
//
// Every command accepts --trace FILE (Chrome trace_event JSON of all
// instrumented spans) and --metrics-json FILE (the process metrics
// registry); observability never changes output bytes (DESIGN §10).
//
#include <algorithm>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/inflation.h"
#include "src/analysis/join.h"
#include "src/analysis/load_frontier.h"
#include "src/core/render.h"
#include "src/core/report.h"
#include "src/core/world.h"
#include "src/netbase/strfmt.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/scenario/driver.h"
#include "src/serve/http.h"
#include "src/serve/query_engine.h"
#include "src/snapshot/world_io.h"
#include "src/sweep/driver.h"

namespace {

using namespace ac;

struct cli_options {
    std::string command;
    std::uint64_t seed = 42;
    core::scale_tier tier = core::scale_tier::medium;
    core::ditl_year year = core::ditl_year::y2018;
    int threads = 0;
    bool timing = false;
    std::optional<std::string> in_path;
    std::optional<std::string> out_path;
    std::optional<std::string> info_path;
    std::optional<std::string> from_snapshot;
    std::optional<std::string> trace_path;
    std::optional<std::string> metrics_path;
    std::optional<std::string> timeline_path;
    std::optional<std::string> demand_path;    // load: demand-event timeline
    std::string policy = "both";               // load: latency|load-aware|both
    double headroom = 1.3;                     // load: fleet capacity multiple
    bool headroom_unlimited = false;           // load: --headroom inf
    std::optional<std::string> snapshot_path;  // serve: the world to open
    std::optional<std::string> grid_path;      // serve: offline grid CSV, then exit
    std::size_t grid_stride = 1;
    std::size_t max_cells = 0;  // sweep: stop after N built cells (0 = all)
    std::uint16_t port = 0;  // serve: 0 = kernel-assigned ephemeral port
    bool dry_run = false;    // serve: bind + echo the port, then exit
    std::string letters = "K";
    bool threads_set = false;
    bool world_knob_set = false;  // --seed/--scale/--year seen explicitly
};

/// Largest accepted --threads. The pool starts every worker up front, so the
/// cap bounds how many OS threads one flag can start; it is far above the
/// core counts the thread-scaling work targets.
constexpr unsigned long long max_threads = 256;

[[noreturn]] void usage(int code) {
    std::cerr << "usage: acctx "
                 "<world|inflation|amortize|cdn|export|analyze|snapshot|report|scenario|"
                 "serve|load|sweep>\n"
              << "             [--seed N] [--scale small|medium|large] [--year 2018|2020]\n"
              << "             [--threads N] [--timing] [--in FILE] [--out FILE]\n"
              << "             [--from-snapshot FILE] [--timeline FILE] [--letters STR]\n"
              << "             [--info FILE]\n"
              << "  --threads N       construction threads (0 = hardware concurrency,\n"
              << "                    1 = serial, at most " << max_threads
              << "); output is identical at any N\n"
              << "  --timing          with 'world': print the per-stage build report as JSON\n"
              << "  --from-snapshot F analysis commands: load datasets from a snapshot\n"
              << "                    (conflicts with --seed/--scale/--year)\n"
              << "  --info F          snapshot: print the section table (name, type,\n"
              << "                    encoding, raw vs stored bytes, checksum) and totals\n"
              << "  --trace F         any command: write a Chrome trace_event JSON of every\n"
              << "                    instrumented span (load at chrome://tracing); output\n"
              << "                    bytes are unchanged by tracing\n"
              << "  --metrics-json F  any command: write the process metrics registry\n"
              << "                    snapshot (ac-metrics-v1 JSON) at exit\n"
              << "  --timeline F      scenario: event timeline file, one event per line:\n"
              << "                    '<step> drain|restore|prepend|promote|demote <letter>\n"
              << "                    <site> [n]', '<step> withdraw|announce <letter>', or\n"
              << "                    '<step> outage <region>'; demand events:\n"
              << "                    '<step> demand-level <pct>',\n"
              << "                    '<step> demand-diurnal <amplitude_pct> <period>',\n"
              << "                    '<step> demand-flash <region> <pct> <duration>',\n"
              << "                    '<step> demand-hotspot <region> <pct>'. Two same-step\n"
              << "                    events on the same target/region/knob with different\n"
              << "                    payloads are a parse error (order-dependent)\n"
              << "  --demand F        load: demand-event timeline shaping offered load per\n"
              << "                    bucket (demand-* events only; see --timeline)\n"
              << "  --policy P        load: latency | load-aware | both (default both;\n"
              << "                    single-policy CSVs omit the policy column)\n"
              << "  --headroom H      load: fleet capacity as a multiple of nominal demand\n"
              << "                    (default 1.3), or 'inf' for unlimited capacity\n"
              << "  --letters STR     scenario: letters to drive, e.g. KF ('all' = every\n"
              << "                    letter); default K\n"
              << "  --snapshot F      serve: the world snapshot to serve (required)\n"
              << "  --port N          serve: TCP port on 127.0.0.1 (0 = ephemeral; the\n"
              << "                    bound port is echoed as 'serving on port N')\n"
              << "  --grid F          serve: write the point-query grid CSV offline and\n"
              << "                    exit (the same bytes GET /grid serves);\n"
              << "                    sweep: the grid spec file (tier/seed/year/dim lines)\n"
              << "  --grid-stride N   serve: emit every N-th grid row (default 1)\n"
              << "  --dry-run         serve: bind, echo the port, exit without serving\n"
              << "  --max-cells N     sweep: stop after building N cells (the manifest\n"
              << "                    stays valid; a later run resumes from it)\n";
    std::exit(code);
}

/// Flags each command accepts, keyed by every command acctx knows. A flag
/// that exists but does not apply to the chosen command is a hard error, not
/// a silent no-op: a typo like `acctx analyze --out F` would otherwise run
/// and discard the flag.
const std::map<std::string, std::vector<std::string>>& command_flags() {
    static const std::map<std::string, std::vector<std::string>> flags{
        {"world", {"--seed", "--scale", "--year", "--threads", "--timing"}},
        {"inflation", {"--seed", "--scale", "--year", "--threads", "--from-snapshot"}},
        {"amortize", {"--seed", "--scale", "--year", "--threads", "--from-snapshot"}},
        {"cdn", {"--seed", "--scale", "--year", "--threads", "--from-snapshot"}},
        {"export", {"--seed", "--scale", "--year", "--threads", "--out"}},
        {"snapshot", {"--seed", "--scale", "--year", "--threads", "--out", "--info"}},
        {"report", {"--seed", "--scale", "--year", "--threads", "--out", "--from-snapshot"}},
        {"scenario", {"--seed", "--scale", "--year", "--threads", "--out", "--from-snapshot",
                      "--timeline", "--letters"}},
        {"analyze", {"--in"}},
        {"serve",
         {"--snapshot", "--port", "--threads", "--grid", "--grid-stride", "--dry-run"}},
        {"load", {"--seed", "--scale", "--year", "--threads", "--out", "--from-snapshot",
                  "--demand", "--policy", "--headroom"}},
        {"sweep", {"--grid", "--out", "--threads", "--max-cells"}},
    };
    return flags;
}

bool flag_applies(const std::string& command, const std::string& flag) {
    // Observability flags apply to every command: they only add output files,
    // never change what a command computes.
    if (flag == "--trace" || flag == "--metrics-json") return true;
    const auto it = command_flags().find(command);
    if (it == command_flags().end()) return false;
    return std::find(it->second.begin(), it->second.end(), flag) != it->second.end();
}

/// True when some command accepts `flag`.
bool known_flag(const std::string& flag) {
    return std::any_of(command_flags().begin(), command_flags().end(), [&](const auto& entry) {
        return flag_applies(entry.first, flag);
    });
}

/// Parses a numeric flag's value: decimal digits only (no sign, no trailing
/// text) and within [min, max]. Anything else is a usage error naming the
/// flag, never a silently truncated or wrapped value.
unsigned long long parse_int_flag(const std::string& command, const std::string& flag,
                                  const std::string& value, unsigned long long min,
                                  unsigned long long max) {
    const char* const end = value.data() + value.size();
    unsigned long long n = 0;
    const auto [ptr, ec] = std::from_chars(value.data(), end, n);
    if (ec != std::errc{} || ptr != end || n < min || n > max) {
        std::cerr << "acctx " << command << ": " << flag << " needs "
                  << (min == 1 ? "a positive integer" : "an integer") << " in [" << min
                  << ", " << max << "], got '" << value << "'\n";
        usage(2);
    }
    return n;
}

cli_options parse_args(int argc, char** argv) {
    if (argc < 2) usage(2);
    cli_options options;
    options.command = argv[1];
    if (options.command == "--help" || options.command == "-h") usage(0);
    if (!command_flags().contains(options.command)) {
        std::cerr << "acctx: unknown command '" << options.command << "'\n";
        usage(2);
    }
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(2);
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") usage(0);
        if (known_flag(arg) && !flag_applies(options.command, arg)) {
            std::cerr << "acctx " << options.command << ": option " << arg
                      << " does not apply\n";
            usage(2);
        }
        auto number = [&](unsigned long long min, unsigned long long max) {
            return parse_int_flag(options.command, arg, value(), min, max);
        };
        if (arg == "--seed") {
            options.seed = number(0, std::numeric_limits<std::uint64_t>::max());
            options.world_knob_set = true;
        } else if (arg == "--scale") {
            const auto v = value();
            const auto tier = core::parse_scale_tier(v);
            if (!tier) {
                std::cerr << "acctx: unknown scale '" << v
                          << "' (expected small, medium, large, or the legacy alias full)\n";
                usage(2);
            }
            options.tier = *tier;
            options.world_knob_set = true;
        } else if (arg == "--year") {
            const auto v = value();
            if (v == "2018") {
                options.year = core::ditl_year::y2018;
            } else if (v == "2020") {
                options.year = core::ditl_year::y2020;
            } else {
                usage(2);
            }
            options.world_knob_set = true;
        } else if (arg == "--threads") {
            options.threads = static_cast<int>(number(0, max_threads));
            options.threads_set = true;
        } else if (arg == "--timing") {
            options.timing = true;
        } else if (arg == "--in") {
            options.in_path = value();
        } else if (arg == "--out") {
            options.out_path = value();
        } else if (arg == "--info") {
            options.info_path = value();
        } else if (arg == "--from-snapshot") {
            options.from_snapshot = value();
        } else if (arg == "--trace") {
            options.trace_path = value();
        } else if (arg == "--metrics-json") {
            options.metrics_path = value();
        } else if (arg == "--timeline") {
            options.timeline_path = value();
        } else if (arg == "--demand") {
            options.demand_path = value();
        } else if (arg == "--policy") {
            options.policy = value();
            if (options.policy != "latency" && options.policy != "load-aware" &&
                options.policy != "both") {
                std::cerr << "acctx load: unknown policy '" << options.policy
                          << "' (expected latency, load-aware, or both)\n";
                usage(2);
            }
        } else if (arg == "--headroom") {
            const auto v = value();
            if (v == "inf") {
                options.headroom_unlimited = true;
            } else {
                char* end = nullptr;
                options.headroom = std::strtod(v.c_str(), &end);
                if (v.empty() || end == nullptr || *end != '\0' || !(options.headroom > 0.0)) {
                    std::cerr << "acctx load: --headroom needs a positive number or 'inf'\n";
                    usage(2);
                }
            }
        } else if (arg == "--snapshot") {
            options.snapshot_path = value();
        } else if (arg == "--grid") {
            options.grid_path = value();
        } else if (arg == "--grid-stride") {
            options.grid_stride = number(1, std::numeric_limits<std::size_t>::max());
        } else if (arg == "--max-cells") {
            options.max_cells = number(1, std::numeric_limits<std::size_t>::max());
        } else if (arg == "--port") {
            options.port = static_cast<std::uint16_t>(number(0, 65535));
        } else if (arg == "--dry-run") {
            options.dry_run = true;
        } else if (arg == "--letters") {
            options.letters = value();
            if (options.letters.empty()) {
                std::cerr << "acctx scenario: --letters needs at least one letter\n";
                usage(2);
            }
        } else {
            std::cerr << "acctx: unknown option " << arg << "\n";
            usage(2);
        }
    }
    if (options.from_snapshot && options.world_knob_set) {
        std::cerr << "acctx " << options.command
                  << ": --from-snapshot conflicts with --seed/--scale/--year (the "
                     "snapshot pins the world config)\n";
        usage(2);
    }
    return options;
}

core::world build_world(const cli_options& options) {
    if (options.from_snapshot) {
        std::cerr << "loading snapshot " << *options.from_snapshot << "...\n";
        auto bundle = snapshot::bundle::open(*options.from_snapshot,
                                             snapshot::load_mode::mapped);
        return snapshot::hydrate_world(std::move(bundle),
                                       options.threads_set ? options.threads : -1);
    }
    auto config = core::world_config::for_tier(options.tier);
    config.seed = options.seed;
    config.year = options.year;
    config.threads = options.threads;
    std::cerr << "building " << core::to_string(options.tier) << " world (seed "
              << config.seed << ", "
              << (config.year == core::ditl_year::y2018 ? "2018" : "2020") << ")...\n";
    return core::world{std::move(config)};
}

int cmd_world(const cli_options& options) {
    const auto w = build_world(options);
    std::cout << "regions:      " << w.regions().size() << "\n";
    std::cout << "ASes:         " << w.graph().as_count() << " (" << w.graph().link_count()
              << " links)\n";
    std::cout << "users:        " << strfmt::fixed(w.users().total_users() / 1e6, 1)
              << "M across " << w.users().locations().size() << " <region, AS> locations\n";
    std::cout << "recursives:   " << w.users().recursives().size() << " /24s\n";
    std::cout << "DITL letters: " << w.ditl().letters.size() << ", "
              << strfmt::fixed(w.ditl().total_queries_per_day() / 1e9, 2)
              << "B queries/day\n";
    std::cout << "CDN:          " << w.cdn_net().front_end_regions().size()
              << " front-ends, " << w.cdn_net().ring_count() << " rings\n";
    std::cout << "Atlas probes: " << w.fleet().probes().size() << " in "
              << w.fleet().as_coverage() << " ASes\n";
    if (options.timing) {
        w.timing().write_json(std::cout);
        auto stats = w.cdn_net().pop_rib().select_cache_stats();
        std::size_t frozen_ribs = stats.frozen ? 1 : 0;
        for (char letter : w.roots().all_letters()) {
            const auto s = w.roots().deployment_of(letter).rib().select_cache_stats();
            stats.hits += s.hits;
            stats.misses += s.misses;
            stats.invalidations += s.invalidations;
            stats.frozen_hits += s.frozen_hits;
            stats.frozen_misses += s.frozen_misses;
            frozen_ribs += s.frozen ? 1 : 0;
        }
        // hit_rate() is zero-query safe (0 lookups -> 0.0, never NaN), so a
        // world built with routing disabled still prints a finite rate.
        std::cout << "route cache:  " << stats.hits << "/" << (stats.hits + stats.misses)
                  << " select hits (" << strfmt::fixed(100.0 * stats.hit_rate(), 1)
                  << "% hit rate across all ribs, " << stats.invalidations
                  << " invalidated)\n";
        std::cout << "frozen cache: " << frozen_ribs << " sealed ribs, "
                  << stats.frozen_hits << " wait-free hits, " << stats.frozen_misses
                  << " fell through\n";
    }
    return 0;
}

int cmd_sweep(const cli_options& options) {
    if (!options.grid_path) {
        std::cerr << "acctx sweep: --grid FILE required\n";
        return 2;
    }
    if (!options.out_path) {
        std::cerr << "acctx sweep: --out DIR required\n";
        return 2;
    }
    const auto spec = sweep::parse_grid_spec_file(*options.grid_path);
    std::cerr << "sweep: " << spec.cell_count() << " cells (tier "
              << core::to_string(spec.tier) << ", seed " << spec.seed << ") -> "
              << *options.out_path << "\n";
    sweep::sweep_options sopt;
    sopt.threads = options.threads;
    sopt.max_cells = options.max_cells;
    sopt.progress = &std::cerr;
    const auto result = sweep::run_grid(spec, *options.out_path, sopt);
    // Machine-parsable summary on stdout (the progress chatter is stderr).
    std::cout << "sweep: " << result.cells.size() << " cells (" << result.built << " built, "
              << result.skipped << " skipped, " << result.pending << " pending) -> "
              << *options.out_path << "\n";
    return 0;
}

int cmd_serve(const cli_options& options) {
    if (!options.snapshot_path) {
        std::cerr << "acctx serve: --snapshot FILE required\n";
        return 2;
    }
    std::cerr << "opening " << *options.snapshot_path << "...\n";
    const auto engine = serve::query_engine::open(*options.snapshot_path, options.threads);
    std::cerr << "indexes ready: " << engine.index().asns().size() << " ASes, "
              << engine.index().slash24_keys().size() << " /24s, "
              << engine.frozen_entries() << " selects sealed\n";

    if (options.grid_path) {
        // Offline differential surface: the same bytes GET /grid serves.
        std::string csv;
        engine.grid_csv(options.grid_stride, csv);
        std::ofstream out{*options.grid_path, std::ios::binary};
        if (!out.write(csv.data(), static_cast<std::streamsize>(csv.size()))) {
            std::cerr << "acctx: cannot write " << *options.grid_path << "\n";
            return 1;
        }
        std::cerr << "wrote grid (" << csv.size() << " bytes, stride "
                  << options.grid_stride << ") to " << *options.grid_path << "\n";
        return 0;
    }

    serve::http_server server{engine, {.port = options.port}};
    // The port line goes to stdout (tests and scripts parse it); progress
    // chatter stays on stderr like every other command.
    std::cout << "serving on port " << server.port() << "\n" << std::flush;
    if (options.dry_run) return 0;
    server.run();
    return 0;
}

int cmd_scenario(const cli_options& options) {
    if (!options.timeline_path) {
        std::cerr << "acctx scenario: --timeline FILE required\n";
        return 2;
    }
    std::ifstream timeline_file{*options.timeline_path};
    if (!timeline_file) {
        std::cerr << "acctx: cannot open " << *options.timeline_path << "\n";
        return 1;
    }
    scenario::timeline tl;
    try {
        tl = scenario::parse_timeline(timeline_file);
    } catch (const scenario::timeline_error& e) {
        std::cerr << "acctx scenario: " << e.what() << "\n";
        return 2;
    }

    auto w = build_world(options);  // non-const: the timeline mutates letter RIBs
    scenario::driver drv{w.graph(), w.regions()};
    std::string letters = options.letters;
    if (letters == "all") {
        letters.clear();
        for (const char l : w.roots().all_letters()) letters.push_back(l);
    }
    try {
        for (const char l : letters) {
            drv.add_target(std::string{l}, w.mutable_roots().mutable_deployment_of(l));
        }
    } catch (const std::out_of_range& e) {
        std::cerr << "acctx scenario: " << e.what() << "\n";
        return 2;
    }
    std::vector<scenario::weighted_source> sources;
    sources.reserve(w.users().locations().size());
    for (const auto& loc : w.users().locations()) {
        sources.push_back(scenario::weighted_source{loc.asn, loc.region, loc.users});
    }
    drv.set_sources(std::move(sources));

    scenario::driver_options drv_options;
    drv_options.pool = w.pool();
    drv_options.threads = w.timing().threads;
    std::vector<scenario::step_metrics> steps;
    try {
        steps = drv.run(tl, drv_options);
    } catch (const scenario::timeline_error& e) {
        std::cerr << "acctx scenario: " << e.what() << "\n";
        return 2;
    }
    scenario::print_step_series(std::cout, steps);
    if (options.out_path) {
        std::ofstream out{*options.out_path};
        if (!out) {
            std::cerr << "acctx: cannot open " << *options.out_path << " for writing\n";
            return 1;
        }
        scenario::write_step_csv(out, steps);
        std::cout << "wrote " << steps.size() << " steps to " << *options.out_path << "\n";
    }
    return 0;
}

int cmd_load(const cli_options& options) {
    scenario::timeline tl;
    if (options.demand_path) {
        std::ifstream timeline_file{*options.demand_path};
        if (!timeline_file) {
            std::cerr << "acctx: cannot open " << *options.demand_path << "\n";
            return 1;
        }
        try {
            tl = scenario::parse_timeline(timeline_file);
        } catch (const scenario::timeline_error& e) {
            std::cerr << "acctx load: " << e.what() << "\n";
            return 2;
        }
        for (const auto& e : tl.events) {
            if (!scenario::is_demand_event(e.type)) {
                std::cerr << "acctx load: --demand takes demand-* events only; '"
                          << e.describe()
                          << "' is a routing event (replay it with acctx scenario)\n";
                return 2;
            }
        }
    }

    const auto w = build_world(options);
    analysis::load_frontier_options frontier_options;
    frontier_options.capacity.headroom = options.headroom;
    frontier_options.capacity.unlimited = options.headroom_unlimited;
    frontier_options.demand.connections_per_user = w.config().telemetry.connections_per_user;
    frontier_options.run_latency_only = options.policy != "load-aware";
    frontier_options.run_load_aware = options.policy != "latency";

    analysis::load_frontier_result result;
    try {
        result = analysis::compute_load_frontier(w.cdn_net(), w.users(), tl,
                                                 frontier_options, w.pool());
    } catch (const scenario::timeline_error& e) {
        std::cerr << "acctx load: " << e.what() << "\n";
        return 2;
    }

    std::cout << "front-ends: " << result.capacity_conn.size() << ", fleet capacity ";
    if (options.headroom_unlimited) {
        std::cout << "unlimited";
    } else {
        std::cout << result.total_capacity_conn << " conn/bucket ("
                  << strfmt::fixed(options.headroom, 2) << "x nominal "
                  << result.nominal_conn << ")";
    }
    std::cout << "\ndemand: " << result.locations << " locations ("
              << result.reachable_locations << " reachable), " << result.buckets
              << " bucket(s)\n";
    for (const auto& p : result.points) {
        if (p.bucket != 0) continue;
        std::cout << "  " << load::policy_name(p.policy) << " @" << p.level_pct
                  << "%: p50 " << strfmt::fixed(p.p50_ms, 1) << " ms, p95 "
                  << strfmt::fixed(p.p95_ms, 1) << " ms, overload "
                  << strfmt::fixed(100.0 * p.overload_fraction, 1) << "%, shed "
                  << strfmt::fixed(100.0 * p.shed_fraction, 1) << "%\n";
    }

    if (options.out_path) {
        std::ofstream out{*options.out_path, std::ios::binary};
        if (!out) {
            std::cerr << "acctx: cannot open " << *options.out_path << " for writing\n";
            return 1;
        }
        std::optional<load::policy_kind> only;
        if (options.policy == "latency") only = load::policy_kind::latency_only;
        if (options.policy == "load-aware") only = load::policy_kind::load_aware;
        analysis::write_load_frontier_csv(out, result, only);
        std::cout << "wrote load frontier (" << result.points.size() << " points, "
                  << options.policy << ") to " << *options.out_path << "\n";
    }
    return 0;
}

int cmd_inflation(const cli_options& options) {
    const auto w = build_world(options);
    const auto result = analysis::compute_root_inflation(
        w.filtered_tables(), w.roots(), w.geodb(), w.cdn_user_counts(), {}, w.pool());
    std::cout << "geographic inflation per root query (ms):\n";
    for (const auto& [letter, cdf] : result.geographic) {
        core::print_cdf_row(std::cout, std::string{letter}, cdf);
    }
    core::print_cdf_row(std::cout, "All Roots", result.geographic_all_roots);
    std::cout << "latency inflation per root query (ms):\n";
    for (const auto& [letter, cdf] : result.latency) {
        core::print_cdf_row(std::cout, std::string{letter}, cdf);
    }
    core::print_cdf_row(std::cout, "All Roots", result.latency_all_roots);
    return 0;
}

int cmd_amortize(const cli_options& options) {
    const auto w = build_world(options);
    const auto result = analysis::compute_amortization(
        w.filtered_tables(), w.users(), w.cdn_user_counts(), w.apnic_user_counts(),
        w.as_mapper(), w.config().query_model, {}, w.pool());
    core::print_cdf_row(std::cout, "Ideal", result.ideal, "q/user/day");
    core::print_cdf_row(std::cout, "CDN", result.cdn, "q/user/day");
    core::print_cdf_row(std::cout, "APNIC", result.apnic, "q/user/day");
    return 0;
}

int cmd_cdn(const cli_options& options) {
    const auto w = build_world(options);
    const auto result = analysis::compute_cdn_inflation(w.server_log_table(), w.cdn_net());
    for (int ring = 0; ring < w.cdn_net().ring_count(); ++ring) {
        core::print_cdf_row(std::cout, w.cdn_net().ring_name(ring) + " geographic",
                            result.geographic_by_ring[static_cast<std::size_t>(ring)]);
        core::print_cdf_row(std::cout, w.cdn_net().ring_name(ring) + " latency",
                            result.latency_by_ring[static_cast<std::size_t>(ring)]);
    }
    return 0;
}

int cmd_export(const cli_options& options) {
    if (!options.out_path) {
        std::cerr << "acctx export: --out FILE required\n";
        return 2;
    }
    const auto w = build_world(options);
    snapshot::save_ditl(w.ditl(), *options.out_path);
    std::cout << "wrote " << w.ditl().letters.size() << " letter captures to "
              << *options.out_path << "\n";
    return 0;
}

const char* elem_type_name(snapshot::elem_type t) {
    switch (t) {
        case snapshot::elem_type::raw: return "raw";
        case snapshot::elem_type::u8: return "u8";
        case snapshot::elem_type::u32: return "u32";
        case snapshot::elem_type::u64: return "u64";
        case snapshot::elem_type::i32: return "i32";
        case snapshot::elem_type::i64: return "i64";
        case snapshot::elem_type::f64: return "f64";
    }
    return "?";
}

/// `acctx snapshot --info FILE`: the section table of an existing snapshot
/// (name, type, encoding, decoded vs stored bytes, checksum) plus totals.
int print_snapshot_info(const std::string& path) {
    const auto bundle = snapshot::bundle::open(path);
    std::cout << std::left << std::setw(36) << "section" << std::setw(6) << "type"
              << std::setw(8) << "encoding" << std::right << std::setw(12) << "raw_bytes"
              << std::setw(14) << "stored_bytes" << "  checksum\n";
    std::uint64_t raw_total = 0;
    std::uint64_t stored_total = 0;
    for (const auto& s : bundle->sections()) {
        // raw(=decoded) size: element count times element size; raw-typed
        // sections are already byte blobs.
        const std::uint64_t raw_bytes =
            s.type == snapshot::elem_type::raw ? s.payload_bytes : s.rows * s.elem_size;
        raw_total += raw_bytes;
        stored_total += s.payload_bytes;
        std::cout << std::left << std::setw(36) << s.name << std::setw(6)
                  << elem_type_name(s.type) << std::setw(8)
                  << table::enc::encoding_name(s.encoding) << std::right << std::setw(12)
                  << raw_bytes << std::setw(14) << s.payload_bytes << "  " << std::hex
                  << std::setfill('0') << std::setw(16) << s.checksum << std::dec
                  << std::setfill(' ') << "\n";
    }
    const double ratio = bundle->file_bytes() > 0
                             ? static_cast<double>(raw_total) /
                                   static_cast<double>(bundle->file_bytes())
                             : 0.0;
    std::cout << bundle->sections().size() << " sections (container v"
              << bundle->container_version() << "): raw " << raw_total << " bytes, stored "
              << stored_total << " bytes, file " << bundle->file_bytes() << " bytes ("
              << std::fixed << std::setprecision(2) << ratio << "x raw/file)\n";
    return 0;
}

int cmd_snapshot(const cli_options& options) {
    if (options.info_path) {
        if (options.out_path) {
            std::cerr << "acctx snapshot: --info and --out are mutually exclusive\n";
            return 2;
        }
        return print_snapshot_info(*options.info_path);
    }
    if (!options.out_path) {
        std::cerr << "acctx snapshot: --out FILE required\n";
        return 2;
    }
    const auto w = build_world(options);
    snapshot::save_world(w, *options.out_path);
    const auto bundle = snapshot::bundle::open(*options.out_path);
    std::cout << "wrote " << bundle->sections().size() << " sections ("
              << bundle->file_bytes() << " bytes) to " << *options.out_path << "\n";
    return 0;
}

int cmd_report(const cli_options& options) {
    if (!options.out_path) {
        std::cerr << "acctx report: --out DIR required\n";
        return 2;
    }
    const auto w = build_world(options);
    const auto files = core::write_figure_csvs(w, *options.out_path);
    for (const auto& f : files) std::cout << "wrote " << f << "\n";
    return 0;
}

int cmd_analyze(const cli_options& options) {
    if (!options.in_path) {
        std::cerr << "acctx analyze: --in FILE required\n";
        return 2;
    }
    const auto dataset = snapshot::read_ditl(*snapshot::bundle::open(*options.in_path));
    std::cout << "letters: " << dataset.letters.size() << ", total "
              << strfmt::fixed(dataset.total_queries_per_day() / 1e9, 3)
              << "B queries/day\n";
    for (const auto& filtered : capture::filter_all(dataset)) {
        std::cout << "  " << filtered.letter << ": raw "
                  << strfmt::fixed(filtered.stats.raw_queries_per_day / 1e6, 1)
                  << "M/day, kept " << strfmt::fixed(filtered.stats.kept / 1e6, 1)
                  << "M/day (invalid "
                  << strfmt::fixed(100.0 * filtered.stats.invalid_dropped /
                                       filtered.stats.raw_queries_per_day,
                                   0)
                  << "%, ptr "
                  << strfmt::fixed(100.0 * filtered.stats.ptr_dropped /
                                       filtered.stats.raw_queries_per_day,
                                   0)
                  << "%, ipv6 "
                  << strfmt::fixed(100.0 * filtered.stats.ipv6_dropped /
                                       filtered.stats.raw_queries_per_day,
                                   0)
                  << "%)\n";
    }
    return 0;
}

} // namespace

int run_command(const cli_options& options) {
    if (options.command == "world") return cmd_world(options);
    if (options.command == "inflation") return cmd_inflation(options);
    if (options.command == "amortize") return cmd_amortize(options);
    if (options.command == "cdn") return cmd_cdn(options);
    if (options.command == "export") return cmd_export(options);
    if (options.command == "analyze") return cmd_analyze(options);
    if (options.command == "snapshot") return cmd_snapshot(options);
    if (options.command == "report") return cmd_report(options);
    if (options.command == "scenario") return cmd_scenario(options);
    if (options.command == "serve") return cmd_serve(options);
    if (options.command == "load") return cmd_load(options);
    if (options.command == "sweep") return cmd_sweep(options);
    usage(2);  // unreachable: parse_args validated the command
}

/// Writes the trace / metrics files requested by --trace / --metrics-json.
/// Runs after the command (even a failed one: a trace of the failing run is
/// exactly what one wants); failure to write is its own error.
int write_observability(const cli_options& options) {
    int rc = 0;
    if (options.trace_path) {
        obs::disable_tracing();
        std::ofstream out{*options.trace_path};
        if (out) {
            obs::write_chrome_trace(out);
        }
        if (!out) {
            std::cerr << "acctx: cannot write trace to " << *options.trace_path << "\n";
            rc = 1;
        } else {
            std::cerr << "wrote trace (" << obs::trace_event_count() << " spans, "
                      << obs::trace_dropped_count() << " dropped) to " << *options.trace_path
                      << "\n";
        }
    }
    if (options.metrics_path) {
        std::ofstream out{*options.metrics_path};
        if (out) {
            obs::registry::global().write_json(out);
        }
        if (!out) {
            std::cerr << "acctx: cannot write metrics to " << *options.metrics_path << "\n";
            rc = 1;
        } else {
            std::cerr << "wrote " << obs::registry::global().size() << " metrics to "
                      << *options.metrics_path << "\n";
        }
    }
    return rc;
}

int main(int argc, char** argv) {
    const auto options = parse_args(argc, argv);
    if (options.trace_path) obs::enable_tracing();
    int rc = 0;
    try {
        rc = run_command(options);
    } catch (const std::exception& e) {
        std::cerr << "acctx: " << e.what() << "\n";
        rc = 1;
    }
    const int obs_rc = write_observability(options);
    return rc != 0 ? rc : obs_rc;
}
