// perfbench_driver: the measuring process of the repo benchmark (run.py
// builds it and calls it; see perfbench/README.md).
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1 --work DIR [--corrupt]
//   perfbench_driver --probe
//
// A measured run sets the workload up several times (median = setup_s),
// then runs its op in a closed loop for S seconds, and on to the end of the
// input cycle it is in, with the library serial (threads = 1), checking
// every op's output. With --trace 1 the loop alternates untraced and traced
// input cycles, then one "layer pass" calls every layer's public entry
// points once under the benchmark's own spans, and the per-layer metrics
// come from those samples. --corrupt flips one expected byte so the output
// checks must fail (run.py --selftest).
// --probe times dependent loads over a random cycle through 32 MiB: host
// context that tracks the shared-cache contention behind most run-to-run
// swings on a shared VM, which steal time does not show.
//
// Prints one JSON object on stdout: workload, attempted, failed, correct,
// metrics (name -> value) and detail (ungated context).
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/inputs.h"
#include "perfbench/loopback_client.h"
#include "perfbench/support.h"
#include "src/analysis/deployment_metrics.h"
#include "src/analysis/inflation.h"
#include "src/analysis/join.h"
#include "src/analysis/load_frontier.h"
#include "src/core/report.h"
#include "src/core/world.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/scenario/driver.h"
#include "src/serve/http.h"
#include "src/serve/query_engine.h"
#include "src/snapshot/world_io.h"

namespace {

using namespace ac;
using namespace perfbench;
namespace fs = std::filesystem;

constexpr int setup_repeats = 5;         // setup_s is the median of these
constexpr int build_seeds = 4;           // build-medium cycles this many worlds
constexpr std::size_t serve_list = 2048; // serve requests in the layer pass
constexpr std::size_t library_trace_capacity = 1 << 18;
constexpr int study_decompositions = 3;  // trace runs: study op split into calls

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool corrupt = false;
    bool probe = false;
    std::string work;
};

core::world_config medium_config(std::uint64_t seed, int threads) {
    auto config = core::world_config::medium();
    config.seed = seed;
    config.threads = threads;
    return config;
}

/// Flips one byte in the middle of `bytes` (the self-test's corruption).
void corrupt_one_byte(std::string& bytes) {
    if (bytes.empty()) throw std::runtime_error("perfbench: nothing to corrupt");
    bytes[bytes.size() / 2] ^= 0x20;
}

/// Digest over the world's public outputs: its plain (container v1)
/// snapshot image, which holds every dataset the analyses consume plus the
/// config. v1 skips column encoding, so the check costs ~35 ms, not ~250.
std::uint64_t world_digest(const core::world& w) {
    return digest64(snapshot::encode_world(w, 1));
}

std::uint64_t counter_value(std::string_view name) {
    return obs::registry::global().get_counter(name).value();
}

/// Everything a run accumulates: op timings, check tallies, per-layer
/// samples and the ungated detail.
struct run_state {
    bool trace = false;
    span_log spans;
    std::map<std::string, std::vector<double>> samples;  // per-layer metric samples
    std::ostringstream detail;                           // ungated "key": value pairs
    int attempted = 0;
    int failed = 0;
    std::vector<double> setup_s;
    std::vector<double> op_ms;        // every op of the measured loop
    std::vector<double> traced_ms;    // trace runs: ops under tracing
    std::vector<double> untraced_ms;  // trace runs: ops without
    double window_s = 0.0;

    void check(bool ok) {
        ++attempted;
        if (!ok) ++failed;
    }
    void sample(const std::string& name, double v) { samples[name].push_back(v); }
    template <typename T>
    void add_detail(std::string_view key, const T& value) {
        detail << (detail.tellp() > 0 ? ", " : "") << '"' << key << "\": " << value;
    }
};

/// Share of one op's wall time covered by the library's own obs spans
/// (union of all recorded span intervals), from the Chrome trace export.
double library_span_coverage(double op_ms) {
    std::ostringstream trace;
    obs::write_chrome_trace(trace);
    const std::string text = trace.str();
    std::vector<std::pair<double, double>> intervals;
    for (std::size_t at = text.find("\"ts\": "); at != std::string::npos;
         at = text.find("\"ts\": ", at + 1)) {
        const double ts = std::strtod(text.c_str() + at + 6, nullptr);
        const auto dur_at = text.find("\"dur\": ", at);
        if (dur_at == std::string::npos) break;
        intervals.emplace_back(ts, ts + std::strtod(text.c_str() + dur_at + 7, nullptr));
    }
    std::sort(intervals.begin(), intervals.end());
    double covered_us = 0.0;
    double reach = -1.0;
    for (const auto& [start, end] : intervals) {
        const double from = std::max(start, reach);
        if (end > from) covered_us += end - from;
        reach = std::max(reach, end);
    }
    return std::min(1.0, covered_us / (op_ms * 1000.0));
}

std::string quantile_detail(const std::vector<double>& ms) {
    std::ostringstream out;
    out << "{\"count\": " << ms.size() << ", \"p50_ms\": " << quantile(ms, 0.5)
        << ", \"p90_ms\": " << quantile(ms, 0.9) << ", \"samples_above_p90\": "
        << ms.size() - static_cast<std::size_t>(std::ceil(0.9 * double(ms.size())))
        << ", \"p99_ms\": " << quantile(ms, 0.99) << ", \"samples_above_p99\": "
        << ms.size() - static_cast<std::size_t>(std::ceil(0.99 * double(ms.size())))
        << ", \"min_ms\": " << quantile(ms, 0.0) << ", \"max_ms\": " << quantile(ms, 1.0) << "}";
    return out.str();
}

void record_build_samples(run_state& st, const core::world& w) {
    for (const auto& stage : w.timing().stages) {
        st.sample("stage." + stage.name + "_ms", stage.wall_ms);
    }
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    for (const char letter : w.roots().all_letters()) {
        const auto stats = w.roots().deployment_of(letter).rib().select_cache_stats();
        hits += stats.hits;
        lookups += stats.hits + stats.misses;
    }
    if (lookups > 0) st.sample("routing.select_hit_share", double(hits) / double(lookups));
}

struct frozen_counts {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

frozen_counts frozen_totals(const core::world& w) {
    frozen_counts out;
    for (const char letter : w.roots().all_letters()) {
        const auto stats = w.roots().deployment_of(letter).rib().select_cache_stats();
        out.hits += stats.frozen_hits;
        out.misses += stats.frozen_misses;
    }
    return out;
}

double fastpath_share(const frozen_counts& before, const frozen_counts& after) {
    const double hits = double(after.hits - before.hits);
    const double lookups = hits + double(after.misses - before.misses);
    return lookups > 0 ? hits / lookups : 0.0;
}

// --- the what-if op, shared by the workload and the layer pass -------------

/// One failover timeline per root letter (each withdraws that letter), so
/// every run replays the same mix of withdraw costs whatever its seed, plus
/// one seeded demand timeline.
struct whatif_inputs {
    std::vector<scenario::timeline> failovers;
    scenario::timeline demand;
};

whatif_inputs make_whatif_inputs(std::uint64_t seed, const core::world& w) {
    whatif_inputs in;
    for (const char letter : w.roots().all_letters()) {
        in.failovers.push_back(
            scenario::parse_timeline_text(failover_timeline(seed, w.roots(), letter)));
    }
    in.demand = scenario::parse_timeline_text(demand_timeline(seed, w.regions().size()));
    return in;
}

/// A scenario driver over all 13 letters of `w`, measuring every user location.
std::unique_ptr<scenario::driver> make_scenario_driver(core::world& w) {
    auto drv = std::make_unique<scenario::driver>(w.graph(), w.regions());
    for (const char letter : w.roots().all_letters()) {
        drv->add_target(std::string{letter}, w.mutable_roots().mutable_deployment_of(letter));
    }
    std::vector<scenario::weighted_source> sources;
    for (const auto& loc : w.users().locations()) {
        sources.push_back({loc.asn, loc.region, loc.users});
    }
    drv->set_sources(std::move(sources));
    return drv;
}

struct whatif_outcome {
    double scenario_ms = 0.0;
    double frontier_ms = 0.0;
    std::vector<scenario::step_metrics> steps;
    std::string step_csv;
    std::string frontier_csv;
    bool conserved = true;  // served_first + shed == offered at every point
};

whatif_outcome run_whatif(const core::world& w, scenario::driver& drv,
                          const scenario::timeline& failover, const scenario::timeline& demand,
                          engine::thread_pool* pool, span_log* log) {
    whatif_outcome out;
    analysis::load_frontier_options frontier_options;
    frontier_options.demand.connections_per_user = w.config().telemetry.connections_per_user;
    frontier_options.demand.buckets = 24;

    const auto t0 = clock_type::now();
    {
        scoped_span span{log, "scenario/run"};
        out.steps = drv.run(failover, {.pool = pool, .threads = pool ? pool->lanes() : 1});
    }
    const auto t1 = clock_type::now();
    analysis::load_frontier_result frontier;
    {
        scoped_span span{log, "load/compute_load_frontier"};
        frontier = analysis::compute_load_frontier(w.cdn_net(), w.users(), demand,
                                                   frontier_options, pool);
    }
    out.frontier_ms = ms_since(t1);
    out.scenario_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();

    std::ostringstream steps_csv;
    scenario::write_step_csv(steps_csv, out.steps);
    out.step_csv = steps_csv.str();
    std::ostringstream frontier_csv;
    analysis::write_load_frontier_csv(frontier_csv, frontier);
    out.frontier_csv = frontier_csv.str();
    for (const auto& p : frontier.points) {
        out.conserved = out.conserved && p.served_first_conn + p.shed_conn == p.offered_conn;
    }
    return out;
}

void record_whatif_samples(run_state& st, const whatif_outcome& o) {
    double apply = 0.0;
    double analyze = 0.0;
    double touched = 0.0;
    double invalidated = 0.0;
    for (const auto& s : o.steps) {
        apply += s.apply_ms;
        analyze += s.analyze_ms;
        touched += double(s.ases_touched);
        invalidated += double(s.cache_entries_invalidated);
    }
    st.sample("scenario.apply_ms", apply);
    st.sample("scenario.analyze_ms", analyze);
    st.sample("routing.ases_touched", touched);
    st.sample("routing.cache_invalidated", invalidated);
    st.sample("load.frontier_ms", o.frontier_ms);
}

// --- workloads ---------------------------------------------------------------

class workload {
public:
    virtual ~workload() = default;
    /// Runs the timed set-up `setup_repeats` times and the untimed
    /// preparation of expected outputs.
    virtual void setup(run_state& st, const options& opt) = 0;
    /// One timed op; returns its wall ms and sets `ok` from the output check.
    virtual double op(run_state& st, int index, span_log* log, bool& ok) = 0;
    /// Ops per cycle of the workload's inputs. A run ends on a whole cycle,
    /// so every input weighs the same in every run; a trace run alternates
    /// untraced and traced cycles.
    [[nodiscard]] virtual int cycle() const = 0;
};

/// Wall seconds of one serial medium build in a forked child, i.e. a cold
/// build in a fresh heap, as a one-shot `acctx world` pays it. Call it before
/// the parent starts any thread.
double cold_build_s(std::uint64_t seed) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("perfbench: pipe failed");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("perfbench: fork failed");
    if (pid == 0) {
        close(fds[0]);
        double s = -1.0;
        try {
            const auto t0 = clock_type::now();
            const core::world w{medium_config(seed, 1)};
            s = ms_since(t0) / 1000.0;
        } catch (...) {
        }
        const bool sent = write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    double s = -1.0;
    const bool got = read(fds[0], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || s < 0.0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw std::runtime_error("perfbench: cold build failed");
    }
    return s;
}

class build_medium final : public workload {
public:
    void setup(run_state& st, const options& opt) override {
        seeds_ = world_seeds(opt.seed, "build-medium", build_seeds);
        for (int r = 0; r < setup_repeats; ++r) st.setup_s.push_back(cold_build_s(seeds_[0]));
        // Reference digests: the first in-process build of each seed.
        for (const std::uint64_t s : seeds_) {
            digest_[s] = world_digest(core::world{medium_config(s, 1)});
        }
        if (opt.corrupt) digest_[seeds_[0]] ^= 0x20;
        std::ostringstream list;
        for (std::size_t i = 0; i < seeds_.size(); ++i) list << (i ? "," : "") << seeds_[i];
        st.add_detail("world_seeds", "[" + list.str() + "]");
    }

    double op(run_state& st, int index, span_log* log, bool& ok) override {
        const std::uint64_t s = seeds_[static_cast<std::size_t>(index) % seeds_.size()];
        const auto t0 = clock_type::now();
        std::unique_ptr<core::world> w;
        {
            scoped_span span{log, "core/world"};
            w = std::make_unique<core::world>(medium_config(s, 1));
        }
        const double ms = ms_since(t0);
        ok = world_digest(*w) == digest_[s];
        if (st.trace) record_build_samples(st, *w);
        return ms;
    }

    [[nodiscard]] int cycle() const override { return static_cast<int>(seeds_.size()); }

private:
    std::vector<std::uint64_t> seeds_;
    std::map<std::uint64_t, std::uint64_t> digest_;
};

class whatif_medium final : public workload {
public:
    void setup(run_state& st, const options& opt) override {
        const std::uint64_t s = world_seeds(opt.seed, "whatif-medium", 1)[0];
        for (int r = 0; r < setup_repeats; ++r) {
            world_.reset();
            const auto t0 = clock_type::now();
            {
                scoped_span span{st.trace ? &st.spans : nullptr, "core/world"};
                world_ = std::make_unique<core::world>(medium_config(s, 1));
            }
            st.setup_s.push_back(ms_since(t0) / 1000.0);
        }
        inputs_ = make_whatif_inputs(opt.seed, *world_);
        driver_ = make_scenario_driver(*world_);
        // Reference replays (untimed): every later replay must reproduce them.
        for (const auto& failover : inputs_.failovers) {
            const auto reference =
                run_whatif(*world_, *driver_, failover, inputs_.demand, world_->pool(), nullptr);
            if (!reference.conserved) {
                throw std::runtime_error("perfbench: reference frontier leaks");
            }
            expected_.push_back({reference.step_csv, reference.frontier_csv});
        }
        if (opt.corrupt) corrupt_one_byte(expected_[0].steps);
        st.add_detail("world_seed", s);
    }

    double op(run_state& st, int index, span_log* log, bool& ok) override {
        const std::size_t i = static_cast<std::size_t>(index) % inputs_.failovers.size();
        const auto o = run_whatif(*world_, *driver_, inputs_.failovers[i], inputs_.demand,
                                  world_->pool(), log);
        ok = o.conserved && o.step_csv == expected_[i].steps &&
             o.frontier_csv == expected_[i].frontier;
        if (st.trace) record_whatif_samples(st, o);
        return o.scenario_ms + o.frontier_ms;
    }

    [[nodiscard]] int cycle() const override { return static_cast<int>(inputs_.failovers.size()); }

private:
    std::unique_ptr<core::world> world_;
    whatif_inputs inputs_;
    std::unique_ptr<scenario::driver> driver_;
    struct expected_csvs {
        std::string steps;
        std::string frontier;
    };
    std::vector<expected_csvs> expected_;  // per failover timeline
};

std::unique_ptr<workload> make_workload(const std::string& name) {
    if (name == "build-medium") return std::make_unique<build_medium>();
    if (name == "whatif-medium") return std::make_unique<whatif_medium>();
    throw std::invalid_argument("perfbench: unknown workload '" + name + "'");
}

/// The closed measuring loop: ops back to back until `seconds` have passed
/// and the last input cycle is whole (a trace run makes at least two cycles).
/// In a trace run, cycles alternate untraced and traced; a traced cycle
/// records benchmark spans and the library's trace.
void run_loop(workload& wl, run_state& st, double seconds) {
    const int cycle = wl.cycle();
    const int min_ops = st.trace ? 2 * cycle : cycle;
    const auto start = clock_type::now();
    for (int i = 0; i % cycle != 0 || i < min_ops || ms_since(start) < seconds * 1000.0; ++i) {
        const bool traced = st.trace && (i / cycle) % 2 == 1;
        if (traced && i % cycle == 0) obs::enable_tracing(library_trace_capacity);
        st.spans.set_op(i);
        bool ok = false;
        double ms = 0.0;
        try {
            ms = wl.op(st, i, traced ? &st.spans : nullptr, ok);
        } catch (const std::exception& e) {
            std::cerr << "perfbench: op " << i << " failed: " << e.what() << "\n";
            ok = false;
        }
        st.check(ok);
        st.op_ms.push_back(ms);
        (traced ? st.traced_ms : st.untraced_ms).push_back(ms);
        if (traced && (i + 1) % cycle == 0) obs::disable_tracing();
    }
    st.window_s = ms_since(start) / 1000.0;
    st.spans.set_op(-1);
}

// --- the layer pass (trace runs only) ----------------------------------------

bool same_files(const std::vector<std::string>& a, const std::vector<std::string>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (read_file(a[i]) != read_file(b[i])) return false;
    }
    return true;
}

/// Calls every layer's public entry points once, each under a benchmark
/// span, so a trace run of any workload reports every per-layer metric.
void layer_pass(run_state& st, const options& opt) {
    span_log* log = &st.spans;
    const std::uint64_t s = world_seeds(opt.seed, "layer-pass", 1)[0];
    const fs::path work{opt.work};

    // World construction, serial and at 4 threads (engine, every stage).
    auto live = [&] {
        scoped_span span{log, "core/world"};
        return std::make_unique<core::world>(medium_config(s, 1));
    }();
    record_build_samples(st, *live);
    const std::uint64_t live_digest = world_digest(*live);
    {
        const double cpu0 = process_cpu_s();
        const auto t0 = clock_type::now();
        std::unique_ptr<core::world> w4;
        {
            scoped_span span{log, "core/world"};
            w4 = std::make_unique<core::world>(medium_config(s, 4));
        }
        const double wall_s = ms_since(t0) / 1000.0;
        st.sample("engine.cpu_per_wall", (process_cpu_s() - cpu0) / wall_s);
        const auto& serial = live->timing().stages;
        const auto& parallel = w4->timing().stages;
        for (std::size_t i = 0; i < serial.size() && i < parallel.size(); ++i) {
            st.sample("stage." + serial[i].name + "_speedup",
                      serial[i].wall_ms / std::max(parallel[i].wall_ms, 1e-6));
        }
        st.add_detail("threads4_build_ms", w4->timing().total_wall_ms);
        st.add_detail("threads1_build_ms", live->timing().total_wall_ms);
        st.check(world_digest(*w4) == live_digest);

        // What-if at 1 and 4 threads (scenario, routing writes, load).
        const auto inputs = make_whatif_inputs(opt.seed, *live);
        const auto& failover = inputs.failovers[opt.seed % inputs.failovers.size()];
        auto drv1 = make_scenario_driver(*live);
        const auto serial_whatif =
            run_whatif(*live, *drv1, failover, inputs.demand, live->pool(), log);
        record_whatif_samples(st, serial_whatif);
        auto drv4 = make_scenario_driver(*w4);
        const auto parallel_whatif =
            run_whatif(*w4, *drv4, failover, inputs.demand, w4->pool(), log);
        double analyze1 = 0.0;
        double analyze4 = 0.0;
        for (const auto& step : serial_whatif.steps) analyze1 += step.analyze_ms;
        for (const auto& step : parallel_whatif.steps) analyze4 += step.analyze_ms;
        st.sample("scenario.analyze_speedup", analyze1 / std::max(analyze4, 1e-6));
        st.sample("load.frontier_speedup",
                  serial_whatif.frontier_ms / std::max(parallel_whatif.frontier_ms, 1e-6));
        st.check(serial_whatif.conserved && serial_whatif.step_csv == parallel_whatif.step_csv &&
                 serial_whatif.frontier_csv == parallel_whatif.frontier_csv);
    }

    // Snapshot save, mapped open, hydrate.
    const std::string archive = (work / "layer-pass.acx").string();
    auto t0 = clock_type::now();
    {
        scoped_span span{log, "snapshot/save_world"};
        snapshot::save_world(*live, archive);
    }
    st.sample("snapshot.save_ms", ms_since(t0));
    st.sample("snapshot.file_bytes", double(fs::file_size(archive)));
    t0 = clock_type::now();
    std::shared_ptr<const snapshot::bundle> bundle;
    {
        scoped_span span{log, "snapshot/open"};
        bundle = snapshot::bundle::open(archive, snapshot::load_mode::mapped);
    }
    st.sample("snapshot.open_ms", ms_since(t0));
    t0 = clock_type::now();
    std::unique_ptr<core::world> hydrated;
    {
        scoped_span span{log, "snapshot/hydrate_world_ptr"};
        hydrated = snapshot::hydrate_world_ptr(bundle, 1);
    }
    st.sample("snapshot.hydrate_ms", ms_since(t0));

    // The study op: once to warm routing reads (its bundle is checked against
    // the live world's), then `study_decompositions` times call by call and
    // whole under the library trace, back to back so host noise hits both
    // alike; core is each whole minus its six calls.
    {
        const core::world& w = *hydrated;
        std::vector<std::string> from_live;
        std::vector<std::string> from_archive;
        {
            scoped_span span{log, "core/write_figure_csvs"};
            from_live = core::write_figure_csvs(*live, (work / "layer-live").string());
        }
        {
            scoped_span span{log, "core/write_figure_csvs"};
            from_archive = core::write_figure_csvs(w, (work / "layer-archive").string());
        }
        st.check(same_files(from_archive, from_live));

        std::uint64_t dropped = 0;
        for (int r = 0; r < study_decompositions; ++r) {
            double analysis_ms = 0.0;
            const auto timed = [&](const char* name, const std::string& metric, auto&& fn) {
                const auto a0 = clock_type::now();
                {
                    scoped_span span{log, name};
                    fn();
                }
                const double ms = ms_since(a0);
                st.sample(metric, ms);
                analysis_ms += ms;
            };
            timed("analysis/compute_root_inflation", "analysis.root_inflation_ms", [&] {
                (void)analysis::compute_root_inflation(w.filtered_tables(), w.roots(), w.geodb(),
                                                       w.cdn_user_counts(), {}, w.pool());
            });
            timed("analysis/compute_cdn_inflation", "analysis.cdn_inflation_ms", [&] {
                (void)analysis::compute_cdn_inflation(w.server_log_table(), w.cdn_net());
            });
            timed("analysis/compute_amortization", "analysis.amortization_ms", [&] {
                (void)analysis::compute_amortization(w.filtered_tables(), w.users(),
                                                     w.cdn_user_counts(), w.apnic_user_counts(),
                                                     w.as_mapper(), w.config().query_model, {},
                                                     w.pool());
            });
            timed("analysis/run_aspath_study", "analysis.aspath_ms", [&] {
                (void)analysis::run_aspath_study(w.fleet(), w.roots(), w.cdn_net(), w.graph());
            });
            timed("analysis/median_probe_latency", "analysis.probe_latency_ms", [&] {
                for (const char letter : w.roots().geographic_analysis_letters()) {
                    (void)analysis::median_probe_latency(w.fleet(),
                                                         w.roots().deployment_of(letter), 7);
                }
                for (int ring = 0; ring < w.cdn_net().ring_count(); ++ring) {
                    (void)analysis::median_probe_latency_to_ring(w.fleet(), w.cdn_net(), ring, 7);
                }
            });
            timed("analysis/compute_coverage", "analysis.coverage_ms", [&] {
                const std::vector<double> radii{100,  250,  500,  750,  1000,
                                                1250, 1500, 1750, 2000, 3000};
                (void)analysis::compute_all_roots_coverage(w.roots(), w.users(), w.regions(),
                                                           radii);
                for (int ring = 0; ring < w.cdn_net().ring_count(); ++ring) {
                    (void)analysis::compute_ring_coverage(w.cdn_net(), ring, w.users(), w.regions(),
                                                          radii);
                }
                for (const char letter : w.roots().geographic_analysis_letters()) {
                    (void)analysis::compute_coverage(w.roots().deployment_of(letter), w.users(),
                                                     w.regions(), radii);
                }
            });

            const std::uint64_t encoded0 = counter_value("table.encoded_bytes_scanned");
            const std::uint64_t plain0 = counter_value("table.plain_bytes_scanned");
            const std::uint64_t decode0 = counter_value("table.decode_ns");
            obs::enable_tracing(library_trace_capacity);
            t0 = clock_type::now();
            {
                scoped_span span{log, "core/write_figure_csvs"};
                (void)core::write_figure_csvs(w, (work / "layer-archive").string());
            }
            const double op_ms = ms_since(t0);
            st.sample("obs.span_coverage", library_span_coverage(op_ms));
            dropped = std::max(dropped, obs::trace_dropped_count());
            obs::disable_tracing();
            st.sample("table.encoded_bytes_scanned",
                      double(counter_value("table.encoded_bytes_scanned") - encoded0));
            st.sample("table.plain_bytes_scanned",
                      double(counter_value("table.plain_bytes_scanned") - plain0));
            st.sample("table.decode_ms", double(counter_value("table.decode_ns") - decode0) / 1e6);
            st.sample("core.render_ms", op_ms - analysis_ms);
        }
        st.add_detail("library_trace_dropped", dropped);
    }
    hydrated.reset();
    live.reset();

    // Serve: index construction, in-process answers, the same list over HTTP.
    {
        auto w = snapshot::hydrate_world_ptr(bundle, 1);
        t0 = clock_type::now();
        std::unique_ptr<serve::query_engine> engine;
        {
            scoped_span span{log, "serve/query_engine"};
            engine = std::make_unique<serve::query_engine>(std::move(w));
        }
        st.sample("serve.index_ms", ms_since(t0));
        st.sample("serve.frozen_entries", double(engine->frozen_entries()));

        const auto requests = serve_requests(opt.seed, *engine, serve_list);
        std::vector<std::string> answers(requests.size());
        std::vector<double> engine_us;
        double keys = 0.0;
        const auto frozen0 = frozen_totals(engine->world());
        {
            scoped_span span{log, "serve/engine_answers"};
            for (std::size_t i = 0; i < requests.size(); ++i) {
                const auto a0 = clock_type::now();
                engine_answer(*engine, requests[i], answers[i]);
                engine_us.push_back(ms_since(a0) * 1000.0);
                keys += double(requests[i].key_count());
            }
        }
        double total_us = 0.0;
        for (const double us : engine_us) total_us += us;
        st.sample("serve.engine_us_per_key", total_us / keys);

        serve::http_server server{*engine, serve::http_options{}};
        server.start();
        std::vector<double> http_us;
        bool all_equal = true;
        {
            loopback_client client{server.port()};
            for (std::size_t i = 0; i < requests.size(); ++i) {
                const auto h0 = clock_type::now();
                int status = 0;
                {
                    scoped_span span{log, "serve/http_get"};
                    status = client.get(requests[i].target);
                }
                http_us.push_back(ms_since(h0) * 1000.0);
                all_equal = all_equal && status == 200 && client.body() == answers[i];
            }
        }
        server.stop();
        st.check(all_equal);
        st.sample("serve.http_overhead_ms", (median(http_us) - median(engine_us)) / 1000.0);
        std::vector<double> http_ms;
        for (const double us : http_us) http_ms.push_back(us / 1000.0);
        st.add_detail("serve_requests", quantile_detail(http_ms));
        st.sample("serve.fastpath_share", fastpath_share(frozen0, frozen_totals(engine->world())));
    }
    bundle.reset();

    // The large tier, serial: stage breakdown and peak RSS (detail only).
    // DITL streaming is off, because the streaming writer's spill file is a
    // tmpfile() outside the checkout, and the benchmark writes only inside
    // it. So `ditl` time and peak RSS here are those of the materialized
    // capture, not of `acctx world --scale large`, which streams (the output
    // bytes are the same either way).
    {
        auto config = core::world_config::large();
        config.seed = s;
        config.threads = 1;
        config.ditl.max_buffered_records = 0;
        std::unique_ptr<core::world> large;
        {
            scoped_span span{log, "core/world"};
            large = std::make_unique<core::world>(config);
        }
        std::ostringstream stages;
        stages << "{";
        for (const auto& stage : large->timing().stages) {
            stages << (stages.tellp() > 1 ? ", " : "") << '"' << stage.name
                   << "\": " << stage.wall_ms;
        }
        stages << "}";
        st.add_detail("large_stage_ms", stages.str());
        st.add_detail("large_total_ms", large->timing().total_wall_ms);
        st.add_detail("large_peak_rss_mib", peak_rss_mib());
        st.add_detail("large_ditl_streamed", "false");
    }
}

// --- probe, output, main ------------------------------------------------

/// Nanoseconds per dependent load along one random cycle (Sattolo's
/// shuffle) through 32 MiB, median of three chases: the host's effective
/// cache/memory latency.
double memory_probe_ns() {
    std::vector<std::uint32_t> next(std::size_t{1} << 23);
    for (std::size_t i = 0; i < next.size(); ++i) next[i] = static_cast<std::uint32_t>(i);
    seeded_rng rng{1, "probe"};
    for (std::size_t i = next.size() - 1; i > 0; --i) {
        std::swap(next[i], next[rng.uniform(0, i - 1)]);
    }
    constexpr std::size_t steps = std::size_t{1} << 21;
    std::uint32_t at = 0;
    std::vector<double> ns;
    for (int chase = 0; chase < 3; ++chase) {
        const auto t0 = clock_type::now();
        for (std::size_t i = 0; i < steps; ++i) at = next[at];
        ns.push_back(ms_since(t0) * 1e6 / double(steps));
    }
    return at == next.size() ? 0.0 : median(ns);  // keeps the chase observable
}

int measure(const options& opt) {
    run_state st;
    st.trace = opt.trace;
    auto wl = make_workload(opt.workload);
    wl->setup(st, opt);
    run_loop(*wl, st, opt.seconds);
    wl.reset();  // frees the workload's world before the layer pass
    if (st.trace) layer_pass(st, opt);

    std::ostringstream setups;
    for (std::size_t i = 0; i < st.setup_s.size(); ++i) setups << (i ? ", " : "") << st.setup_s[i];
    st.add_detail("setup_samples_s", "[" + setups.str() + "]");
    st.add_detail("ops", quantile_detail(st.op_ms));
    if (st.op_ms.size() <= 256) {
        std::ostringstream each;
        for (std::size_t i = 0; i < st.op_ms.size(); ++i) each << (i ? ", " : "") << st.op_ms[i];
        st.add_detail("op_ms", "[" + each.str() + "]");
    }
    st.add_detail("window_s", st.window_s);
    st.add_detail("library_threads", 1);
    st.add_detail("tier", "\"medium\"");

    std::ostringstream metrics;
    metrics.precision(12);
    const auto metric = [&](const std::string& name, double value) {
        metrics << (metrics.tellp() > 0 ? ", " : "") << '"' << name << "\": " << value;
    };
    if (st.trace) {
        st.add_detail("traced_ops", quantile_detail(st.traced_ms));
        st.add_detail("untraced_ops", quantile_detail(st.untraced_ms));
        st.sample("obs.overhead_ms", median(st.traced_ms) - median(st.untraced_ms));
        for (const auto& [name, values] : st.samples) metric(name, median(values));
        std::ostringstream self;
        for (const auto& [layer, ms] : st.spans.self_ms_by_layer()) {
            self << (self.tellp() > 0 ? ", " : "") << '"' << layer << "\": " << ms;
        }
        st.add_detail("self_ms_by_layer", "{" + self.str() + "}");
        st.add_detail("spans", st.spans.size());
        const std::string spans_path = (fs::path{opt.work} / "spans.json").string();
        std::ofstream spans_out{spans_path};
        st.spans.write_json(spans_out);
    } else {
        metric("setup_s", median(st.setup_s));
        metric("op_p50_ms", median(st.op_ms));
        metric("ops_per_s", double(st.op_ms.size()) / st.window_s);
        metric("peak_rss_mib", peak_rss_mib());
        metric("ok_share", double(st.attempted - st.failed) / double(st.attempted));
    }

    std::cout.precision(12);
    std::cout << "{\"workload\": \"" << opt.workload << "\", \"attempted\": " << st.attempted
              << ", \"failed\": " << st.failed
              << ", \"correct\": " << (st.failed == 0 ? "true" : "false") << ", \"metrics\": {"
              << metrics.str() << "}, \"detail\": {" << st.detail.str() << "}}\n";
    return 0;
}

options parse_args(int argc, char** argv) {
    options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument("perfbench: " + flag + " needs a value");
            return argv[++i];
        };
        if (flag == "--workload") {
            opt.workload = value();
        } else if (flag == "--seed") {
            opt.seed = std::stoull(value());
        } else if (flag == "--seconds") {
            opt.seconds = std::stod(value());
        } else if (flag == "--trace") {
            opt.trace = value() == "1";
        } else if (flag == "--work") {
            opt.work = value();
        } else if (flag == "--corrupt") {
            opt.corrupt = true;
        } else if (flag == "--probe") {
            opt.probe = true;
        } else {
            throw std::invalid_argument("perfbench: unknown flag " + flag);
        }
    }
    if (!opt.probe && (opt.workload.empty() || opt.work.empty())) {
        throw std::invalid_argument("perfbench: --workload and --work are required");
    }
    return opt;
}

} // namespace

int main(int argc, char** argv) {
    try {
        const options opt = parse_args(argc, argv);
        if (opt.probe) {
            std::cout << "{\"memory_probe_ns\": " << memory_probe_ns() << "}\n";
            return 0;
        }
        return measure(opt);
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
