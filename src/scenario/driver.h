// Scenario driver: replays an event timeline against live deployments and
// re-runs the paper's catchment/inflation measurements after every step.
//
// Determinism: steps execute in order through an `engine::stage_graph`
// (apply → analyze), events within a step apply in timeline order, and the
// analyze stage is a bulk `select_many` over a fixed source list whose rows
// are keyed per source — so two runs with the same inputs produce
// byte-identical metric series at any thread count. Each step mutates the
// targets' RIBs *in place* via the incremental announce/withdraw entry
// points (DESIGN §11); the per-step `reconverge` numbers report how much
// work that saved versus a wholesale rebuild. Only targets whose RIB a step
// mutated are re-measured; the rest re-emit their previous metrics with no
// shift or strand, which is what a full re-measure of an unchanged RIB
// computes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/anycast/deployment.h"
#include "src/engine/thread_pool.h"
#include "src/scenario/event.h"
#include "src/topology/as_graph.h"
#include "src/topology/region.h"

namespace ac::scenario {

/// A weighted traffic source (usually a <region, AS> user location).
struct weighted_source {
    topo::asn_t asn = 0;
    topo::region_id region = 0;
    double weight = 1.0;  // user count behind this source
};

/// Per-target measurements after one step.
struct target_metrics {
    std::string target;
    std::size_t active_sites = 0;
    double reach_fraction = 0.0;       // weight share with any route
    double median_rtt_ms = 0.0;        // over reachable weight
    double p90_rtt_ms = 0.0;
    double median_inflation_ms = 0.0;  // rtt minus best-case c-limit rtt
    double shifted_share = 0.0;        // weight whose site changed this step
    double stranded_share = 0.0;       // weight that lost its route this step
    double max_site_share = 0.0;       // catchment concentration (largest site)
};

/// One step of the series: the events applied, the incremental
/// re-convergence work they cost, and the post-step measurements.
struct step_metrics {
    int step = 0;
    std::vector<std::string> applied;  // event descriptions, timeline order
    std::size_t ases_touched = 0;
    std::size_t cache_entries_invalidated = 0;
    std::size_t cache_shards_visited = 0;
    double apply_ms = 0.0;    // stage wall time: mutations + re-convergence
    double analyze_ms = 0.0;  // stage wall time: catchment/inflation sweep
    std::vector<target_metrics> targets;
};

struct driver_options {
    engine::thread_pool* pool = nullptr;  // analyze-stage parallelism
    int threads = 1;                      // recorded in the stage reports
};

class driver {
public:
    driver(const topo::as_graph& graph, const topo::region_table& regions);

    /// Registers a deployment the timeline can address by `name`. The
    /// deployment outlives the driver and is mutated in place by run().
    void add_target(std::string name, anycast::deployment& dep);

    /// The fixed source population measured after every step.
    void set_sources(std::vector<weighted_source> sources);

    [[nodiscard]] std::size_t target_count() const noexcept { return targets_.size(); }

    /// Replays `tl` and returns one `step_metrics` per step 0..last_step().
    /// Step 0 is conventionally the pre-event baseline (timelines start
    /// events at step 1); a step with no events still re-measures.
    /// Throws `timeline_error` if an event names an unknown target, an
    /// out-of-range site, or an out-of-range region.
    [[nodiscard]] std::vector<step_metrics> run(const timeline& tl,
                                               const driver_options& options = {});

private:
    struct target_state {
        std::string name;
        anycast::deployment* dep = nullptr;
        std::vector<route::announcement> baseline;  // announcements at add_target
        /// Site chosen per source at the previous step (-1 = no route),
        /// for shift/strand accounting.
        std::vector<std::int64_t> prev_site;
        /// Set when the RIB was mutated since the last measurement (and at
        /// the start of every run); a clean target re-emits `last`.
        bool stale = true;
        target_metrics last;
    };

    void apply_event(const event& e, step_metrics& step);
    target_state& target_named(const std::string& name);
    /// Measures `t` into `step`; returns the number of sources selected
    /// (0 when `t` was clean and its previous metrics were re-emitted).
    std::size_t measure(target_state& t, const driver_options& options, step_metrics& step);

    const topo::as_graph* graph_;
    const topo::region_table* regions_;
    std::vector<target_state> targets_;
    std::vector<weighted_source> sources_;
    double total_weight_ = 0.0;
};

/// Writes the step series as a CSV figure table:
/// step,target,events,active_sites,reach_fraction,median_rtt_ms,p90_rtt_ms,
/// median_inflation_ms,shifted_share,stranded_share,max_site_share,
/// ases_touched,cache_invalidated
void write_step_csv(std::ostream& out, const std::vector<step_metrics>& steps);

/// Human-readable per-step summary for the terminal.
void print_step_series(std::ostream& out, const std::vector<step_metrics>& steps);

} // namespace ac::scenario
