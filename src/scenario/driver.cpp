#include "src/scenario/driver.h"

#include <algorithm>
#include <limits>
#include <ostream>

#include "src/analysis/stats.h"
#include "src/engine/stage_graph.h"
#include "src/netbase/geo.h"
#include "src/netbase/strfmt.h"
#include "src/obs/trace.h"

namespace ac::scenario {

driver::driver(const topo::as_graph& graph, const topo::region_table& regions)
    : graph_(&graph), regions_(&regions) {}

void driver::add_target(std::string name, anycast::deployment& dep) {
    target_state t;
    t.name = std::move(name);
    t.dep = &dep;
    const auto& anns = dep.rib().announcements();
    t.baseline.assign(anns.begin(), anns.end());
    targets_.push_back(std::move(t));
}

void driver::set_sources(std::vector<weighted_source> sources) {
    sources_ = std::move(sources);
    total_weight_ = 0.0;
    for (const auto& s : sources_) total_weight_ += s.weight;
}

driver::target_state& driver::target_named(const std::string& name) {
    for (auto& t : targets_) {
        if (t.name == name) return t;
    }
    throw timeline_error("timeline: unknown target '" + name + "'");
}

void driver::apply_event(const event& e, step_metrics& step) {
    // Every mutation marks its target for re-measurement.
    const auto accumulate = [&](target_state& t,
                                const route::anycast_rib::reconverge_stats& s) {
        t.stale = true;
        step.ases_touched += s.ases_touched;
        step.cache_entries_invalidated += s.cache_entries_invalidated;
        step.cache_shards_visited += s.cache_shards_visited;
    };
    const auto check_site = [&](const target_state& t, route::site_id site) {
        if (site >= t.dep->rib().site_count()) {
            throw timeline_error("timeline: target '" + t.name + "' has no site " +
                                 std::to_string(site));
        }
    };

    if (is_demand_event(e.type)) {
        // Demand events rescale the offered-load series (src/load) and never
        // touch routing state; the driver validates and records them so a
        // mixed timeline replays with the same step accounting either way.
        if ((e.type == event_type::demand_flash || e.type == event_type::demand_hotspot) &&
            e.region >= regions_->size()) {
            throw timeline_error("timeline: unknown region " + std::to_string(e.region));
        }
        return;
    }

    if (e.type == event_type::outage) {
        if (e.region >= regions_->size()) {
            throw timeline_error("timeline: unknown region " + std::to_string(e.region));
        }
        // A regional outage is letter-agnostic: every target loses every
        // site homed in the region.
        for (auto& t : targets_) {
            auto& rib = t.dep->mutable_rib();
            for (route::site_id s = 0; s < rib.site_count(); ++s) {
                if (rib.is_withdrawn(s)) continue;
                if (rib.announcements()[s].origin_region != e.region) continue;
                accumulate(t, rib.withdraw(s));
            }
        }
        return;
    }

    target_state& t = target_named(e.target);
    auto& rib = t.dep->mutable_rib();
    switch (e.type) {
        case event_type::drain: {
            check_site(t, e.site);
            accumulate(t, rib.withdraw(e.site));
            break;
        }
        case event_type::restore: {
            check_site(t, e.site);
            // Reinstate with current parameters (a prior prepend/promote
            // survives the drain), not the add_target baseline.
            accumulate(t, rib.announce(rib.announcements()[e.site]));
            break;
        }
        case event_type::withdraw: {
            for (route::site_id s = 0; s < rib.site_count(); ++s) {
                if (!rib.is_withdrawn(s)) accumulate(t, rib.withdraw(s));
            }
            break;
        }
        case event_type::announce: {
            for (route::site_id s = 0; s < rib.site_count(); ++s) {
                if (rib.is_withdrawn(s)) accumulate(t, rib.announce(rib.announcements()[s]));
            }
            break;
        }
        case event_type::prepend: {
            check_site(t, e.site);
            auto a = rib.announcements()[e.site];
            a.prepend = static_cast<std::uint8_t>(e.prepend);
            accumulate(t, rib.announce(a));
            break;
        }
        case event_type::promote: {
            check_site(t, e.site);
            auto a = rib.announcements()[e.site];
            a.scope = route::announcement_scope::global;
            accumulate(t, rib.announce(a));
            break;
        }
        case event_type::demote: {
            check_site(t, e.site);
            auto a = rib.announcements()[e.site];
            a.scope = route::announcement_scope::local;
            accumulate(t, rib.announce(a));
            break;
        }
        case event_type::outage:
        case event_type::demand_level:
        case event_type::demand_diurnal:
        case event_type::demand_flash:
        case event_type::demand_hotspot:
            break;  // handled above
    }
}

std::size_t driver::measure(target_state& t, const driver_options& options,
                            step_metrics& step) {
    if (!t.stale) {
        // Nothing mutated this RIB since it was last measured, so every
        // selection (and every metric derived from it) is unchanged and no
        // source shifted or lost its route.
        target_metrics m = t.last;
        m.shifted_share = 0.0;
        m.stranded_share = 0.0;
        step.targets.push_back(std::move(m));
        return 0;
    }
    t.stale = false;

    const auto& rib = t.dep->rib();
    target_metrics m;
    m.target = t.name;
    m.active_sites = rib.active_site_count();

    std::vector<route::source_key> keys;
    keys.reserve(sources_.size());
    for (const auto& s : sources_) keys.push_back(route::source_key{s.asn, s.region});
    const auto results = rib.select_many(keys, options.pool);

    analysis::weighted_cdf rtt;
    analysis::weighted_cdf inflation;
    std::vector<double> site_weight(rib.site_count(), 0.0);
    std::vector<std::int64_t> cur_site(sources_.size(), -1);
    double reach_weight = 0.0;
    for (std::size_t i = 0; i < sources_.size(); ++i) {
        const double w = sources_[i].weight;
        if (results[i]) {
            reach_weight += w;
            rtt.add(results[i]->rtt_ms, w);
            inflation.add(results[i]->rtt_ms - geo::best_case_rtt_ms(results[i]->direct_km), w);
            site_weight[results[i]->site] += w;
            cur_site[i] = static_cast<std::int64_t>(results[i]->site);
        }
    }
    if (!t.prev_site.empty()) {
        for (std::size_t i = 0; i < sources_.size(); ++i) {
            const std::int64_t prev = t.prev_site[i];
            if (prev < 0 || cur_site[i] == prev) continue;
            if (cur_site[i] < 0) {
                m.stranded_share += sources_[i].weight;
            } else {
                m.shifted_share += sources_[i].weight;
            }
        }
    }
    t.prev_site = std::move(cur_site);

    if (total_weight_ > 0.0) {
        m.reach_fraction = reach_weight / total_weight_;
        m.shifted_share /= total_weight_;
        m.stranded_share /= total_weight_;
    }
    if (!rtt.empty()) {
        m.median_rtt_ms = rtt.median();
        m.p90_rtt_ms = rtt.quantile(0.9);
        m.median_inflation_ms = inflation.median();
    }
    if (reach_weight > 0.0) {
        const double top = *std::max_element(site_weight.begin(), site_weight.end());
        m.max_site_share = top / reach_weight;
    }
    t.last = m;
    step.targets.push_back(std::move(m));
    return sources_.size();
}

std::vector<step_metrics> driver::run(const timeline& tl, const driver_options& options) {
    obs::span run_span{"scenario/run"};
    run_span.set_items(tl.events.size());

    // Pre-validate every event against the registered targets so a typo at
    // step 40 fails before step 0 runs (and mutates nothing).
    for (const auto& e : tl.events) {
        if (is_demand_event(e.type)) {
            if ((e.type == event_type::demand_flash ||
                 e.type == event_type::demand_hotspot) &&
                e.region >= regions_->size()) {
                throw timeline_error("timeline: unknown region " + std::to_string(e.region));
            }
        } else if (e.type == event_type::outage) {
            if (e.region >= regions_->size()) {
                throw timeline_error("timeline: unknown region " + std::to_string(e.region));
            }
        } else {
            const target_state& t = target_named(e.target);
            if (e.type != event_type::withdraw && e.type != event_type::announce &&
                e.site >= t.dep->rib().site_count()) {
                throw timeline_error("timeline: target '" + t.name + "' has no site " +
                                     std::to_string(e.site));
            }
        }
    }

    // Start every replay from a cold select cache so the per-step work
    // accounting (entries invalidated) is a pure function of the timeline
    // and sources — identical whether the world was just built live or
    // hydrated from a snapshot with a different query history.
    for (auto& t : targets_) {
        t.dep->mutable_rib().clear_select_cache();
        t.prev_site.clear();
        t.stale = true;
    }

    std::vector<step_metrics> out;
    std::size_t next_event = 0;  // tl.events is sorted by step
    const int last = tl.last_step();
    for (int step_no = 0; step_no <= last; ++step_no) {
        step_metrics sm;
        sm.step = step_no;

        const std::size_t first = next_event;
        while (next_event < tl.events.size() && tl.events[next_event].step == step_no) {
            ++next_event;
        }

        engine::stage_graph stages;
        stages.add("apply", {}, [&] {
            for (std::size_t i = first; i < next_event; ++i) {
                sm.applied.push_back(tl.events[i].describe());
                apply_event(tl.events[i], sm);
            }
            return next_event - first;
        });
        stages.add("analyze", {"apply"}, [&] {
            std::size_t selected = 0;
            for (auto& t : targets_) selected += measure(t, options, sm);
            return selected;
        });
        const auto report = stages.run(options.threads);
        for (const auto& st : report.stages) {
            if (st.name == "apply") sm.apply_ms = st.wall_ms;
            if (st.name == "analyze") sm.analyze_ms = st.wall_ms;
        }
        out.push_back(std::move(sm));
    }
    return out;
}

void write_step_csv(std::ostream& out, const std::vector<step_metrics>& steps) {
    out << "step,target,events,active_sites,reach_fraction,median_rtt_ms,p90_rtt_ms,"
           "median_inflation_ms,shifted_share,stranded_share,max_site_share,"
           "ases_touched,cache_invalidated\n";
    for (const auto& s : steps) {
        std::string events;
        for (const auto& a : s.applied) {
            if (!events.empty()) events += ';';
            events += a;
        }
        for (const auto& t : s.targets) {
            out << s.step << ',' << t.target << ",\"" << events << "\"," << t.active_sites
                << ',' << strfmt::fixed(t.reach_fraction, 4) << ','
                << strfmt::fixed(t.median_rtt_ms, 3) << ',' << strfmt::fixed(t.p90_rtt_ms, 3)
                << ',' << strfmt::fixed(t.median_inflation_ms, 3) << ','
                << strfmt::fixed(t.shifted_share, 4) << ','
                << strfmt::fixed(t.stranded_share, 4) << ','
                << strfmt::fixed(t.max_site_share, 4) << ',' << s.ases_touched << ','
                << s.cache_entries_invalidated << '\n';
        }
    }
}

void print_step_series(std::ostream& out, const std::vector<step_metrics>& steps) {
    for (const auto& s : steps) {
        out << "step " << s.step << ": ";
        if (s.applied.empty()) {
            out << "(no events)";
        } else {
            for (std::size_t i = 0; i < s.applied.size(); ++i) {
                if (i != 0) out << "; ";
                out << s.applied[i];
            }
            out << " | reconverged " << s.ases_touched << " ASes, invalidated "
                << s.cache_entries_invalidated << " cache entries across "
                << s.cache_shards_visited << " shards";
        }
        out << "\n";
        for (const auto& t : s.targets) {
            out << "  " << t.target << ": " << t.active_sites << " sites, reach "
                << strfmt::fixed(100.0 * t.reach_fraction, 1) << "%, median rtt "
                << strfmt::fixed(t.median_rtt_ms, 1) << " ms (p90 "
                << strfmt::fixed(t.p90_rtt_ms, 1) << "), inflation "
                << strfmt::fixed(t.median_inflation_ms, 1) << " ms, shifted "
                << strfmt::fixed(100.0 * t.shifted_share, 1) << "%, stranded "
                << strfmt::fixed(100.0 * t.stranded_share, 1) << "%, top-site share "
                << strfmt::fixed(100.0 * t.max_site_share, 1) << "%\n";
        }
    }
}

} // namespace ac::scenario
