// Scenario subsystem tests: timeline parsing (strict rejection of unknown
// event types, malformed entries and numbers past their field's bound),
// deterministic event replay through the driver, per-step
// catchment/inflation metrics, and a small-world golden for the step CSV of
// a mixed failover timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/anycast/deployment.h"
#include "src/core/world.h"
#include "src/scenario/driver.h"
#include "src/scenario/event.h"

namespace {

using namespace ac;

// A four-region world laid out west-to-east, 1000 km apart (the routing
// tests' topology, repeated here so scenario tests stay self-contained).
topo::region_table make_line_regions() {
    std::vector<topo::region> regions;
    for (int i = 0; i < 4; ++i) {
        topo::region r;
        r.id = static_cast<topo::region_id>(i);
        r.name = "r" + std::to_string(i);
        r.cont = topo::continent::europe;
        r.location = geo::point{50.0, static_cast<double>(i) * 14.0};
        r.population_weight = 1.0;
        regions.push_back(r);
    }
    return topo::region_table{std::move(regions)};
}

topo::autonomous_system make_as(topo::asn_t asn, topo::as_role role,
                                std::vector<topo::region_id> presence) {
    topo::autonomous_system as;
    as.asn = asn;
    as.role = role;
    as.name = "as" + std::to_string(asn);
    as.organization = as.name;
    as.presence = std::move(presence);
    as.last_mile_ms = 1.0;
    return as;
}

class ScenarioDriver : public ::testing::Test {
protected:
    ScenarioDriver() : regions_(make_line_regions()) {
        // Origin AS 1 spans the line; eyeballs 2/3 sit at the two ends
        // behind transit 4.
        graph_.add_as(make_as(1, topo::as_role::content, {0, 3}));
        graph_.add_as(make_as(4, topo::as_role::transit, {0, 1, 2, 3}));
        graph_.add_as(make_as(2, topo::as_role::eyeball, {0}));
        graph_.add_as(make_as(3, topo::as_role::eyeball, {3}));
        graph_.add_link(1, 4, topo::as_relationship::provider, {0, 3}, 1.2);
        graph_.add_link(2, 4, topo::as_relationship::provider, {0}, 1.2);
        graph_.add_link(3, 4, topo::as_relationship::provider, {3}, 1.2);
    }

    anycast::deployment make_two_site_deployment() {
        std::vector<anycast::site> sites;
        sites.push_back({0, "west", 1, 0, route::announcement_scope::global});
        sites.push_back({1, "east", 1, 3, route::announcement_scope::global});
        return anycast::deployment{"D", std::move(sites), graph_, regions_};
    }

    std::vector<scenario::weighted_source> eyeball_sources() {
        return {{2, 0, 10.0}, {3, 3, 10.0}};
    }

    topo::region_table regions_;
    topo::as_graph graph_{regions_};
};

TEST(ScenarioTimeline, ParsesSortsAndDescribes) {
    // withdraw/announce and promote/demote pairs fire at *different* steps:
    // same-step conflicting events on one target are now parse errors
    // (their outcome would depend on input line order).
    const auto tl = scenario::parse_timeline_text(
        "# maintenance window\n"
        "2 restore K 3\n"
        "\n"
        "1 drain K 3   # drain first\n"
        "3 outage 2\n"
        "3 prepend B 0 4\n"
        "4 withdraw K\n"
        "5 announce K\n"
        "6 promote K 1\n"
        "7 demote K 1\n");
    ASSERT_EQ(tl.events.size(), 8u);
    EXPECT_EQ(tl.last_step(), 7);
    // Stable-sorted by step: the drain now precedes the restore.
    EXPECT_EQ(tl.events[0].describe(), "drain K site 3");
    EXPECT_EQ(tl.events[1].describe(), "restore K site 3");
    EXPECT_EQ(tl.events[2].describe(), "outage region 2");
    EXPECT_EQ(tl.events[3].describe(), "prepend B site 0 x4");
    EXPECT_EQ(tl.events[4].describe(), "withdraw K");
    EXPECT_EQ(tl.events[5].describe(), "announce K");
    EXPECT_EQ(tl.events[6].describe(), "promote K site 1");
    EXPECT_EQ(tl.events[7].describe(), "demote K site 1");
}

TEST(ScenarioTimeline, RejectsUnknownEventType) {
    EXPECT_THROW((void)scenario::parse_timeline_text("1 explode K 3\n"),
                 scenario::timeline_error);
    try {
        (void)scenario::parse_timeline_text("1 explode K 3\n");
    } catch (const scenario::timeline_error& e) {
        EXPECT_NE(std::string{e.what()}.find("unknown event type 'explode'"),
                  std::string::npos);
    }
}

TEST(ScenarioTimeline, RejectsMalformedEntries) {
    // Non-numeric step.
    EXPECT_THROW((void)scenario::parse_timeline_text("one drain K 3\n"),
                 scenario::timeline_error);
    // Missing site argument.
    EXPECT_THROW((void)scenario::parse_timeline_text("1 drain K\n"),
                 scenario::timeline_error);
    // Extra argument.
    EXPECT_THROW((void)scenario::parse_timeline_text("1 withdraw K 3\n"),
                 scenario::timeline_error);
    // Negative / non-numeric site.
    EXPECT_THROW((void)scenario::parse_timeline_text("1 drain K -2\n"),
                 scenario::timeline_error);
    EXPECT_THROW((void)scenario::parse_timeline_text("1 drain K x\n"),
                 scenario::timeline_error);
    // Prepend out of range.
    EXPECT_THROW((void)scenario::parse_timeline_text("1 prepend K 0 0\n"),
                 scenario::timeline_error);
    EXPECT_THROW((void)scenario::parse_timeline_text("1 prepend K 0 99\n"),
                 scenario::timeline_error);
    // Bare step with no type.
    EXPECT_THROW((void)scenario::parse_timeline_text("7\n"), scenario::timeline_error);
}

TEST(ScenarioTimeline, RejectsNumbersPastTheirFieldBound) {
    // Each message names line 1: a number past its field's bound is
    // rejected, never narrowed into an accepted value.
    const auto expect_rejected = [](const std::string& text, const std::string& fragment) {
        try {
            const auto tl = scenario::parse_timeline_text(text);
            ADD_FAILURE() << "accepted '" << text << "' as " << tl.events.front().describe()
                          << " at step " << tl.events.front().step;
        } catch (const scenario::timeline_error& e) {
            const std::string what = e.what();
            EXPECT_EQ(what.rfind("timeline line 1: ", 0), 0u) << what;
            EXPECT_NE(what.find(fragment), std::string::npos) << what;
        }
    };
    expect_rejected("4294967297 prepend K 0 4294967297\n", "step must be 0..10000");
    expect_rejected("10001 withdraw K\n", "step must be 0..10000");
    expect_rejected("2147483647 withdraw K\n", "step must be 0..10000");
    expect_rejected("99999999999999999999999 withdraw K\n", "step must be 0..10000");
    expect_rejected("1 prepend K 0 4294967297\n", "prepend count must be 1..16");
    expect_rejected("1 drain K 4294967296\n", "site must be 0..4294967295");
    expect_rejected("1 outage 4294967296\n", "region must be 0..4294967295");
    expect_rejected("1 demand-level 4294967396\n", "demand percent must be 0..10000");
    expect_rejected("1 demand-diurnal 40 4294967297\n", "period must be 2..10000");
    expect_rejected("1 demand-flash 0 300 10001\n", "duration must be 1..10000");

    // The bounds themselves are accepted.
    const auto tl = scenario::parse_timeline_text(
        "10000 withdraw K\n1 drain K 4294967295\n2 demand-flash 0 300 10000\n");
    EXPECT_EQ(tl.last_step(), scenario::max_step);
    EXPECT_EQ(tl.events[0].site, 4294967295u);
    EXPECT_EQ(tl.events[1].window, scenario::max_step);
}

TEST(ScenarioTimeline, EmptyAndCommentOnlyInputIsEmpty) {
    const auto tl = scenario::parse_timeline_text("# nothing\n\n   \n");
    EXPECT_TRUE(tl.events.empty());
    EXPECT_EQ(tl.last_step(), 0);
}

TEST_F(ScenarioDriver, DrainShiftsCatchmentAndRestoreRecovers) {
    auto dep = make_two_site_deployment();
    scenario::driver drv{graph_, regions_};
    drv.add_target("D", dep);
    drv.set_sources(eyeball_sources());

    const auto tl = scenario::parse_timeline_text("1 drain D 0\n2 restore D 0\n");
    const auto steps = drv.run(tl);
    ASSERT_EQ(steps.size(), 3u);

    // Step 0: baseline, both sites up, everyone routed, split catchment.
    ASSERT_EQ(steps[0].targets.size(), 1u);
    const auto& base = steps[0].targets[0];
    EXPECT_EQ(base.active_sites, 2u);
    EXPECT_DOUBLE_EQ(base.reach_fraction, 1.0);
    EXPECT_DOUBLE_EQ(base.max_site_share, 0.5);
    EXPECT_EQ(steps[0].ases_touched, 0u);

    // Step 1: west site drained — its users shift east, catchment collapses
    // onto one site, and the re-convergence counters report the work.
    const auto& drained = steps[1].targets[0];
    EXPECT_EQ(drained.active_sites, 1u);
    EXPECT_DOUBLE_EQ(drained.reach_fraction, 1.0);
    EXPECT_DOUBLE_EQ(drained.max_site_share, 1.0);
    EXPECT_DOUBLE_EQ(drained.shifted_share, 0.5);
    EXPECT_DOUBLE_EQ(drained.stranded_share, 0.0);
    // The weighted median sits on the still-local east users, but the p90
    // lands on the shifted west users, whose RTT strictly worsens.
    EXPECT_GT(drained.p90_rtt_ms, base.p90_rtt_ms);
    EXPECT_GT(steps[1].ases_touched, 0u);
    ASSERT_EQ(steps[1].applied.size(), 1u);
    EXPECT_EQ(steps[1].applied[0], "drain D site 0");

    // Step 2: restored — metrics return to the baseline bytes.
    const auto& restored = steps[2].targets[0];
    EXPECT_EQ(restored.active_sites, 2u);
    EXPECT_DOUBLE_EQ(restored.median_rtt_ms, base.median_rtt_ms);
    EXPECT_DOUBLE_EQ(restored.p90_rtt_ms, base.p90_rtt_ms);
    EXPECT_DOUBLE_EQ(restored.shifted_share, 0.5);  // the west users move back
}

TEST_F(ScenarioDriver, RunIsDeterministic) {
    const auto tl = scenario::parse_timeline_text("1 drain D 0\n2 restore D 0\n3 outage 3\n");
    auto run_once = [&] {
        auto dep = make_two_site_deployment();
        scenario::driver drv{graph_, regions_};
        drv.add_target("D", dep);
        drv.set_sources(eyeball_sources());
        std::ostringstream csv;
        scenario::write_step_csv(csv, drv.run(tl));
        return csv.str();
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("drain D site 0"), std::string::npos);
}

TEST_F(ScenarioDriver, WholeprefixWithdrawStrandsEveryone) {
    auto dep = make_two_site_deployment();
    scenario::driver drv{graph_, regions_};
    drv.add_target("D", dep);
    drv.set_sources(eyeball_sources());

    const auto steps =
        drv.run(scenario::parse_timeline_text("1 withdraw D\n2 announce D\n"));
    ASSERT_EQ(steps.size(), 3u);
    const auto& dark = steps[1].targets[0];
    EXPECT_EQ(dark.active_sites, 0u);
    EXPECT_DOUBLE_EQ(dark.reach_fraction, 0.0);
    EXPECT_DOUBLE_EQ(dark.stranded_share, 1.0);
    EXPECT_DOUBLE_EQ(dark.median_rtt_ms, 0.0);
    const auto& back = steps[2].targets[0];
    EXPECT_EQ(back.active_sites, 2u);
    EXPECT_DOUBLE_EQ(back.reach_fraction, 1.0);
    EXPECT_DOUBLE_EQ(back.stranded_share, 0.0);
}

TEST_F(ScenarioDriver, OutageHitsEveryTargetInRegion) {
    auto dep = make_two_site_deployment();
    scenario::driver drv{graph_, regions_};
    drv.add_target("D", dep);
    drv.set_sources(eyeball_sources());

    const auto steps = drv.run(scenario::parse_timeline_text("1 outage 0\n"));
    ASSERT_EQ(steps.size(), 2u);
    EXPECT_EQ(steps[1].targets[0].active_sites, 1u);  // west site is in region 0
    // A region hosting no site is a no-op event.
    auto dep2 = make_two_site_deployment();
    scenario::driver drv2{graph_, regions_};
    drv2.add_target("D", dep2);
    drv2.set_sources(eyeball_sources());
    const auto steps2 = drv2.run(scenario::parse_timeline_text("1 outage 1\n"));
    EXPECT_EQ(steps2[1].targets[0].active_sites, 2u);
    EXPECT_EQ(steps2[1].ases_touched, 0u);
}

TEST_F(ScenarioDriver, RejectsUnknownTargetSiteAndRegionBeforeMutating) {
    auto dep = make_two_site_deployment();
    scenario::driver drv{graph_, regions_};
    drv.add_target("D", dep);
    drv.set_sources(eyeball_sources());

    EXPECT_THROW((void)drv.run(scenario::parse_timeline_text("1 drain Q 0\n")),
                 scenario::timeline_error);
    EXPECT_THROW((void)drv.run(scenario::parse_timeline_text("1 drain D 9\n")),
                 scenario::timeline_error);
    EXPECT_THROW((void)drv.run(scenario::parse_timeline_text("1 outage 99\n")),
                 scenario::timeline_error);
    // Validation happens before step 0 runs: a bad event at the *end* of the
    // timeline must leave the deployment untouched.
    EXPECT_THROW(
        (void)drv.run(scenario::parse_timeline_text("1 drain D 0\n2 drain Q 0\n")),
        scenario::timeline_error);
    EXPECT_EQ(dep.rib().active_site_count(), 2u);
}

TEST_F(ScenarioDriver, CsvHasHeaderAndOneRowPerStepTarget) {
    auto dep = make_two_site_deployment();
    scenario::driver drv{graph_, regions_};
    drv.add_target("D", dep);
    drv.set_sources(eyeball_sources());
    const auto steps = drv.run(scenario::parse_timeline_text("1 drain D 0\n"));

    std::ostringstream csv;
    scenario::write_step_csv(csv, steps);
    const auto text = csv.str();
    std::size_t lines = 0;
    for (const char c : text) lines += (c == '\n');
    EXPECT_EQ(lines, 3u);  // header + step 0 + step 1
    EXPECT_EQ(text.rfind("step,target,events,", 0), 0u);
    EXPECT_NE(text.find("\"drain D site 0\""), std::string::npos);
}

TEST_F(ScenarioDriver, PrependEventReroutesTraffic) {
    auto dep = make_two_site_deployment();
    scenario::driver drv{graph_, regions_};
    drv.add_target("D", dep);
    drv.set_sources(eyeball_sources());

    // Heavily prepending the west site makes its paths longer, so both
    // eyeballs converge on the east site.
    const auto steps = drv.run(scenario::parse_timeline_text("1 prepend D 0 8\n"));
    const auto& after = steps[1].targets[0];
    EXPECT_EQ(after.active_sites, 2u);  // still announced, just unattractive
    EXPECT_DOUBLE_EQ(after.max_site_share, 1.0);
    EXPECT_DOUBLE_EQ(after.shifted_share, 0.5);
}

// ---------------------------------------------------------------------------
// small world, every letter (what `acctx scenario --letters all` drives)
// ---------------------------------------------------------------------------

class ScenarioWorld : public ::testing::Test {
protected:
    /// A driver over every letter of `w`, measuring every user location.
    static void attach(scenario::driver& drv, core::world& w) {
        for (const char l : w.roots().all_letters()) {
            drv.add_target(std::string{l}, w.mutable_roots().mutable_deployment_of(l));
        }
        std::vector<scenario::weighted_source> sources;
        for (const auto& loc : w.users().locations()) {
            sources.push_back({loc.asn, loc.region, loc.users});
        }
        drv.set_sources(std::move(sources));
    }

    /// The region hosting the most announced sites across all letters
    /// (lowest id on ties): the outage that hits the most targets at once.
    static topo::region_id busiest_region(const core::world& w) {
        std::vector<int> count(w.regions().size(), 0);
        for (const char l : w.roots().all_letters()) {
            for (const auto& a : w.roots().deployment_of(l).rib().announcements()) {
                ++count[a.origin_region];
            }
        }
        return static_cast<topo::region_id>(
            std::max_element(count.begin(), count.end()) - count.begin());
    }

    /// Drain, restore, withdraw, announce, outage, prepend and promote, with
    /// event-free steps in between (0, 2, 6 and 9 carry no events).
    static std::vector<std::string> mixed_timeline_lines(const core::world& w) {
        return {
            "1 drain K 0",
            "3 prepend F 1 3",
            "3 outage " + std::to_string(busiest_region(w)),
            "4 restore K 0",
            "5 withdraw B",
            "7 promote L 2",
            "7 announce B",
            "8 drain J 1",
            "10 drain K 1",
        };
    }

    static std::string join_lines(const std::vector<std::string>& lines) {
        std::string text;
        for (const auto& line : lines) text += line + "\n";
        return text;
    }

    static std::uint64_t fnv1a(const std::string& bytes) {
        std::uint64_t hash = 0xcbf29ce484222325ull;
        for (const unsigned char c : bytes) {
            hash ^= c;
            hash *= 0x100000001b3ull;
        }
        return hash;
    }
};

TEST_F(ScenarioWorld, MixedTimelineStepCsvGolden) {
    // Golden: the step CSV of the mixed timeline over the small world's 13
    // letters is pinned. It covers event-free steps, every routing event
    // kind and an outage that withdraws sites of several letters at once,
    // so any change to which targets are re-measured, or to the shift and
    // strand accounting, moves these bytes.
    for (const int threads : {1, 2, 8}) {
        auto config = core::world_config::small();
        config.threads = threads;
        core::world w{config};
        scenario::driver drv{w.graph(), w.regions()};
        attach(drv, w);
        const auto tl = scenario::parse_timeline_text(join_lines(mixed_timeline_lines(w)));
        const auto steps = drv.run(tl, {.pool = w.pool(), .threads = threads});
        ASSERT_EQ(steps.size(), 11u);
        std::ostringstream csv;
        scenario::write_step_csv(csv, steps);
        constexpr std::uint64_t golden = 0xefdba04da9699d0cull;
        EXPECT_EQ(fnv1a(csv.str()), golden)
            << "threads " << threads << ": step CSV checksum changed: 0x" << std::hex
            << fnv1a(csv.str());
    }
}

TEST_F(ScenarioWorld, IncrementalStepsMatchFreshOracle) {
    // The driver re-measures only targets whose RIB a step mutated. Check
    // every step against an oracle: a second world replays the timeline one
    // step at a time, and after each step a fresh driver over its (equally
    // mutated) deployments measures every target from scratch on an empty
    // timeline. All fields but shifted/stranded must match exactly; those
    // two must be 0 for every target the step did not mutate.
    core::world live{core::world_config::small()};
    scenario::driver drv{live.graph(), live.regions()};
    attach(drv, live);
    const auto lines = mixed_timeline_lines(live);
    const auto tl = scenario::parse_timeline_text(join_lines(lines));
    const auto steps = drv.run(tl);

    core::world replay{core::world_config::small()};
    for (const auto& step : steps) {
        // This step's events, re-stepped to 1 for a one-step replay.
        std::vector<std::string> step_lines;
        for (const auto& line : lines) {
            const auto space = line.find(' ');
            if (std::stoi(line.substr(0, space)) == step.step) {
                step_lines.push_back("1" + line.substr(space));
            }
        }
        const auto step_tl = scenario::parse_timeline_text(join_lines(step_lines));

        // Which targets this step mutates, read off the replay world's RIBs
        // before the step applies.
        std::vector<std::string> mutated;
        for (const char l : replay.roots().all_letters()) {
            const auto& rib = replay.roots().deployment_of(l).rib();
            bool hit = false;
            for (const auto& e : step_tl.events) {
                if (e.type == scenario::event_type::outage) {
                    for (route::site_id s = 0; s < rib.site_count(); ++s) {
                        hit = hit || (!rib.is_withdrawn(s) &&
                                      rib.announcements()[s].origin_region == e.region);
                    }
                } else if (e.target == std::string{l}) {
                    const bool any_up = rib.active_site_count() > 0;
                    const bool any_down = rib.active_site_count() < rib.site_count();
                    hit = hit || (e.type == scenario::event_type::withdraw   ? any_up
                                  : e.type == scenario::event_type::announce ? any_down
                                                                             : true);
                }
            }
            if (hit) mutated.emplace_back(1, l);
        }

        if (!step_tl.events.empty()) {
            scenario::driver apply{replay.graph(), replay.regions()};
            attach(apply, replay);
            (void)apply.run(step_tl);
        }
        scenario::driver oracle{replay.graph(), replay.regions()};
        attach(oracle, replay);
        const auto fresh = oracle.run(scenario::timeline{});
        ASSERT_EQ(fresh.size(), 1u);
        ASSERT_EQ(step.targets.size(), fresh[0].targets.size());
        for (std::size_t i = 0; i < step.targets.size(); ++i) {
            const auto& got = step.targets[i];
            const auto& want = fresh[0].targets[i];
            SCOPED_TRACE("step " + std::to_string(step.step) + " target " + got.target);
            EXPECT_EQ(got.target, want.target);
            EXPECT_EQ(got.active_sites, want.active_sites);
            EXPECT_EQ(got.reach_fraction, want.reach_fraction);
            EXPECT_EQ(got.median_rtt_ms, want.median_rtt_ms);
            EXPECT_EQ(got.p90_rtt_ms, want.p90_rtt_ms);
            EXPECT_EQ(got.median_inflation_ms, want.median_inflation_ms);
            EXPECT_EQ(got.max_site_share, want.max_site_share);
            const bool was_mutated =
                std::find(mutated.begin(), mutated.end(), got.target) != mutated.end();
            if (!was_mutated) {
                EXPECT_EQ(got.shifted_share, 0.0);
                EXPECT_EQ(got.stranded_share, 0.0);
            }
        }
    }
}

} // namespace
