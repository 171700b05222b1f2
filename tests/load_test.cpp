// Load subsystem tests: capacity apportionment, the integer demand model,
// exact conservation under both assignment policies, the infinite-capacity
// policy differential, thread-count determinism (with FNV-pinned frontier
// goldens), the one-pass frontier quantiles against weighted_cdf, demand-event
// replay through the scenario driver, and a TSan stress over the pooled
// frontier (ci/verify.sh --tsan runs this binary under AC_SANITIZE=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/load_frontier.h"
#include "src/analysis/stats.h"
#include "src/anycast/deployment.h"
#include "src/core/world.h"
#include "src/load/capacity.h"
#include "src/load/demand.h"
#include "src/load/policy.h"
#include "src/scenario/driver.h"
#include "src/scenario/event.h"

namespace {

using namespace ac;

class LoadFixture : public ::testing::Test {
protected:
    static const core::world& w() {
        static core::world instance{core::world_config::small()};
        return instance;
    }

    static scenario::timeline demand_timeline() {
        return scenario::parse_timeline_text(
            "0 demand-diurnal 40 24\n"
            "1 demand-hotspot 0 250\n"
            "2 demand-flash 1 300 2\n");
    }

    static analysis::load_frontier_options frontier_options() {
        analysis::load_frontier_options options;
        options.demand.connections_per_user = w().config().telemetry.connections_per_user;
        return options;
    }

    static std::string frontier_csv(engine::thread_pool* pool,
                                    const analysis::load_frontier_options& options) {
        const auto result = analysis::compute_load_frontier(w().cdn_net(), w().users(),
                                                            demand_timeline(), options, pool);
        std::ostringstream out;
        analysis::write_load_frontier_csv(out, result);
        return out.str();
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

TEST_F(LoadFixture, CapacityWeightsByRingMembership) {
    const auto& cdn = w().cdn_net();
    const std::int64_t nominal = 1'000'000;
    const load::capacity_model model{cdn, nominal, {.headroom = 1.3}};
    const auto caps = model.per_front_end();
    ASSERT_EQ(static_cast<int>(caps.size()), cdn.ring_size(cdn.ring_count() - 1));

    // A front-end in more rings gets at least as much capacity, pro rata.
    std::int64_t total = 0;
    for (std::size_t f = 0; f + 1 < caps.size(); ++f) {
        const int wa = cdn.ring_membership_count(static_cast<int>(f));
        const int wb = cdn.ring_membership_count(static_cast<int>(f) + 1);
        ASSERT_GE(wa, wb);  // front-ends are importance-ordered
        EXPECT_GE(caps[f], caps[f + 1]);
        total += caps[f];
    }
    total += caps.back();
    EXPECT_EQ(total, model.total());

    // Flooring loses at most one connection per front-end off the fleet
    // target of headroom * nominal.
    const std::int64_t target = nominal + nominal * 3 / 10;
    EXPECT_LE(model.total(), target);
    EXPECT_GE(model.total(), target - static_cast<std::int64_t>(caps.size()));

    const load::capacity_model open{cdn, nominal, {.unlimited = true}};
    EXPECT_TRUE(open.unlimited());
    EXPECT_EQ(open.total(), load::unlimited_capacity);
    for (const auto c : open.per_front_end()) EXPECT_EQ(c, load::unlimited_capacity);

    EXPECT_THROW((load::capacity_model{cdn, nominal, {.headroom = 0.0}}),
                 std::invalid_argument);
    EXPECT_THROW((load::capacity_model{cdn, -1, {}}), std::invalid_argument);
}

TEST_F(LoadFixture, DemandGeneratorsShapeOfferedLoad) {
    const auto tl = scenario::parse_timeline_text(
        "0 demand-diurnal 40 24\n"
        "1 demand-level 150\n"
        "2 demand-flash 3 300 2\n"
        "5 demand-hotspot 3 250\n");
    load::demand_plan plan;
    plan.connections_per_user = 2.0;
    plan.buckets = 30;
    const auto regions = static_cast<topo::region_id>(w().cdn_net().regions().size());
    const load::demand_series demand{w().users(), tl, plan, regions};
    ASSERT_EQ(demand.buckets(), 30);
    ASSERT_EQ(demand.locations(), w().users().locations().size());

    // demand-level is state-setting: 100% before step 1, 150% from then on.
    EXPECT_EQ(demand.level_pct(0), 100);
    EXPECT_EQ(demand.level_pct(1), 150);
    EXPECT_EQ(demand.level_pct(29), 150);

    // Triangle wave: trough at the firing bucket, peak half a period later,
    // back to the trough a full period in.
    EXPECT_EQ(demand.diurnal_pm(0), 600);   // 1000 - 40%
    EXPECT_EQ(demand.diurnal_pm(12), 1400);  // 1000 + 40%
    EXPECT_EQ(demand.diurnal_pm(24), 600);
    EXPECT_LT(demand.diurnal_pm(3), demand.diurnal_pm(6));

    // Flash multiplies for its window then auto-reverts; the later hot spot
    // persists until cleared.
    EXPECT_EQ(demand.region_factor(1, 3), 100);
    EXPECT_EQ(demand.region_factor(2, 3), 300);
    EXPECT_EQ(demand.region_factor(3, 3), 300);
    EXPECT_EQ(demand.region_factor(4, 3), 100);
    EXPECT_EQ(demand.region_factor(5, 3), 250);
    EXPECT_EQ(demand.region_factor(29, 3), 250);
    EXPECT_EQ(demand.region_factor(5, 0), 100);  // other regions untouched

    // The offered chain floors each factor in turn (bucket 24: diurnal back
    // at the trough, hotspot active for region 3).
    for (std::size_t loc = 0; loc < demand.locations(); loc += 97) {
        std::int64_t chain = demand.base_conn(loc) * 200 / 100;  // sweep level
        chain = chain * 150 / 100;                               // demand-level
        chain = chain * 600 / 1000;                              // diurnal trough
        chain = chain * demand.region_factor(24, demand.region(loc)) / 100;
        EXPECT_EQ(demand.offered(loc, 24, 200), chain);
    }

    // Region bounds are validated against the CDN's region table.
    EXPECT_THROW((load::demand_series{
                     w().users(),
                     scenario::parse_timeline_text("1 demand-flash 9999 300 2\n"), plan,
                     regions}),
                 scenario::timeline_error);
}

TEST_F(LoadFixture, ConservationExactPerBucket) {
    const auto& cdn = w().cdn_net();
    const auto tl = demand_timeline();
    load::demand_plan dplan;
    dplan.connections_per_user = w().config().telemetry.connections_per_user;
    const auto regions = static_cast<topo::region_id>(cdn.regions().size());
    const load::demand_series demand{w().users(), tl, dplan, regions};
    const load::route_plan plan{cdn, w().users()};
    const load::capacity_model capacity{cdn, demand.nominal_total(), {}};

    const load::policy_kind kinds[] = {load::policy_kind::latency_only,
                                       load::policy_kind::load_aware};
    for (const auto kind : kinds) {
        for (const int level : {25, 100, 400}) {
            for (int t = 0; t < demand.buckets(); ++t) {
                const auto r = load::assign_bucket(plan, demand.offered_bucket(t, level),
                                                   capacity.per_front_end(), kind);
                // The headline invariant: every offered connection is either
                // served on its first-choice ring or shed — exactly.
                EXPECT_EQ(r.served_first + r.shed, r.offered);

                // kept cells + the unserved residue re-tell the same story.
                std::int64_t kept_total = 0;
                for (const auto k : r.kept) kept_total += k;
                if (kind == load::policy_kind::latency_only) {
                    EXPECT_EQ(r.shed, 0);
                    EXPECT_EQ(kept_total, r.offered);
                } else {
                    EXPECT_EQ(kept_total + r.unserved, r.offered);
                }

                // fe_load is the same mass grouped by front-end.
                std::int64_t fe_total = 0;
                for (const auto c : r.fe_load) fe_total += c;
                EXPECT_EQ(fe_total, kept_total);

                // Offered matches the demand series summed over reachable
                // locations.
                std::int64_t offered = 0, unreachable = 0;
                for (std::size_t loc = 0; loc < plan.locations(); ++loc) {
                    (plan.reachable(loc) ? offered : unreachable) +=
                        demand.offered(loc, t, level);
                }
                EXPECT_EQ(r.offered, offered);
                EXPECT_EQ(r.unreachable, unreachable);
            }
        }
    }
}

TEST_F(LoadFixture, InfiniteCapacityPolicyEquality) {
    // With unlimited capacity no front-end ever saturates, so the load-aware
    // waterfall never sheds and the two policies serve identical bytes —
    // checked on the single-policy CSV form, which omits the policy column
    // precisely so this comparison is literal equality.
    auto options = frontier_options();
    options.capacity.unlimited = true;

    const auto result = analysis::compute_load_frontier(w().cdn_net(), w().users(),
                                                        demand_timeline(), options, nullptr);
    std::ostringstream latency, load_aware;
    analysis::write_load_frontier_csv(latency, result, load::policy_kind::latency_only);
    analysis::write_load_frontier_csv(load_aware, result, load::policy_kind::load_aware);
    EXPECT_EQ(latency.str(), load_aware.str());

    for (const auto& p : result.points) {
        EXPECT_EQ(p.shed_conn, 0);
        EXPECT_EQ(p.unserved_conn, 0);
    }
}

TEST_F(LoadFixture, ByteIdenticalAcrossThreads) {
    const auto options = frontier_options();
    const std::string serial = frontier_csv(nullptr, options);
    {
        engine::thread_pool pool{2};
        EXPECT_EQ(frontier_csv(&pool, options), serial);
    }
    {
        engine::thread_pool pool{8};
        EXPECT_EQ(frontier_csv(&pool, options), serial);
    }

    // Golden: the frontier bytes for the small world are pinned. A
    // deliberate model change must update this constant (print the new
    // value with --gtest_also_run_disabled_tests or read the failure
    // message); an accidental change is a regression.
    constexpr std::uint64_t golden = 0xdfabcd9042003048ull;
    EXPECT_EQ(fnv1a(serial), golden)
        << "load frontier checksum changed: 0x" << std::hex << fnv1a(serial);
}

TEST_F(LoadFixture, FrontierGoldenAcrossHeadroom) {
    // Golden: the both-policy frontier CSV away from the default headroom
    // (ByteIdenticalAcrossThreads pins 1.3x): the fleet is scarce at 0.4x
    // and ample at 3.0x. The p50/p95 columns and the shed accounting are
    // both covered, so any change to how quantiles are taken moves these
    // bytes.
    const std::pair<double, std::uint64_t> cases[] = {
        {0.4, 0xa30a1f0168387666ull},
        {3.0, 0xe2955d2c8b03753full},
    };
    for (const auto& [headroom, golden] : cases) {
        auto options = frontier_options();
        options.capacity.headroom = headroom;
        const std::string csv = frontier_csv(nullptr, options);
        EXPECT_EQ(fnv1a(csv), golden) << "headroom " << headroom
                                      << ": load frontier checksum changed: 0x" << std::hex
                                      << fnv1a(csv);
    }
}

TEST_F(LoadFixture, DemandTimelineParsingAndConflicts) {
    const auto tl = scenario::parse_timeline_text(
        "2 demand-flash 1 300 2\n"
        "0 demand-diurnal 40 24\n"
        "1 demand-level 150\n"
        "3 demand-hotspot 1 250\n");
    ASSERT_EQ(tl.events.size(), 4u);
    EXPECT_EQ(tl.events[0].describe(), "demand-diurnal amplitude 40% period 24");
    EXPECT_EQ(tl.events[1].describe(), "demand-level 150%");
    EXPECT_EQ(tl.events[2].describe(), "demand-flash region 1 300% for 2");
    EXPECT_EQ(tl.events[3].describe(), "demand-hotspot region 1 250%");
    for (const auto& e : tl.events) EXPECT_TRUE(scenario::is_demand_event(e.type));

    // Bounds are parser-enforced so the integer demand chain cannot
    // overflow downstream.
    EXPECT_THROW((void)scenario::parse_timeline_text("1 demand-level 10001\n"),
                 scenario::timeline_error);
    EXPECT_THROW((void)scenario::parse_timeline_text("1 demand-diurnal 101 24\n"),
                 scenario::timeline_error);
    EXPECT_THROW((void)scenario::parse_timeline_text("1 demand-diurnal 40 1\n"),
                 scenario::timeline_error);
    EXPECT_THROW((void)scenario::parse_timeline_text("1 demand-flash 0 300 0\n"),
                 scenario::timeline_error);
    EXPECT_THROW((void)scenario::parse_timeline_text("1 demand-level 150 7\n"),
                 scenario::timeline_error);

    // Same-step conflicts are rejected: the outcome would depend on input
    // line order.
    EXPECT_THROW((void)scenario::parse_timeline_text(
                     "1 demand-level 150\n1 demand-level 200\n"),
                 scenario::timeline_error);
    EXPECT_THROW((void)scenario::parse_timeline_text(
                     "1 demand-hotspot 2 250\n1 demand-hotspot 2 300\n"),
                 scenario::timeline_error);
    EXPECT_THROW((void)scenario::parse_timeline_text("1 drain K 0\n1 restore K 0\n"),
                 scenario::timeline_error);
    EXPECT_THROW((void)scenario::parse_timeline_text("1 withdraw K\n1 drain K 0\n"),
                 scenario::timeline_error);
    try {
        (void)scenario::parse_timeline_text("1 demand-level 150\n1 demand-level 200\n");
        FAIL() << "conflicting demand-level events not rejected";
    } catch (const scenario::timeline_error& e) {
        EXPECT_EQ(std::string{e.what()},
                  "timeline: conflicting events at step 1: "
                  "'demand-level 150%' vs 'demand-level 200%'");
    }

    // Byte-identical duplicates are idempotent, different steps never
    // conflict, and different regions coexist at one step.
    EXPECT_NO_THROW((void)scenario::parse_timeline_text(
        "1 demand-level 150\n1 demand-level 150\n"));
    EXPECT_NO_THROW((void)scenario::parse_timeline_text(
        "1 demand-level 150\n2 demand-level 200\n"));
    EXPECT_NO_THROW((void)scenario::parse_timeline_text(
        "1 demand-flash 0 300 2\n1 demand-flash 1 300 2\n"));
    EXPECT_NO_THROW((void)scenario::parse_timeline_text(
        "1 demand-flash 0 300 2\n1 demand-hotspot 0 250\n"));
}

// A compact line topology (the scenario tests' fixture) to check that the
// driver replays demand events: recorded as applied, validated, and inert
// with respect to routing state.
TEST(LoadDriver, DriverReplaysDemandEventsWithoutTouchingRoutes) {
    std::vector<topo::region> raw;
    for (int i = 0; i < 4; ++i) {
        topo::region r;
        r.id = static_cast<topo::region_id>(i);
        r.name = "r" + std::to_string(i);
        r.cont = topo::continent::europe;
        r.location = geo::point{50.0, static_cast<double>(i) * 14.0};
        r.population_weight = 1.0;
        raw.push_back(r);
    }
    topo::region_table regions{std::move(raw)};
    topo::as_graph graph{regions};
    auto mk = [](topo::asn_t asn, topo::as_role role, std::vector<topo::region_id> presence) {
        topo::autonomous_system as;
        as.asn = asn;
        as.role = role;
        as.name = "as" + std::to_string(asn);
        as.organization = as.name;
        as.presence = std::move(presence);
        as.last_mile_ms = 1.0;
        return as;
    };
    graph.add_as(mk(1, topo::as_role::content, {0, 3}));
    graph.add_as(mk(4, topo::as_role::transit, {0, 1, 2, 3}));
    graph.add_as(mk(2, topo::as_role::eyeball, {0}));
    graph.add_as(mk(3, topo::as_role::eyeball, {3}));
    graph.add_link(1, 4, topo::as_relationship::provider, {0, 3}, 1.2);
    graph.add_link(2, 4, topo::as_relationship::provider, {0}, 1.2);
    graph.add_link(3, 4, topo::as_relationship::provider, {3}, 1.2);

    std::vector<anycast::site> sites;
    sites.push_back({0, "west", 1, 0, route::announcement_scope::global});
    sites.push_back({1, "east", 1, 3, route::announcement_scope::global});
    anycast::deployment dep{"D", std::move(sites), graph, regions};

    scenario::driver drv{graph, regions};
    drv.add_target("D", dep);
    drv.set_sources({{2, 0, 10.0}, {3, 3, 10.0}});

    const auto steps = drv.run(scenario::parse_timeline_text(
        "1 demand-level 150\n"
        "2 demand-flash 1 300 2\n"
        "3 drain D 0\n"));
    ASSERT_EQ(steps.size(), 4u);
    ASSERT_EQ(steps[1].applied, (std::vector<std::string>{"demand-level 150%"}));
    ASSERT_EQ(steps[2].applied, (std::vector<std::string>{"demand-flash region 1 300% for 2"}));

    // Demand events never mutate RIBs: no re-convergence work, no catchment
    // shift, both sites still active.
    for (int s : {1, 2}) {
        EXPECT_EQ(steps[s].ases_touched, 0u);
        EXPECT_EQ(steps[s].targets[0].shifted_share, 0.0);
        EXPECT_EQ(steps[s].targets[0].active_sites, 2u);
    }
    // The drain at step 3 still works as before.
    EXPECT_EQ(steps[3].targets[0].active_sites, 1u);

    // Out-of-range demand regions are rejected up front (step 0 validation),
    // like unknown targets.
    scenario::driver drv2{graph, regions};
    drv2.add_target("D", dep);
    drv2.set_sources({{2, 0, 10.0}});
    EXPECT_THROW((void)drv2.run(scenario::parse_timeline_text("1 demand-flash 99 300 2\n")),
                 scenario::timeline_error);
}

TEST_F(LoadFixture, TSanStressParallelFixedPoint) {
    // The pooled frontier (one job per (level, bucket), each writing its own
    // points) must be race-free and thread-count independent: it runs on an
    // 8-thread pool while serial assignments run on OTHER threads, all
    // reading the same world and one immutable route_plan / demand_series /
    // capacity span. Under AC_SANITIZE=thread (ci/verify.sh --tsan) this is
    // the detector's target; in a normal build it doubles as a determinism
    // check.
    const auto& cdn = w().cdn_net();
    load::demand_plan dplan;
    dplan.connections_per_user = w().config().telemetry.connections_per_user;
    const auto regions = static_cast<topo::region_id>(cdn.regions().size());
    const load::demand_series demand{w().users(), demand_timeline(), dplan, regions};
    const load::route_plan plan{cdn, w().users()};
    const load::capacity_model capacity{cdn, demand.nominal_total(), {}};

    const auto options = frontier_options();
    const std::string serial_csv = frontier_csv(nullptr, options);
    const auto expected = load::assign_bucket(plan, demand.offered_bucket(0, 400),
                                              capacity.per_front_end(),
                                              load::policy_kind::load_aware);

    std::vector<load::bucket_result> serial_results(4);
    std::vector<std::thread> workers;
    workers.reserve(serial_results.size());
    for (auto& slot : serial_results) {
        workers.emplace_back([&] {
            slot = load::assign_bucket(plan, demand.offered_bucket(0, 400),
                                       capacity.per_front_end(), load::policy_kind::load_aware);
        });
    }
    engine::thread_pool pool{8};
    std::vector<std::string> pooled_csv;
    for (int round = 0; round < 4; ++round) pooled_csv.push_back(frontier_csv(&pool, options));
    for (auto& t : workers) t.join();

    for (const auto& csv : pooled_csv) EXPECT_EQ(csv, serial_csv);
    for (const auto& r : serial_results) {
        EXPECT_EQ(r.kept, expected.kept);
        EXPECT_EQ(r.fe_load, expected.fe_load);
        EXPECT_EQ(r.shed, expected.shed);
        EXPECT_EQ(r.unserved, expected.unserved);
    }
}

TEST_F(LoadFixture, FrontierQuantilesMatchWeightedCdf) {
    // Every point's p50/p95 (one pass over the plan's fixed RTT order) must
    // be bit-equal to a weighted_cdf built from the same kept cells, at a
    // headroom that sheds and at the default one.
    const auto& cdn = w().cdn_net();
    const auto tl = demand_timeline();
    for (const double headroom : {0.4, 1.3}) {
        auto options = frontier_options();
        options.capacity.headroom = headroom;
        const auto result =
            analysis::compute_load_frontier(cdn, w().users(), tl, options, nullptr);

        const load::demand_series demand{w().users(), tl, options.demand,
                                         static_cast<topo::region_id>(cdn.regions().size())};
        const load::route_plan plan{cdn, w().users()};
        const load::capacity_model capacity{cdn, demand.nominal_total(), options.capacity};
        std::size_t checked = 0;
        for (const auto& p : result.points) {
            const auto r = load::assign_bucket(plan, demand.offered_bucket(p.bucket, p.level_pct),
                                               capacity.per_front_end(), p.policy);
            analysis::weighted_cdf rtt;
            for (std::size_t l = 0; l < plan.locations(); ++l) {
                for (int ring = 0; ring < plan.rings(); ++ring) {
                    const auto kept = r.kept[l * static_cast<std::size_t>(plan.rings()) +
                                             static_cast<std::size_t>(ring)];
                    if (kept > 0) rtt.add(plan.rtt_ms(l, ring), static_cast<double>(kept));
                }
            }
            ASSERT_FALSE(rtt.empty());
            EXPECT_EQ(p.p50_ms, rtt.quantile(0.5)) << "headroom " << headroom;
            EXPECT_EQ(p.p95_ms, rtt.quantile(0.95)) << "headroom " << headroom;
            ++checked;
        }
        EXPECT_EQ(checked, 2u * 5u * static_cast<std::size_t>(result.buckets));
    }
}

TEST(LoadQuantiles, HeavyTiesMatchWeightedCdfInAnyTieOrder) {
    // Synthetic plans over only 7 distinct RTTs: 4000 cells with integer
    // counts up to 2^40, or a handful of cells with counts below 4, where a
    // running sum often lands exactly on q x total at a group boundary.
    // Whatever order the cells take inside an equal-RTT group, the one-pass
    // quantiles equal weighted_cdf's bits.
    std::mt19937_64 rng{20210823};
    const double rtts[] = {3.25, 7.5, 7.5000000000000009, 12.0, 40.125, 95.0, 180.5};
    for (int trial = 0; trial < 400; ++trial) {
        const bool large = trial % 10 == 0;
        const std::size_t cells = large ? 4000 : 2 + rng() % 12;
        std::vector<double> rtt(cells);
        std::vector<std::int64_t> kept(cells);
        const int shift = large ? 1 + static_cast<int>(rng() % 40) : 2;
        for (std::size_t c = 0; c < cells; ++c) {
            rtt[c] = rtts[rng() % 7];
            kept[c] = rng() % 3 == 0 ? 0 : static_cast<std::int64_t>(rng() >> (64 - shift));
        }
        analysis::weighted_cdf cdf;
        for (std::size_t c = 0; c < cells; ++c) {
            if (kept[c] > 0) cdf.add(rtt[c], static_cast<double>(kept[c]));
        }
        if (cdf.empty()) continue;

        std::vector<std::uint32_t> order(cells);
        std::iota(order.begin(), order.end(), 0u);
        std::shuffle(order.begin(), order.end(), rng);  // arbitrary tie order
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t a, std::uint32_t b) { return rtt[a] < rtt[b]; });
        const auto q = analysis::kept_rtt_quantiles(order, rtt, kept);
        EXPECT_EQ(q.p50_ms, cdf.quantile(0.5)) << "trial " << trial;
        EXPECT_EQ(q.p95_ms, cdf.quantile(0.95)) << "trial " << trial;
    }
}

TEST(LoadQuantiles, RejectsTotalsBeyondExactDoubles) {
    // Two cells whose counts sum past 2^53: partial sums would round, so the
    // one-pass quantile refuses rather than risk differing from weighted_cdf.
    const std::vector<double> rtt{10.0, 20.0};
    const std::vector<std::uint32_t> order{0, 1};
    const std::int64_t half = analysis::max_exact_conn / 2;
    EXPECT_NO_THROW((void)analysis::kept_rtt_quantiles(
        order, rtt, std::vector<std::int64_t>{half, half}));
    EXPECT_THROW((void)analysis::kept_rtt_quantiles(
                     order, rtt, std::vector<std::int64_t>{half, half + 1}),
                 std::overflow_error);
    const auto none = analysis::kept_rtt_quantiles(order, rtt, std::vector<std::int64_t>{0, 0});
    EXPECT_EQ(none.p50_ms, 0.0);
    EXPECT_EQ(none.p95_ms, 0.0);
}

} // namespace
