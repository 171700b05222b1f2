// Property-based (parameterized) suites: invariants that must hold across
// seeds and parameter sweeps, exercised via TEST_P.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "src/analysis/stats.h"
#include "src/anycast/deployment.h"
#include "src/core/world.h"
#include "src/netbase/geo.h"
#include "src/netbase/rng.h"
#include "src/routing/bgp.h"
#include "src/topology/generator.h"
#include "src/web/page_load.h"

namespace {

using namespace ac;

// --- Routing invariants over generated worlds (parameterized by seed). ---

class RoutingInvariants : public ::testing::TestWithParam<std::uint64_t> {
protected:
    RoutingInvariants()
        : regions_(topo::make_regions(topo::region_plan{30, 10, 30, 12, 24, 8, 2},
                                      GetParam())) {
        topo::graph_plan plan;
        plan.tier1_count = 5;
        plan.transits_per_continent = 4;
        plan.eyeball_count = 80;
        plan.enterprise_count = 10;
        plan.public_dns_count = 1;
        graph_ = topo::make_graph(regions_, plan, GetParam());

        anycast::deployment_plan dep_plan;
        dep_plan.name = "prop";
        dep_plan.strategy = anycast::hosting_strategy::open_hosting;
        dep_plan.global_sites = 12;
        dep_plan.local_sites = 3;
        dep_plan.seed = GetParam();
        dep_ = std::make_unique<anycast::deployment>(
            anycast::build_deployment(dep_plan, graph_, regions_));
    }

    topo::region_table regions_;
    topo::as_graph graph_{regions_};
    std::unique_ptr<anycast::deployment> dep_;
};

TEST_P(RoutingInvariants, PathsStartAtSourceAndEndAtSiteHost) {
    for (topo::asn_t asn : graph_.with_role(topo::as_role::eyeball)) {
        const auto region = graph_.at(asn).presence.front();
        const auto selected = dep_->rib().select(asn, region);
        if (!selected) continue;
        const auto path = dep_->rib().as_path(asn, selected->site);
        ASSERT_FALSE(path.empty());
        EXPECT_EQ(path.front(), asn);
        EXPECT_EQ(path.back(), dep_->site_at(selected->site).host_asn);
    }
}

TEST_P(RoutingInvariants, PathsHaveNoAsLoops) {
    for (topo::asn_t asn : graph_.with_role(topo::as_role::eyeball)) {
        const auto region = graph_.at(asn).presence.front();
        const auto selected = dep_->rib().select(asn, region);
        if (!selected) continue;
        const auto path = dep_->rib().as_path(asn, selected->site);
        std::set<topo::asn_t> seen(path.begin(), path.end());
        EXPECT_EQ(seen.size(), path.size());
    }
}

TEST_P(RoutingInvariants, RttRespectsPhysicalLowerBound) {
    // A route can never beat the speed of light in fiber over the direct
    // great-circle distance.
    for (topo::asn_t asn : graph_.with_role(topo::as_role::eyeball)) {
        const auto region = graph_.at(asn).presence.front();
        const auto path = dep_->rib().select(asn, region);
        if (!path) continue;
        // Allow jitter slack (multiplicative, sigma 0.04).
        EXPECT_GT(path->rtt_ms * 1.2, geo::round_trip_fiber_ms(path->direct_km))
            << "AS " << asn;
    }
}

TEST_P(RoutingInvariants, PathDistanceAtLeastDirectDistance) {
    for (topo::asn_t asn : graph_.with_role(topo::as_role::eyeball)) {
        const auto region = graph_.at(asn).presence.front();
        const auto path = dep_->rib().select(asn, region);
        if (!path) continue;
        // Triangle inequality: a hop-by-hop walk can't undercut the chord by
        // more than numerical noise.
        EXPECT_GE(path->path_km + 1.0, path->direct_km * 0.999);
    }
}

TEST_P(RoutingInvariants, ValleyFreeClassSequence) {
    // Along any selected path, once the route leaves a customer link (seen
    // from the traffic direction), it must not climb again: relationships
    // from the source toward the origin must be provider* then (peer)? then
    // customer* — equivalently, no provider-link after a customer/peer link.
    for (topo::asn_t asn : graph_.with_role(topo::as_role::eyeball)) {
        const auto region = graph_.at(asn).presence.front();
        const auto selected = dep_->rib().select(asn, region);
        if (!selected) continue;
        const auto path = dep_->rib().as_path(asn, selected->site);
        if (path.size() < 2) continue;
        int phase = 0;  // 0=climbing (via providers), 1=peered, 2=descending
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            topo::as_relationship rel = topo::as_relationship::peer;
            bool found = false;
            for (const auto& nb : graph_.neighbors(path[i])) {
                if (nb.neighbor == path[i + 1]) {
                    rel = nb.relationship;
                    found = true;
                    break;
                }
            }
            ASSERT_TRUE(found);
            switch (rel) {
                case topo::as_relationship::provider:
                    EXPECT_EQ(phase, 0) << "climb after descent";
                    break;
                case topo::as_relationship::peer:
                    EXPECT_LE(phase, 1) << "peer link after descent";
                    phase = std::max(phase, 2);  // at most one peer hop
                    break;
                case topo::as_relationship::customer:
                    phase = 2;
                    break;
            }
        }
    }
}

TEST_P(RoutingInvariants, SelectionIsDeterministic) {
    for (topo::asn_t asn : graph_.with_role(topo::as_role::eyeball)) {
        const auto region = graph_.at(asn).presence.front();
        const auto a = dep_->rib().select(asn, region);
        const auto b = dep_->rib().select(asn, region);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
            EXPECT_EQ(a->site, b->site);
            EXPECT_DOUBLE_EQ(a->rtt_ms, b->rtt_ms);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingInvariants,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// The walked AS path agrees with the flat selection answer for every user
// location toward every letter of the small world.
TEST(SmallWorldPaths, WalkedPathMatchesSelection) {
    const core::world w{core::world_config::small()};
    std::size_t checked = 0;
    for (const char letter : w.roots().all_letters()) {
        const auto& dep = w.roots().deployment_of(letter);
        for (const auto& loc : w.users().locations()) {
            const auto selected = dep.rib().select(loc.asn, loc.region);
            if (!selected) continue;
            const auto path = dep.rib().as_path(loc.asn, selected->site);
            ASSERT_EQ(path.size(), selected->path_ases) << letter << " AS" << loc.asn;
            EXPECT_EQ(path.front(), loc.asn);
            EXPECT_EQ(path.back(), dep.site_at(selected->site).host_asn);
            EXPECT_EQ(std::set<topo::asn_t>(path.begin(), path.end()).size(), path.size());
            for (std::size_t i = 0; i + 1 < path.size(); ++i) {
                const auto neighbors = w.graph().neighbors(path[i]);
                EXPECT_TRUE(std::any_of(neighbors.begin(), neighbors.end(), [&](const auto& nb) {
                    return nb.neighbor == path[i + 1];
                })) << letter << " AS" << path[i] << " -> AS" << path[i + 1];
            }
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u);
}

// --- RNG distribution properties over seeds. ---

class RngProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngProperties, LognormalMedianNearOne) {
    rand::rng gen{GetParam()};
    std::vector<double> draws;
    for (int i = 0; i < 4001; ++i) draws.push_back(gen.lognormal(0.0, 1.0));
    std::nth_element(draws.begin(), draws.begin() + 2000, draws.end());
    EXPECT_NEAR(draws[2000], 1.0, 0.12);
}

TEST_P(RngProperties, ExponentialMeanMatchesRate) {
    rand::rng gen{GetParam()};
    for (double lambda : {0.5, 2.0, 10.0}) {
        double sum = 0.0;
        const int n = 8000;
        for (int i = 0; i < n; ++i) sum += gen.exponential(lambda);
        EXPECT_NEAR(sum / n, 1.0 / lambda, 0.08 / lambda);
    }
}

TEST_P(RngProperties, UniformIndexIsUnbiased) {
    rand::rng gen{GetParam()};
    constexpr std::uint64_t n = 11;
    int counts[n] = {};
    const int draws = 22000;
    for (int i = 0; i < draws; ++i) ++counts[gen.uniform_index(n)];
    for (auto c : counts) {
        EXPECT_NEAR(static_cast<double>(c), draws / static_cast<double>(n),
                    draws / static_cast<double>(n) * 0.15);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngProperties, ::testing::Values(17u, 23u, 29u, 31u));

// --- Eq. 4 properties over a byte sweep. ---

class Equation4 : public ::testing::TestWithParam<double> {};

TEST_P(Equation4, RttCountIsMinimalSlowStartSchedule) {
    const double bytes = GetParam();
    const int rtts = web::transfer_rtts(bytes);
    // N RTTs deliver W * (2^N - 1)... the paper's closed form is
    // ceil(log2(D/W)); verify against it directly.
    const double w = web::default_init_window_bytes;
    if (bytes <= 0.0) {
        EXPECT_EQ(rtts, 0);
    } else if (bytes <= w) {
        EXPECT_EQ(rtts, 1);
    } else {
        EXPECT_EQ(rtts, static_cast<int>(std::ceil(std::log2(bytes / w))));
        EXPECT_GE(w * std::pow(2.0, rtts), bytes * 0.999);
    }
}

INSTANTIATE_TEST_SUITE_P(ByteSweep, Equation4,
                         ::testing::Values(0.0, 1.0, 1.4e4, 1.5e4, 1.6e4, 1e5, 7.5e5, 2e6,
                                           1.6e7, 9.9e8));

// --- Geometry properties over point pairs. ---

class GeoProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeoProperties, TriangleInequalityHolds) {
    rand::rng gen{GetParam()};
    for (int i = 0; i < 200; ++i) {
        const geo::point a{gen.uniform(-80, 80), gen.uniform(-180, 180)};
        const geo::point b{gen.uniform(-80, 80), gen.uniform(-180, 180)};
        const geo::point c{gen.uniform(-80, 80), gen.uniform(-180, 180)};
        EXPECT_LE(geo::distance_km(a, c),
                  geo::distance_km(a, b) + geo::distance_km(b, c) + 1e-6);
    }
}

TEST_P(GeoProperties, DistanceBoundedByHalfCircumference) {
    rand::rng gen{GetParam()};
    for (int i = 0; i < 200; ++i) {
        const geo::point a{gen.uniform(-90, 90), gen.uniform(-180, 180)};
        const geo::point b{gen.uniform(-90, 90), gen.uniform(-180, 180)};
        EXPECT_LE(geo::distance_km(a, b), 3.14159266 * geo::earth_radius_km);
        EXPECT_GE(geo::distance_km(a, b), 0.0);
    }
}

TEST_P(GeoProperties, MidpointInequality) {
    rand::rng gen{GetParam()};
    for (int i = 0; i < 100; ++i) {
        const geo::point a{gen.uniform(-80, 80), gen.uniform(-170, 170)};
        const geo::point b{gen.uniform(-80, 80), gen.uniform(-170, 170)};
        const auto mid = geo::midpoint(a, b);
        const double direct = geo::distance_km(a, b);
        EXPECT_NEAR(geo::distance_km(a, mid) + geo::distance_km(mid, b), direct,
                    direct * 1e-6 + 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeoProperties, ::testing::Values(41u, 43u, 47u));

// --- Weighted CDF properties. ---

class CdfProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CdfProperties, QuantileIsMonotone) {
    rand::rng gen{GetParam()};
    analysis::weighted_cdf cdf;
    for (int i = 0; i < 400; ++i) cdf.add(gen.normal(0.0, 5.0), gen.uniform(0.1, 3.0));
    double previous = cdf.quantile(0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double value = cdf.quantile(q);
        EXPECT_GE(value, previous);
        previous = value;
    }
}

TEST_P(CdfProperties, ScalingWeightsPreservesQuantiles) {
    rand::rng gen{GetParam()};
    analysis::weighted_cdf a;
    analysis::weighted_cdf b;
    for (int i = 0; i < 300; ++i) {
        const double v = gen.lognormal(1.0, 0.7);
        const double w = gen.uniform(0.5, 2.0);
        a.add(v, w);
        b.add(v, w * 37.0);
    }
    for (double q : {0.1, 0.5, 0.9}) {
        EXPECT_DOUBLE_EQ(a.quantile(q), b.quantile(q));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CdfProperties, ::testing::Values(53u, 59u, 61u));

} // namespace
