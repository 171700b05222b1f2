// Traffic-engineering announcement suppression and path diagnosis.
#include <gtest/gtest.h>

#include "src/analysis/diagnosis.h"
#include "src/core/world.h"
#include "src/routing/bgp.h"

namespace {

using namespace ac;

// Four regions 10 degrees of longitude apart.
topo::region_table make_te_regions() {
    std::vector<topo::region> region_list;
    for (int i = 0; i < 4; ++i) {
        topo::region r;
        r.id = static_cast<topo::region_id>(i);
        r.name = "r" + std::to_string(i);
        r.cont = topo::continent::europe;
        r.location = geo::point{50.0, static_cast<double>(i) * 10.0};
        r.population_weight = 1.0;
        region_list.push_back(r);
    }
    return topo::region_table{std::move(region_list)};
}

// Mini topology reused from the routing suite: origin(1) with provider(2),
// peer(4), customer(6); tier1(3) above 2; eyeballs 7 (under 2) and 8
// (under 3).
class TeFixture : public ::testing::Test {
protected:
    TeFixture() : regions_(make_te_regions()) {

        auto add = [&](topo::asn_t asn, topo::as_role role, std::vector<topo::region_id> at) {
            topo::autonomous_system as;
            as.asn = asn;
            as.role = role;
            as.name = "as" + std::to_string(asn);
            as.organization = as.name;
            as.presence = std::move(at);
            as.last_mile_ms = 1.0;
            graph_.add_as(std::move(as));
        };
        add(1, topo::as_role::content, {0});
        add(2, topo::as_role::transit, {0, 1});
        add(3, topo::as_role::tier1, {1, 2});
        add(4, topo::as_role::transit, {0, 2});
        add(6, topo::as_role::eyeball, {0});
        add(7, topo::as_role::eyeball, {1});
        add(8, topo::as_role::eyeball, {2});
        graph_.add_link(1, 2, topo::as_relationship::provider, {0}, 1.2);
        graph_.add_link(2, 3, topo::as_relationship::provider, {1}, 1.2);
        graph_.add_link(1, 4, topo::as_relationship::peer, {0}, 1.2);
        graph_.add_link(6, 1, topo::as_relationship::provider, {0}, 1.2);
        graph_.add_link(7, 2, topo::as_relationship::provider, {1}, 1.2);
        graph_.add_link(8, 3, topo::as_relationship::provider, {2}, 1.2);
    }

    topo::region_table regions_;
    topo::as_graph graph_{regions_};
};

TEST_F(TeFixture, SuppressedProviderLearnsNothingDirectly) {
    route::announcement a{0, 1, 0, route::announcement_scope::global, {2}};
    route::anycast_rib rib{graph_, {a}};
    // AS 2 is suppressed and has no other path to the origin.
    EXPECT_FALSE(rib.route_toward(2, 0).has_value());
    // Everything behind 2 goes dark too.
    EXPECT_FALSE(rib.route_toward(3, 0).has_value());
    EXPECT_FALSE(rib.route_toward(7, 0).has_value());
    // The peer and direct customer still have routes.
    EXPECT_TRUE(rib.route_toward(4, 0).has_value());
    EXPECT_TRUE(rib.route_toward(6, 0).has_value());
}

TEST_F(TeFixture, SuppressedPeerStillBlocked) {
    route::announcement a{0, 1, 0, route::announcement_scope::global, {4}};
    route::anycast_rib rib{graph_, {a}};
    EXPECT_FALSE(rib.route_toward(4, 0).has_value());
    EXPECT_TRUE(rib.route_toward(2, 0).has_value());
}

TEST_F(TeFixture, SuppressionOnlyAppliesAtOrigin) {
    // Suppress toward 3: but 3 is not the origin's neighbor, so this is a
    // no-op — 3 learns the route from 2 transitively.
    route::announcement a{0, 1, 0, route::announcement_scope::global, {3}};
    route::anycast_rib rib{graph_, {a}};
    EXPECT_TRUE(rib.route_toward(3, 0).has_value());
}

TEST_F(TeFixture, LocalScopeRespectsSuppression) {
    route::announcement a{0, 1, 0, route::announcement_scope::local, {2, 4}};
    route::anycast_rib rib{graph_, {a}};
    EXPECT_FALSE(rib.route_toward(2, 0).has_value());
    EXPECT_FALSE(rib.route_toward(4, 0).has_value());
    EXPECT_TRUE(rib.route_toward(6, 0).has_value());
}

TEST_F(TeFixture, SuppressedNeighborCanRouteViaAlternatives) {
    // Give 2 a second way to the origin: 2 peers with 4, which holds a
    // peer route... peer routes don't re-export, so use a customer chain:
    // make 4 a provider of 2 is impossible post-hoc; instead verify the
    // multi-site case — site 0 suppressed toward 2, site 1 not.
    route::announcement a0{0, 1, 0, route::announcement_scope::global, {2}};
    route::announcement a1{1, 1, 0, route::announcement_scope::global, {}};
    route::anycast_rib rib{graph_, {a0, a1}};
    EXPECT_FALSE(rib.route_toward(2, 0).has_value());
    EXPECT_TRUE(rib.route_toward(2, 1).has_value());
    // AS 7 reaches the deployment via site 1 only.
    const auto selected = rib.select(7, 1);
    ASSERT_TRUE(selected.has_value());
    EXPECT_EQ(selected->site, 1u);
}

class DiagnosisFixture : public ::testing::Test {
protected:
    static const core::world& w() {
        static core::world instance{core::world_config::small()};
        return instance;
    }
};

TEST_F(DiagnosisFixture, SharesSumToOne) {
    const auto report = analysis::diagnose_cdn_paths(w().cdn_net(), w().users());
    double total = 0.0;
    for (double share : report.user_share_by_problem) {
        EXPECT_GE(share, 0.0);
        total += share;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_FALSE(report.diagnoses.empty());
}

TEST_F(DiagnosisFixture, HealthyBudgetIsRespected) {
    const auto report = analysis::diagnose_cdn_paths(w().cdn_net(), w().users());
    for (const auto& d : report.diagnoses) {
        EXPECT_GE(d.excess_ms, 0.0);
        if (d.problem == analysis::path_problem::healthy) {
            EXPECT_LE(d.excess_ms, analysis::diagnosis_options{}.healthy_budget_ms + 1e-9);
        } else {
            EXPECT_GT(d.excess_ms, analysis::diagnosis_options{}.healthy_budget_ms);
        }
    }
}

TEST_F(DiagnosisFixture, WorstListExcludesHealthyAndIsSorted) {
    const auto report = analysis::diagnose_cdn_paths(w().cdn_net(), w().users());
    const auto worst = report.worst(10);
    double previous = std::numeric_limits<double>::infinity();
    for (const auto& d : worst) {
        EXPECT_NE(d.problem, analysis::path_problem::healthy);
        const double score = d.excess_ms * d.users;
        EXPECT_LE(score, previous + 1e-9);
        previous = score;
    }
}

TEST_F(DiagnosisFixture, TighterBudgetFlagsMoreUsers) {
    analysis::diagnosis_options strict;
    strict.healthy_budget_ms = 5.0;
    const auto lax = analysis::diagnose_cdn_paths(w().cdn_net(), w().users());
    const auto tight = analysis::diagnose_cdn_paths(w().cdn_net(), w().users(), strict);
    EXPECT_LE(tight.user_share_by_problem[0], lax.user_share_by_problem[0]);
}

TEST_F(DiagnosisFixture, ProblemNamesAreStable) {
    EXPECT_EQ(analysis::to_string(analysis::path_problem::healthy), "healthy");
    EXPECT_EQ(analysis::to_string(analysis::path_problem::no_peering), "no-peering");
    EXPECT_EQ(analysis::to_string(analysis::path_problem::isolated_user), "isolated-user");
}

} // namespace
