// Deployment builders and catchment tables.
#include <gtest/gtest.h>

#include <set>

#include "src/anycast/deployment.h"
#include "src/topology/generator.h"

namespace {

using namespace ac;

class DeploymentFixture : public ::testing::Test {
protected:
    DeploymentFixture()
        : regions_(topo::make_regions(topo::region_plan{40, 12, 40, 16, 30, 10, 2}, 21)) {
        topo::graph_plan plan;
        plan.tier1_count = 6;
        plan.transits_per_continent = 5;
        plan.eyeball_count = 150;
        plan.enterprise_count = 20;
        plan.public_dns_count = 1;
        graph_ = topo::make_graph(regions_, plan, 21);
    }

    topo::region_table regions_;
    topo::as_graph graph_{regions_};
};

TEST_F(DeploymentFixture, BuildsRequestedSiteCounts) {
    anycast::deployment_plan plan;
    plan.name = "test";
    plan.strategy = anycast::hosting_strategy::open_hosting;
    plan.global_sites = 12;
    plan.local_sites = 5;
    plan.seed = 1;
    const auto dep = anycast::build_deployment(plan, graph_, regions_);
    EXPECT_EQ(dep.global_site_count(), 12);
    EXPECT_EQ(dep.total_site_count(), 17);
    EXPECT_EQ(dep.name(), "test");
}

TEST_F(DeploymentFixture, SiteIdsAreDenseAndScoped) {
    anycast::deployment_plan plan;
    plan.name = "scoped";
    plan.strategy = anycast::hosting_strategy::open_hosting;
    plan.global_sites = 4;
    plan.local_sites = 3;
    const auto dep = anycast::build_deployment(plan, graph_, regions_);
    int globals = 0;
    for (std::size_t i = 0; i < dep.sites().size(); ++i) {
        EXPECT_EQ(dep.sites()[i].id, i);
        if (dep.sites()[i].scope == route::announcement_scope::global) ++globals;
    }
    EXPECT_EQ(globals, 4);
}

TEST_F(DeploymentFixture, OperatorRunRequiresDedicatedAsn) {
    anycast::deployment_plan plan;
    plan.name = "bad";
    plan.strategy = anycast::hosting_strategy::operator_run;
    plan.dedicated_asn = 0;
    EXPECT_THROW((void)anycast::build_deployment(plan, graph_, regions_),
                 std::invalid_argument);
}

TEST_F(DeploymentFixture, DedicatedNetworkIsAttached) {
    anycast::deployment_plan plan;
    plan.name = "dedicated";
    plan.strategy = anycast::hosting_strategy::operator_run;
    plan.global_sites = 6;
    plan.dedicated_asn = topo::asn_blocks::content_base + 9;
    const auto dep = anycast::build_deployment(plan, graph_, regions_);
    EXPECT_TRUE(graph_.has_as(plan.dedicated_asn));
    for (const auto& s : dep.sites()) {
        EXPECT_EQ(s.host_asn, plan.dedicated_asn);
    }
}

TEST_F(DeploymentFixture, OpenHostingUsesVolunteers) {
    anycast::deployment_plan plan;
    plan.name = "volunteers";
    plan.strategy = anycast::hosting_strategy::open_hosting;
    plan.global_sites = 15;
    const auto dep = anycast::build_deployment(plan, graph_, regions_);
    std::set<topo::asn_t> hosts;
    for (const auto& s : dep.sites()) {
        hosts.insert(s.host_asn);
        const auto role = graph_.at(s.host_asn).role;
        EXPECT_TRUE(role == topo::as_role::transit || role == topo::as_role::eyeball);
    }
    EXPECT_GT(hosts.size(), 3u);  // diverse volunteer hosts
}

TEST_F(DeploymentFixture, NearestGlobalSiteIgnoresLocalSites) {
    anycast::deployment_plan plan;
    plan.name = "mixed";
    plan.strategy = anycast::hosting_strategy::open_hosting;
    plan.global_sites = 2;
    plan.local_sites = 30;
    const auto dep = anycast::build_deployment(plan, graph_, regions_);
    // Distance to nearest global site must match a manual scan over the two
    // global sites only.
    const auto p = regions_.at(0).location;
    double manual = std::numeric_limits<double>::infinity();
    for (const auto& s : dep.sites()) {
        if (s.scope != route::announcement_scope::global) continue;
        manual = std::min(manual, geo::distance_km(p, regions_.at(s.region).location));
    }
    EXPECT_DOUBLE_EQ(dep.nearest_global_site_km(p), manual);
}

TEST_F(DeploymentFixture, CatchmentCoversRoutableSources) {
    anycast::deployment_plan plan;
    plan.name = "catch";
    plan.strategy = anycast::hosting_strategy::open_hosting;
    plan.global_sites = 10;
    const auto dep = anycast::build_deployment(plan, graph_, regions_);

    std::vector<anycast::source> sources;
    for (topo::asn_t asn : graph_.with_role(topo::as_role::eyeball)) {
        sources.push_back(anycast::source{asn, graph_.at(asn).presence.front()});
    }
    const anycast::catchment_table table{dep, sources, 9};
    // Eyeballs are all connected; every one should have a catchment row.
    EXPECT_EQ(table.rows().size(), sources.size());
    for (const auto& row : table.rows()) {
        EXPECT_LT(row.primary.site, dep.sites().size());
        EXPECT_GT(row.primary.rtt_ms, 0.0);
        if (row.secondary) {
            EXPECT_NE(row.secondary->site, row.primary.site);
            EXPECT_GT(row.secondary_fraction, 0.0);
            EXPECT_LT(row.secondary_fraction, 0.5);
        }
    }
}

TEST_F(DeploymentFixture, CatchmentLookupFindsRows) {
    anycast::deployment_plan plan;
    plan.name = "lookup";
    plan.strategy = anycast::hosting_strategy::open_hosting;
    plan.global_sites = 5;
    const auto dep = anycast::build_deployment(plan, graph_, regions_);
    const auto eyeballs = graph_.with_role(topo::as_role::eyeball);
    std::vector<anycast::source> sources{
        {eyeballs[0], graph_.at(eyeballs[0]).presence.front()}};
    const anycast::catchment_table table{dep, sources, 3};
    EXPECT_NE(table.find(sources[0].asn, sources[0].region), nullptr);
    EXPECT_EQ(table.find(sources[0].asn, sources[0].region + 1000), nullptr);
}

TEST_F(DeploymentFixture, CdnPartneredBeatsOpenHostingOnEfficiency) {
    // The quickstart claim as a regression test: same size, different
    // strategy => the partnered deployment sends more users to their
    // nearest site.
    anycast::deployment_plan open_plan;
    open_plan.name = "open";
    open_plan.strategy = anycast::hosting_strategy::open_hosting;
    open_plan.global_sites = 25;
    open_plan.seed = 5;
    const auto open_dep = anycast::build_deployment(open_plan, graph_, regions_);

    anycast::deployment_plan cdn_plan;
    cdn_plan.name = "partnered";
    cdn_plan.strategy = anycast::hosting_strategy::cdn_partnered;
    cdn_plan.global_sites = 25;
    cdn_plan.dedicated_asn = topo::asn_blocks::content_base + 11;
    cdn_plan.eyeball_peering_fraction = 0.6;
    cdn_plan.seed = 5;
    const auto cdn_dep = anycast::build_deployment(cdn_plan, graph_, regions_);

    auto zero_inflation_share = [&](const anycast::deployment& dep) {
        int zero = 0;
        int total = 0;
        for (topo::asn_t asn : graph_.with_role(topo::as_role::eyeball)) {
            const auto region = graph_.at(asn).presence.front();
            const auto path = dep.rib().select(asn, region);
            if (!path) continue;
            ++total;
            const double nearest = dep.nearest_global_site_km(regions_.at(region).location);
            if (path->direct_km - nearest < 50.0) ++zero;
        }
        return static_cast<double>(zero) / std::max(1, total);
    };
    EXPECT_GT(zero_inflation_share(cdn_dep), zero_inflation_share(open_dep));
}

} // namespace
