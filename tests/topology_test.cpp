// Unit tests for regions, the AS graph, generation, addressing, and the
// derived databases (IP->ASN, geolocation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_set>

#include "src/core/world.h"
#include "src/topology/addressing.h"
#include "src/topology/as_graph.h"
#include "src/topology/generator.h"
#include "src/topology/region.h"

namespace {

using namespace ac;

TEST(Regions, PlanCountsAreHonored) {
    const topo::region_plan plan{};  // paper's 508 regions
    const auto table = topo::make_regions(plan, 1);
    EXPECT_EQ(table.size(), 508u);
    EXPECT_EQ(table.on_continent(topo::continent::europe).size(), 135u);
    EXPECT_EQ(table.on_continent(topo::continent::africa).size(), 62u);
    EXPECT_EQ(table.on_continent(topo::continent::asia).size(), 102u);
    EXPECT_EQ(table.on_continent(topo::continent::antarctica).size(), 2u);
    EXPECT_EQ(table.on_continent(topo::continent::north_america).size(), 137u);
    EXPECT_EQ(table.on_continent(topo::continent::south_america).size(), 41u);
    EXPECT_EQ(table.on_continent(topo::continent::oceania).size(), 29u);
}

TEST(Regions, DeterministicInSeed) {
    const auto a = topo::make_regions(topo::region_plan{}, 7);
    const auto b = topo::make_regions(topo::region_plan{}, 7);
    const auto c = topo::make_regions(topo::region_plan{}, 8);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.all()[i].location, b.all()[i].location);
    }
    bool any_differ = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!(a.all()[i].location == c.all()[i].location)) any_differ = true;
    }
    EXPECT_TRUE(any_differ);
}

TEST(Regions, CoordinatesAreValid) {
    const auto table = topo::make_regions(topo::region_plan{}, 3);
    for (const auto& r : table.all()) {
        EXPECT_GE(r.location.lat_deg, -90.0) << r.name;
        EXPECT_LE(r.location.lat_deg, 90.0) << r.name;
        EXPECT_GE(r.location.lon_deg, -180.0) << r.name;
        EXPECT_LT(r.location.lon_deg, 180.0) << r.name;
        EXPECT_GT(r.population_weight, 0.0) << r.name;
    }
}

TEST(Regions, MirroredDistanceTableMatchesPairwiseHaversine) {
    // The distance table computes its upper triangle and mirrors it, which
    // is exact only because haversine is bit-exact symmetric. Pin that over
    // every tier's region set against a full pairwise computation.
    for (const auto tier :
         {core::scale_tier::small, core::scale_tier::medium, core::scale_tier::large}) {
        const auto plan = core::world_config::for_tier(tier).regions;
        for (const std::uint64_t seed : {1u, 7u, 42u, 2021u}) {
            const auto table = topo::make_regions(plan, seed);
            const std::size_t n = table.size();
            std::vector<double> pairwise(n * n);
            std::vector<double> stored(n * n);
            for (std::size_t a = 0; a < n; ++a) {
                for (std::size_t b = 0; b < n; ++b) {
                    pairwise[a * n + b] =
                        geo::distance_km(table.all()[a].location, table.all()[b].location);
                }
                const auto row = table.distances().row(a);
                std::copy(row.begin(), row.end(), stored.begin() + static_cast<long>(a * n));
            }
            EXPECT_EQ(std::memcmp(pairwise.data(), stored.data(), n * n * sizeof(double)), 0)
                << core::to_string(tier) << " seed " << seed;
        }
    }
}

TEST(Regions, NearestFindsSelf) {
    const auto table = topo::make_regions(topo::region_plan{}, 3);
    const auto& target = table.all()[100];
    EXPECT_EQ(table.nearest(target.location), target.id);
}

// A one-region table: enough for hand-built graphs whose links all meet
// in region 0.
topo::region_table single_region() {
    topo::region r;
    r.name = "r0";
    return topo::region_table{{r}};
}

TEST(AsGraph, RejectsDuplicatesAndSelfLinks) {
    const auto regions = single_region();
    topo::as_graph graph{regions};
    topo::autonomous_system as;
    as.asn = 1;
    as.presence = {0};
    graph.add_as(as);
    EXPECT_THROW(graph.add_as(as), std::invalid_argument);

    topo::autonomous_system other;
    other.asn = 2;
    other.presence = {0};
    graph.add_as(other);
    EXPECT_THROW(graph.add_link(1, 1, topo::as_relationship::peer, {0}),
                 std::invalid_argument);
    graph.add_link(1, 2, topo::as_relationship::peer, {0});
    EXPECT_THROW(graph.add_link(2, 1, topo::as_relationship::peer, {0}),
                 std::invalid_argument);
    EXPECT_THROW(graph.add_link(1, 3, topo::as_relationship::peer, {0}),
                 std::invalid_argument);
}

TEST(AsGraph, RelationshipIsMirrored) {
    const auto regions = single_region();
    topo::as_graph graph{regions};
    for (topo::asn_t asn : {1u, 2u}) {
        topo::autonomous_system as;
        as.asn = asn;
        as.presence = {0};
        graph.add_as(as);
    }
    graph.add_link(1, 2, topo::as_relationship::provider, {0});
    ASSERT_EQ(graph.neighbors(1).size(), 1u);
    ASSERT_EQ(graph.neighbors(2).size(), 1u);
    EXPECT_EQ(graph.neighbors(1)[0].relationship, topo::as_relationship::provider);
    EXPECT_EQ(graph.neighbors(2)[0].relationship, topo::as_relationship::customer);
}

TEST(AsGraph, RejectsInterconnectsOutsideRegionTable) {
    const auto regions = single_region();
    topo::as_graph graph{regions};
    for (topo::asn_t asn : {1u, 2u}) {
        topo::autonomous_system as;
        as.asn = asn;
        as.presence = {0};
        graph.add_as(as);
    }
    EXPECT_THROW(graph.add_link(1, 2, topo::as_relationship::peer, {0, 1}),
                 std::invalid_argument);
    EXPECT_FALSE(graph.has_link(1, 2));
    graph.add_link(1, 2, topo::as_relationship::peer, {0});
    EXPECT_EQ(graph.nearest_interconnect(0, 0), 0u);
}

TEST(AsGraph, NearestInterconnectTakesFirstOnTies) {
    // Regions 0, 1, 2 on one parallel, 14 degrees apart: region 1 is exactly
    // as far from 0 as from 2, so link order decides, as the argmin scan did.
    std::vector<topo::region> raw;
    for (int i = 0; i < 3; ++i) {
        topo::region r;
        r.id = static_cast<topo::region_id>(i);
        r.name = "r" + std::to_string(i);
        r.location = geo::point{50.0, static_cast<double>(i) * 14.0};
        raw.push_back(r);
    }
    const topo::region_table regions{std::move(raw)};
    ASSERT_EQ(regions.distance_km(1, 0), regions.distance_km(1, 2));
    topo::as_graph graph{regions};
    for (topo::asn_t asn : {1u, 2u, 3u}) {
        topo::autonomous_system as;
        as.asn = asn;
        as.presence = {0, 2};
        graph.add_as(as);
    }
    graph.add_link(1, 2, topo::as_relationship::peer, {2, 0});
    graph.add_link(1, 3, topo::as_relationship::peer, {0, 2});
    EXPECT_EQ(graph.nearest_interconnect(0, 1), 2u);
    EXPECT_EQ(graph.nearest_interconnect(1, 1), 0u);
    for (std::uint32_t link : {0u, 1u}) {
        EXPECT_EQ(graph.nearest_interconnect(link, 0), 0u);
        EXPECT_EQ(graph.nearest_interconnect(link, 2), 2u);
    }
}

TEST(AsGraph, InvertIsInvolution) {
    for (auto rel : {topo::as_relationship::provider, topo::as_relationship::customer,
                     topo::as_relationship::peer}) {
        EXPECT_EQ(topo::invert(topo::invert(rel)), rel);
    }
}

class GeneratedGraph : public ::testing::Test {
protected:
    GeneratedGraph()
        : regions_(topo::make_regions(topo::region_plan{}, 11)),
          graph_(topo::make_graph(regions_, topo::graph_plan{}, 11)) {}

    topo::region_table regions_;
    topo::as_graph graph_;
};

TEST_F(GeneratedGraph, RoleCountsMatchPlan) {
    const topo::graph_plan plan{};
    EXPECT_EQ(graph_.with_role(topo::as_role::tier1).size(),
              static_cast<std::size_t>(plan.tier1_count));
    EXPECT_EQ(graph_.with_role(topo::as_role::eyeball).size(),
              static_cast<std::size_t>(plan.eyeball_count));
    // Transits: 6 populated continents * per-continent + 1 for Antarctica.
    EXPECT_EQ(graph_.with_role(topo::as_role::transit).size(),
              static_cast<std::size_t>(6 * plan.transits_per_continent + 1));
}

TEST_F(GeneratedGraph, EveryEyeballHasAProvider) {
    for (topo::asn_t asn : graph_.with_role(topo::as_role::eyeball)) {
        bool has_provider = false;
        for (const auto& nb : graph_.neighbors(asn)) {
            if (nb.relationship == topo::as_relationship::provider) has_provider = true;
        }
        EXPECT_TRUE(has_provider) << "eyeball " << asn;
    }
}

TEST_F(GeneratedGraph, Tier1sFormFullMesh) {
    const auto tier1s = graph_.with_role(topo::as_role::tier1);
    for (std::size_t i = 0; i < tier1s.size(); ++i) {
        for (std::size_t j = i + 1; j < tier1s.size(); ++j) {
            EXPECT_TRUE(graph_.has_link(tier1s[i], tier1s[j]));
        }
    }
}

TEST_F(GeneratedGraph, Tier1sHaveNoProviders) {
    for (topo::asn_t asn : graph_.with_role(topo::as_role::tier1)) {
        for (const auto& nb : graph_.neighbors(asn)) {
            EXPECT_NE(nb.relationship, topo::as_relationship::provider)
                << "tier1 " << asn << " has a provider";
        }
    }
}

TEST_F(GeneratedGraph, LinksCarryInterconnects) {
    for (const auto& link : graph_.links()) {
        EXPECT_FALSE(link.interconnect_regions.empty());
        EXPECT_GE(link.circuitousness, 1.0);
        EXPECT_LE(link.circuitousness, 2.0);
    }
}

TEST_F(GeneratedGraph, ContentAttachmentPeersAndTransits) {
    topo::content_attachment options;
    options.asn = topo::asn_blocks::content_base + 7;
    options.name = "test-content";
    options.presence = {regions_.all()[0].id, regions_.all()[200].id};
    options.eyeball_peering_fraction = 0.5;
    options.seed = 3;
    topo::attach_content_as(graph_, regions_, options);

    ASSERT_TRUE(graph_.has_as(options.asn));
    int providers = 0;
    int peers = 0;
    for (const auto& nb : graph_.neighbors(options.asn)) {
        if (nb.relationship == topo::as_relationship::provider) ++providers;
        if (nb.relationship == topo::as_relationship::peer) ++peers;
    }
    EXPECT_EQ(providers, options.tier1_providers);
    // ~50% of 1200 eyeballs plus some transits.
    EXPECT_GT(peers, 400);
}

TEST(AddressSpace, AllocationAndLookup) {
    topo::address_space space;
    const auto block = space.allocate(42, 7, 4);
    const auto info = space.lookup(block);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->asn, 42u);
    EXPECT_EQ(info->region, 7u);
    // All four /24s resolve.
    for (std::uint32_t i = 0; i < 4; ++i) {
        const net::slash24 s{net::ipv4_addr{(block.key() + i) << 8}};
        EXPECT_TRUE(space.lookup(s).has_value()) << i;
    }
    const net::slash24 outside{net::ipv4_addr{(block.key() + 4) << 8}};
    EXPECT_FALSE(space.lookup(outside).has_value());
}

TEST(AddressSpace, IxpSpaceIsAnonymous) {
    topo::address_space space;
    const auto ixp = space.allocate_ixp(2);
    EXPECT_TRUE(space.is_ixp(ixp));
    EXPECT_FALSE(space.lookup(ixp).has_value());
}

TEST(AddressSpace, BlocksOfFiltersByRegion) {
    topo::address_space space;
    space.allocate(1, 10, 2);
    space.allocate(1, 20, 3);
    space.allocate(2, 10, 1);
    EXPECT_EQ(space.blocks_of(1).size(), 5u);
    EXPECT_EQ(space.blocks_of(1, 10).size(), 2u);
    EXPECT_EQ(space.blocks_of(1, 20).size(), 3u);
    EXPECT_EQ(space.blocks_of(2).size(), 1u);
}

TEST(AddressSpace, RejectsBadAllocations) {
    topo::address_space space;
    EXPECT_THROW(space.allocate(1, 0, 0), std::invalid_argument);
    EXPECT_THROW(space.allocate(0, 0, 1), std::invalid_argument);
}

TEST(IpToAsn, FullCoverageRoundTrips) {
    topo::address_space space;
    space.allocate(100, 0, 10);
    space.allocate(200, 1, 10);
    const topo::ip_to_asn mapper{space, /*unmapped_fraction=*/0.0, 1};
    EXPECT_DOUBLE_EQ(mapper.coverage(), 1.0);
    const auto blocks = space.blocks_of(100);
    for (const auto& b : blocks) {
        EXPECT_EQ(mapper.lookup(b), std::optional<topo::asn_t>{100});
    }
}

TEST(IpToAsn, UnmappedFractionRoughlyHonored) {
    topo::address_space space;
    space.allocate(100, 0, 2000);
    const topo::ip_to_asn mapper{space, 0.2, 1};
    EXPECT_NEAR(mapper.coverage(), 0.8, 0.05);
}

TEST(IpToAsn, IxpSpaceUnmapped) {
    topo::address_space space;
    const auto ixp = space.allocate_ixp(5);
    const topo::ip_to_asn mapper{space, 0.0, 1};
    EXPECT_FALSE(mapper.lookup(ixp).has_value());
}

TEST(GeoDatabase, LocatesNearTrueRegion) {
    const auto regions = topo::make_regions(topo::region_plan{}, 5);
    topo::address_space space;
    const auto block = space.allocate(100, 50, 200);
    topo::geo_database::options opts;
    opts.wrong_region_p = 0.0;
    opts.jitter_km = 20.0;
    const topo::geo_database geodb{space, regions, opts, 5};

    const auto true_loc = regions.at(50).location;
    for (std::uint32_t i = 0; i < 200; ++i) {
        const net::slash24 s{net::ipv4_addr{(block.key() + i) << 8}};
        const auto located = geodb.locate(s);
        ASSERT_TRUE(located.has_value());
        EXPECT_LT(geo::distance_km(*located, true_loc), 150.0);
    }
}

TEST(GeoDatabase, ErrorsStayOnContinent) {
    const auto regions = topo::make_regions(topo::region_plan{}, 5);
    topo::address_space space;
    const auto region_id = regions.on_continent(topo::continent::europe).front();
    const auto block = space.allocate(100, region_id, 300);
    topo::geo_database::options opts;
    opts.wrong_region_p = 1.0;  // always mislocate
    const topo::geo_database geodb{space, regions, opts, 5};

    for (std::uint32_t i = 0; i < 300; ++i) {
        const net::slash24 s{net::ipv4_addr{(block.key() + i) << 8}};
        const auto located = geodb.locate(s);
        ASSERT_TRUE(located.has_value());
        // The mislocated point must be some European region's centre.
        const auto nearest = regions.nearest(*located);
        EXPECT_EQ(regions.at(nearest).cont, topo::continent::europe);
    }
}

TEST(GeoDatabase, StablePerBlock) {
    const auto regions = topo::make_regions(topo::region_plan{}, 5);
    topo::address_space space;
    const auto block = space.allocate(100, 0, 1);
    const topo::geo_database geodb{space, regions, {}, 5};
    const auto a = geodb.locate(block);
    const auto b = geodb.locate(block);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->lat_deg, b->lat_deg);
    EXPECT_EQ(a->lon_deg, b->lon_deg);
}

} // namespace
