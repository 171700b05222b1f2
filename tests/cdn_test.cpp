// CDN ring structure, path evaluation, and telemetry generation.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "src/cdn/telemetry.h"
#include "src/core/world.h"

namespace {

using namespace ac;

class CdnFixture : public ::testing::Test {
protected:
    static const core::world& w() {
        static core::world instance{core::world_config::small()};
        return instance;
    }
    static const cdn::cdn_network& net() { return w().cdn_net(); }
};

TEST_F(CdnFixture, RingNamesAndSizes) {
    EXPECT_EQ(net().ring_count(), 5);
    EXPECT_EQ(net().ring_name(0), "R28");
    EXPECT_EQ(net().ring_size(0), 28);
    EXPECT_EQ(net().ring_name(4), "R110");
    EXPECT_EQ(net().ring_size(4), 110);
}

TEST_F(CdnFixture, FrontEndsAreImportanceOrdered) {
    const auto& regions = w().regions();
    const auto& fes = net().front_end_regions();
    for (std::size_t i = 1; i < fes.size(); ++i) {
        EXPECT_GE(regions.at(fes[i - 1]).population_weight,
                  regions.at(fes[i]).population_weight);
    }
}

TEST_F(CdnFixture, IngressPopIsRingIndependent) {
    // §2.2: traffic usually enters at the same PoP regardless of ring.
    // In the model it is *always* the same PoP by construction.
    for (const auto& loc : w().users().locations()) {
        std::optional<topo::region_id> ingress;
        for (int ring = 0; ring < net().ring_count(); ++ring) {
            const auto path = net().evaluate(loc.asn, loc.region, ring);
            if (!path) continue;
            if (!ingress) {
                ingress = path->ingress_pop;
            } else {
                EXPECT_EQ(*ingress, path->ingress_pop);
            }
        }
    }
}

TEST_F(CdnFixture, LargerRingsShortenTheInternalLeg) {
    for (const auto& loc : w().users().locations()) {
        double previous = std::numeric_limits<double>::infinity();
        for (int ring = 0; ring < net().ring_count(); ++ring) {
            const auto path = net().evaluate(loc.asn, loc.region, ring);
            if (!path) continue;
            EXPECT_LE(path->internal_rtt_ms, previous + 1e-9);
            previous = path->internal_rtt_ms;
        }
    }
}

TEST_F(CdnFixture, FrontEndBelongsToRing) {
    for (const auto& loc : w().users().locations()) {
        for (int ring = 0; ring < net().ring_count(); ++ring) {
            const auto path = net().evaluate(loc.asn, loc.region, ring);
            if (!path) continue;
            EXPECT_LT(path->front_end, net().ring_size(ring));
        }
    }
}

TEST_F(CdnFixture, NearestFrontEndShrinksWithRingSize) {
    for (int ring = 1; ring < net().ring_count(); ++ring) {
        EXPECT_LE(net().nearest_front_end_km(0, ring),
                  net().nearest_front_end_km(0, ring - 1) + 1e-9);
    }
}

// The region-id overloads read the region distance table; they must return
// the very bits of a haversine scan from the region's centre (EXPECT_EQ, not
// EXPECT_DOUBLE_EQ), for every region, every letter's deployment and every
// ring.
TEST_F(CdnFixture, RegionDistanceOverloadsMatchPointScan) {
    const auto& regions = w().regions();
    const auto& front_ends = net().front_end_regions();
    for (const auto& region : regions.all()) {
        for (const char letter : w().roots().all_letters()) {
            const auto& dep = w().roots().deployment_of(letter);
            EXPECT_EQ(dep.nearest_global_site_km(region.id),
                      dep.nearest_global_site_km(region.location))
                << letter << " from " << region.name;
        }
        for (int ring = 0; ring < net().ring_count(); ++ring) {
            double scan = std::numeric_limits<double>::infinity();
            for (int i = 0; i < net().ring_size(ring); ++i) {
                const auto fe = front_ends[static_cast<std::size_t>(i)];
                scan = std::min(scan, geo::distance_km(region.location, regions.at(fe).location));
            }
            EXPECT_EQ(net().nearest_front_end_km(region.id, ring), scan)
                << net().ring_name(ring) << " from " << region.name;
        }
    }
    // A table read is unchecked, so the overloads check the id themselves.
    const auto outside = static_cast<topo::region_id>(regions.size());
    EXPECT_THROW((void)net().nearest_front_end_km(outside, 0), std::out_of_range);
    EXPECT_THROW((void)w().roots().deployment_of('A').nearest_global_site_km(outside),
                 std::out_of_range);
}

TEST_F(CdnFixture, MostUsersReachCdnDirectly) {
    // The CDN peers with most eyeballs: 2-AS paths dominate (Fig. 6a).
    int direct = 0;
    int total = 0;
    for (const auto& loc : w().users().locations()) {
        const auto path = net().evaluate(loc.asn, loc.region, 0);
        if (!path) continue;
        ++total;
        if (path->path_ases <= 2) ++direct;
    }
    ASSERT_GT(total, 0);
    EXPECT_GT(static_cast<double>(direct) / total, 0.5);
}

TEST_F(CdnFixture, ServerLogsAreConsistentWithEvaluate) {
    const auto& logs = w().server_log_table();
    for (std::size_t i = 0; i < logs.rows(); ++i) {
        const auto path = net().evaluate(logs.asn[i], logs.region[i], logs.ring[i]);
        ASSERT_TRUE(path.has_value());
        EXPECT_EQ(logs.front_end[i], path->front_end);
        EXPECT_NEAR(logs.front_end_km[i], path->front_end_km, 1e-9);
        // Log medians wobble a little around the steady-state RTT.
        EXPECT_NEAR(logs.median_rtt_ms[i], path->rtt_ms, path->rtt_ms * 0.15);
    }
}

TEST_F(CdnFixture, ClientMeasurementsCoverEveryRingPerLocation) {
    std::map<std::pair<topo::asn_t, topo::region_id>, int> rings_seen;
    for (const auto& row : w().client_measurements()) {
        ++rings_seen[{row.asn, row.region}];
    }
    for (const auto& [loc, count] : rings_seen) {
        EXPECT_EQ(count, net().ring_count());
    }
}

TEST_F(CdnFixture, ClientFetchScalesWithRtt) {
    const double multiple = w().config().telemetry.fetch_rtt_multiple;
    for (const auto& row : w().client_measurements()) {
        const auto path = net().evaluate(row.asn, row.region, row.ring);
        ASSERT_TRUE(path.has_value());
        EXPECT_NEAR(row.median_fetch_ms, path->rtt_ms * multiple,
                    path->rtt_ms * multiple * 0.3);
    }
}

TEST(CdnValidation, RejectsUnsortedRings) {
    auto config = core::world_config::small();
    topo::region_table regions = topo::make_regions(config.regions, 1);
    topo::as_graph graph = topo::make_graph(regions, config.graph, 1);
    cdn::cdn_plan plan;
    plan.ring_sizes = {47, 28};
    EXPECT_THROW((cdn::cdn_network{plan, graph, regions}), std::invalid_argument);
}

} // namespace
