// Integration smoke test: a small world builds end-to-end and its datasets
// hang together (counts, joins, catchments).
#include <gtest/gtest.h>

#include "src/core/world.h"

namespace {

using namespace ac;

class WorldSmoke : public ::testing::Test {
protected:
    static const core::world& w() {
        static core::world instance{core::world_config::small()};
        return instance;
    }
};

TEST_F(WorldSmoke, RegionsMatchPlan) {
    EXPECT_EQ(w().regions().size(),
              static_cast<std::size_t>(core::world_config::small().regions.total()));
}

TEST_F(WorldSmoke, GraphHasAllRoles) {
    EXPECT_FALSE(w().graph().with_role(topo::as_role::tier1).empty());
    EXPECT_FALSE(w().graph().with_role(topo::as_role::transit).empty());
    EXPECT_FALSE(w().graph().with_role(topo::as_role::eyeball).empty());
    EXPECT_FALSE(w().graph().with_role(topo::as_role::content).empty());
}

TEST_F(WorldSmoke, UsersExist) {
    EXPECT_GT(w().users().total_users(), 0.0);
    EXPECT_FALSE(w().users().locations().empty());
    EXPECT_FALSE(w().users().recursives().empty());
}

TEST_F(WorldSmoke, ThirteenLettersBuilt) {
    EXPECT_EQ(w().roots().all_letters().size(), 13u);
    // G is not in DITL; I is anonymized; H is single-site.
    const auto geo = w().roots().geographic_analysis_letters();
    EXPECT_EQ(geo.size(), 10u);
    EXPECT_EQ(std::count(geo.begin(), geo.end(), 'G'), 0);
    EXPECT_EQ(std::count(geo.begin(), geo.end(), 'I'), 0);
    EXPECT_EQ(std::count(geo.begin(), geo.end(), 'H'), 0);
    // D and L additionally drop out of the latency analysis.
    const auto lat = w().roots().latency_analysis_letters();
    EXPECT_EQ(lat.size(), 8u);
    EXPECT_EQ(std::count(lat.begin(), lat.end(), 'D'), 0);
    EXPECT_EQ(std::count(lat.begin(), lat.end(), 'L'), 0);
}

TEST_F(WorldSmoke, DitlHasTwelveLetters) {
    // All letters except G contribute captures.
    EXPECT_EQ(w().ditl().letters.size(), 12u);
    EXPECT_GT(w().ditl().total_queries_per_day(), 0.0);
}

TEST_F(WorldSmoke, FilteringDropsJunk) {
    for (const auto& f : capture::filter_all(w().ditl())) {
        EXPECT_GT(f.stats.invalid_dropped, 0.0) << f.letter;
        EXPECT_GT(f.stats.kept, 0.0) << f.letter;
        EXPECT_LT(f.stats.kept, f.stats.raw_queries_per_day) << f.letter;
        for (const auto& r : f.records) {
            EXPECT_EQ(r.category, capture::query_category::valid_tld);
            EXPECT_FALSE(net::is_private_or_reserved(r.source_ip));
        }
    }
}

TEST_F(WorldSmoke, CdnRingsAreNested) {
    const auto& cdn = w().cdn_net();
    ASSERT_EQ(cdn.ring_count(), 5);
    EXPECT_EQ(cdn.ring_name(0), "R28");
    EXPECT_EQ(cdn.ring_name(4), "R110");
    EXPECT_EQ(cdn.front_end_regions().size(), 110u);
}

TEST_F(WorldSmoke, ServerLogsCoverRings) {
    bool seen[5] = {};
    const auto& logs = w().server_log_table();
    for (std::size_t i = 0; i < logs.rows(); ++i) {
        ASSERT_GE(logs.ring[i], 0);
        ASSERT_LT(logs.ring[i], 5);
        seen[logs.ring[i]] = true;
        EXPECT_GE(logs.sample_count[i], 10);
        EXPECT_GT(logs.median_rtt_ms[i], 0.0);
    }
    for (bool s : seen) EXPECT_TRUE(s);
}

TEST_F(WorldSmoke, FleetHasProbes) {
    EXPECT_GT(w().fleet().probes().size(), 100u);
    EXPECT_GT(w().fleet().as_coverage(), 10u);
}

TEST_F(WorldSmoke, AsMapperCoversMostSpace) {
    EXPECT_GT(w().as_mapper().coverage(), 0.98);
}

TEST_F(WorldSmoke, GeodbLocatesRecursives) {
    int located = 0;
    int probed = 0;
    for (const auto& rec : w().users().recursives()) {
        ++probed;
        if (w().geodb().locate(rec.block)) ++located;
        if (probed >= 200) break;
    }
    EXPECT_EQ(located, probed);
}

TEST_F(WorldSmoke, DeterministicAcrossBuilds) {
    core::world a{core::world_config::small()};
    core::world b{core::world_config::small()};
    ASSERT_EQ(a.ditl().letters.size(), b.ditl().letters.size());
    EXPECT_DOUBLE_EQ(a.ditl().total_queries_per_day(), b.ditl().total_queries_per_day());
    ASSERT_EQ(a.server_log_table().rows(), b.server_log_table().rows());
    for (std::size_t i = 0; i < std::min<std::size_t>(100, a.server_log_table().rows()); ++i) {
        EXPECT_DOUBLE_EQ(a.server_log_table().median_rtt_ms[i],
                         b.server_log_table().median_rtt_ms[i]);
    }
}

} // namespace
