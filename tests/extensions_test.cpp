// Extension features: placement strategies, failover, the unicast
// comparison, and the DITL archive round trip.
#include <gtest/gtest.h>

#include <unordered_set>

#include "src/analysis/unicast.h"
#include "src/anycast/failover.h"
#include "src/anycast/placement.h"
#include "src/capture/filter.h"
#include "src/core/world.h"
#include "src/snapshot/world_io.h"

namespace {

using namespace ac;

class ExtensionFixture : public ::testing::Test {
protected:
    static const core::world& w() {
        static core::world instance{core::world_config::small()};
        return instance;
    }
};

// --- Placement. ---

TEST_F(ExtensionFixture, GreedyPlacementReturnsDistinctRegions) {
    const auto sites = anycast::greedy_placement(w().users(), w().regions(), 20);
    ASSERT_EQ(sites.size(), 20u);
    std::unordered_set<topo::region_id> distinct(sites.begin(), sites.end());
    EXPECT_EQ(distinct.size(), sites.size());
    for (topo::region_id r : sites) {
        EXPECT_NE(w().regions().at(r).cont, topo::continent::antarctica);
    }
}

TEST_F(ExtensionFixture, GreedyPrefixesAreNested) {
    const auto big = anycast::greedy_placement(w().users(), w().regions(), 15);
    const auto small = anycast::greedy_placement(w().users(), w().regions(), 5);
    ASSERT_EQ(small.size(), 5u);
    for (std::size_t i = 0; i < small.size(); ++i) EXPECT_EQ(small[i], big[i]);
}

TEST_F(ExtensionFixture, GreedyObjectiveImprovesMonotonically) {
    const auto sites = anycast::greedy_placement(w().users(), w().regions(), 12);
    double previous = std::numeric_limits<double>::infinity();
    for (std::size_t k = 1; k <= sites.size(); ++k) {
        const double objective = anycast::mean_user_distance_km(
            w().users(), w().regions(), std::span{sites.data(), k});
        EXPECT_LE(objective, previous + 1e-9) << "k=" << k;
        previous = objective;
    }
}

TEST_F(ExtensionFixture, GreedyBeatsRandomOnTheObjective) {
    const int k = 16;
    const auto greedy = anycast::greedy_placement(w().users(), w().regions(), k);
    const auto random = anycast::random_placement(w().regions(), k, 77);
    EXPECT_LT(anycast::mean_user_distance_km(w().users(), w().regions(), greedy),
              anycast::mean_user_distance_km(w().users(), w().regions(), random));
}

TEST_F(ExtensionFixture, RandomPlacementIsSeededAndBounded) {
    const auto a = anycast::random_placement(w().regions(), 10, 5);
    const auto b = anycast::random_placement(w().regions(), 10, 5);
    EXPECT_EQ(a, b);
    const auto c = anycast::random_placement(w().regions(), 100000, 5);
    EXPECT_LE(c.size(), w().regions().size());
}

TEST_F(ExtensionFixture, PlacementEdgeCases) {
    EXPECT_TRUE(anycast::greedy_placement(w().users(), w().regions(), 0).empty());
    EXPECT_THROW((void)anycast::mean_user_distance_km(w().users(), w().regions(), {}),
                 std::invalid_argument);
}

// --- Failover. ---

TEST_F(ExtensionFixture, FailingNoSitesChangesNothing) {
    const auto& dep = w().roots().deployment_of('C');
    const auto report = anycast::run_failover_study(dep, {}, w().users(), w().graph());
    EXPECT_EQ(report.failed_sites, 0);
    EXPECT_DOUBLE_EQ(report.affected_user_share, 0.0);
    EXPECT_DOUBLE_EQ(report.stranded_user_share, 0.0);
}

TEST_F(ExtensionFixture, FailingOneSiteMovesItsCatchment) {
    const auto& dep = w().roots().deployment_of('C');
    // Find a site that actually serves someone.
    std::optional<route::site_id> serving;
    for (const auto& loc : w().users().locations()) {
        if (const auto path = dep.rib().select(loc.asn, loc.region)) {
            serving = path->site;
            break;
        }
    }
    ASSERT_TRUE(serving.has_value());
    const std::vector<route::site_id> failed{*serving};
    const auto report = anycast::run_failover_study(dep, failed, w().users(), w().graph());
    EXPECT_GT(report.affected_user_share, 0.0);
    EXPECT_GT(report.max_absorbed_share, 0.0);
    EXPECT_LE(report.max_absorbed_share, 1.0);
}

TEST_F(ExtensionFixture, DegradedDeploymentNeverSelectsFailedSites) {
    const auto& dep = w().roots().deployment_of('L');
    std::vector<route::site_id> failed;
    for (route::site_id s = 0; s < 10; ++s) failed.push_back(s);
    const anycast::degraded_deployment degraded{dep, failed, w().graph()};
    std::unordered_set<route::site_id> down(failed.begin(), failed.end());
    for (const auto& loc : w().users().locations()) {
        if (const auto path = degraded.select(loc.asn, loc.region)) {
            EXPECT_FALSE(down.contains(path->site));
        }
    }
}

TEST_F(ExtensionFixture, FailingEverythingStrandsEveryone) {
    const auto& dep = w().roots().deployment_of('B');
    std::vector<route::site_id> all;
    for (const auto& s : dep.sites()) all.push_back(s.id);
    const auto report = anycast::run_failover_study(dep, all, w().users(), w().graph());
    EXPECT_GT(report.stranded_user_share, 0.9);
    EXPECT_DOUBLE_EQ(report.affected_user_share, 0.0);
}

// --- Unicast comparison. ---

TEST_F(ExtensionFixture, AnycastPenaltyIsNonNegativeAndBounded) {
    const auto c = analysis::compare_with_unicast(w().roots().deployment_of('C'), w().users());
    ASSERT_FALSE(c.anycast_penalty_ms.empty());
    EXPECT_GE(c.anycast_penalty_ms.min(), 0.0);
    EXPECT_GE(c.anycast_optimal_share, 0.0);
    EXPECT_LE(c.anycast_optimal_share, 1.0);
    // Users for whom anycast already picks the best site have ~zero penalty.
    EXPECT_GE(c.anycast_penalty_ms.fraction_leq(1.0), c.anycast_optimal_share - 0.05);
}

TEST_F(ExtensionFixture, UnicastResidualReflectsPhysicalBound) {
    const auto c = analysis::compare_with_unicast(w().roots().deployment_of('C'), w().users());
    ASSERT_FALSE(c.unicast_inflation_ms.empty());
    EXPECT_GE(c.unicast_inflation_ms.min(), 0.0);
    // Circuitousness + hops guarantee some residual for most users.
    EXPECT_GT(c.unicast_inflation_ms.median(), 0.0);
}

// --- DITL archive. ---

TEST(Serialize, FilteredAnalysisSurvivesRoundTrip) {
    // A capture archived as a DITL snapshot and read back must hold the same
    // rows and produce identical filter statistics: the archival workflow
    // behind `acctx export` / `acctx analyze`.
    core::world w{core::world_config::small()};
    const auto image = snapshot::encode_ditl(w.ditl());
    const auto parsed = snapshot::read_ditl(*snapshot::bundle::from_bytes(image));
    ASSERT_EQ(parsed.letters.size(), w.ditl().letters.size());
    for (std::size_t l = 0; l < parsed.letters.size(); ++l) {
        const auto& original = w.ditl().letters[l];
        const auto& archived = parsed.letters[l];
        EXPECT_EQ(archived.letter, original.letter);
        EXPECT_EQ(archived.spec.anon, original.spec.anon);
        EXPECT_EQ(archived.spec.in_ditl, original.spec.in_ditl);
        EXPECT_EQ(archived.spec.tcp_usable, original.spec.tcp_usable);
        EXPECT_EQ(archived.spec.complete, original.spec.complete);
        EXPECT_EQ(archived.spec.global_sites, original.spec.global_sites);
        EXPECT_EQ(archived.spec.local_sites, original.spec.local_sites);
        EXPECT_EQ(archived.ipv6_queries_per_day, original.ipv6_queries_per_day);
        ASSERT_EQ(archived.records.size(), original.records.size()) << original.letter;
        for (std::size_t i = 0; i < archived.records.size(); ++i) {
            EXPECT_EQ(archived.records[i].source_ip, original.records[i].source_ip);
            EXPECT_EQ(archived.records[i].site, original.records[i].site);
            EXPECT_EQ(archived.records[i].category, original.records[i].category);
            EXPECT_EQ(archived.records[i].queries_per_day, original.records[i].queries_per_day);
        }
        ASSERT_EQ(archived.tcp_rtts.size(), original.tcp_rtts.size()) << original.letter;
        for (std::size_t i = 0; i < archived.tcp_rtts.size(); ++i) {
            EXPECT_EQ(archived.tcp_rtts[i].source, original.tcp_rtts[i].source);
            EXPECT_EQ(archived.tcp_rtts[i].site, original.tcp_rtts[i].site);
            EXPECT_EQ(archived.tcp_rtts[i].sample_count, original.tcp_rtts[i].sample_count);
            EXPECT_EQ(archived.tcp_rtts[i].median_rtt_ms, original.tcp_rtts[i].median_rtt_ms);
            EXPECT_EQ(archived.tcp_rtts[i].queries_per_day,
                      original.tcp_rtts[i].queries_per_day);
        }
    }
    // Re-archiving what was read back reproduces the archive's bytes.
    EXPECT_EQ(snapshot::encode_ditl(parsed), image);

    const auto filtered_original = capture::filter_all(w.ditl());
    const auto filtered_parsed = capture::filter_all(parsed);
    ASSERT_EQ(filtered_original.size(), filtered_parsed.size());
    for (std::size_t i = 0; i < filtered_original.size(); ++i) {
        const auto& a = filtered_original[i].stats;
        const auto& b = filtered_parsed[i].stats;
        EXPECT_EQ(a.raw_queries_per_day, b.raw_queries_per_day);
        EXPECT_EQ(a.invalid_dropped, b.invalid_dropped);
        EXPECT_EQ(a.ptr_dropped, b.ptr_dropped);
        EXPECT_EQ(a.private_dropped, b.private_dropped);
        EXPECT_EQ(a.ipv6_dropped, b.ipv6_dropped);
        EXPECT_EQ(a.kept, b.kept);
    }
}

} // namespace
