// Atlas probe platform and the web page-load RTT model.
#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

#include "src/atlas/atlas.h"
#include "src/core/world.h"
#include "src/snapshot/xxhash64.h"
#include "src/web/browsing.h"
#include "src/web/page_load.h"

namespace {

using namespace ac;

class AtlasFixture : public ::testing::Test {
protected:
    static const core::world& w() {
        static core::world instance{core::world_config::small()};
        return instance;
    }
};

TEST_F(AtlasFixture, FleetSizeAndCoverage) {
    EXPECT_EQ(w().fleet().probes().size(),
              static_cast<std::size_t>(core::world_config::small().atlas.probe_count));
    EXPECT_GT(w().fleet().as_coverage(), 20u);
}

TEST_F(AtlasFixture, FleetIsEuropeBiased) {
    int europe = 0;
    for (const auto& p : w().fleet().probes()) {
        if (w().regions().at(p.region).cont == topo::continent::europe) ++europe;
    }
    const double europe_share =
        static_cast<double>(europe) / static_cast<double>(w().fleet().probes().size());
    // Europe has ~27% of this small world's regions but bias pushes higher.
    EXPECT_GT(europe_share, 0.30);
}

TEST_F(AtlasFixture, SampleIsDeterministicSubset) {
    const auto a = w().fleet().sample(50, 9);
    const auto b = w().fleet().sample(50, 9);
    ASSERT_EQ(a.size(), 50u);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].id, b[i].id);
    const auto c = w().fleet().sample(50, 10);
    bool differs = false;
    for (std::size_t i = 0; i < c.size(); ++i) {
        if (c[i].id != a[i].id) differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST_F(AtlasFixture, PingReturnsPlausibleRtts) {
    const auto& dep = w().roots().deployment_of('C');
    int reachable = 0;
    for (const auto& p : w().fleet().sample(100, 3)) {
        const auto result = atlas::ping(p, dep, 3, 3);
        if (!result.reachable) continue;
        ++reachable;
        EXPECT_GT(result.rtt_ms, 0.5);
        EXPECT_LT(result.rtt_ms, 1500.0);
    }
    EXPECT_GT(reachable, 80);
}

TEST_F(AtlasFixture, MinOfAttemptsNeverExceedsSingle) {
    const auto& dep = w().roots().deployment_of('C');
    const auto probe = w().fleet().probes().front();
    const auto one = atlas::ping(probe, dep, 1, 11);
    const auto many = atlas::ping(probe, dep, 8, 11);
    ASSERT_TRUE(one.reachable && many.reachable);
    EXPECT_LE(many.rtt_ms, one.rtt_ms + 1e-9);
}

TEST_F(AtlasFixture, OrganizationMergeCollapsesSiblings) {
    // Hand-built path with consecutive same-org hops.
    topo::as_graph graph{w().regions()};
    for (topo::asn_t asn : {1u, 2u, 3u}) {
        topo::autonomous_system as;
        as.asn = asn;
        as.organization = asn == 3 ? "org-b" : "org-a";  // 1 and 2 are siblings
        as.presence = {0};
        graph.add_as(as);
    }
    const auto length = [&](std::vector<topo::asn_t> path) {
        return atlas::organization_path_length(path, graph);
    };
    EXPECT_EQ(length({1, 2, 3}), 2);
    EXPECT_EQ(length({1, 3, 2}), 3);
    EXPECT_EQ(length({1}), 1);
    EXPECT_EQ(length({}), 0);
}

TEST_F(AtlasFixture, PathLengthsToCdnShorterThanToRoots) {
    double cdn_total = 0.0;
    double root_total = 0.0;
    int count = 0;
    for (const auto& p : w().fleet().sample(200, 5)) {
        const auto cdn_len = atlas::as_path_length_to_cdn(p, w().cdn_net(), w().graph());
        const auto root_len =
            atlas::as_path_length(p, w().roots().deployment_of('C'), w().graph());
        if (!cdn_len || !root_len) continue;
        cdn_total += *cdn_len;
        root_total += *root_len;
        ++count;
    }
    ASSERT_GT(count, 100);
    EXPECT_LT(cdn_total / count, root_total / count);
}

TEST_F(AtlasFixture, PathLengthsAreByteStable) {
    // Organization path length of every fleet probe toward the CDN and
    // toward every letter (-1 where unreachable).
    std::ostringstream text;
    for (const auto& p : w().fleet().probes()) {
        text << p.id << ':' << atlas::as_path_length_to_cdn(p, w().cdn_net(), w().graph())
                                   .value_or(-1);
        for (const char letter : w().roots().all_letters()) {
            text << ','
                 << atlas::as_path_length(p, w().roots().deployment_of(letter), w().graph())
                        .value_or(-1);
        }
        text << '\n';
    }
    const std::string bytes = text.str();
    EXPECT_EQ(snapshot::xxhash64(bytes.data(), bytes.size()), 0x8e4151f7e74e5555ull)
        << "path length digest changed: 0x" << std::hex
        << snapshot::xxhash64(bytes.data(), bytes.size());
}

TEST(PageLoad, TransferRttsEquation4) {
    // Eq. 4: N = ceil(log2(D / W)) with W = 15 kB.
    EXPECT_EQ(web::transfer_rtts(0.0), 0);
    EXPECT_EQ(web::transfer_rtts(1.0), 1);
    EXPECT_EQ(web::transfer_rtts(15000.0), 1);
    EXPECT_EQ(web::transfer_rtts(15001.0), 1);  // ceil(log2(1.00007)) = 1
    EXPECT_EQ(web::transfer_rtts(30001.0), 2);
    EXPECT_EQ(web::transfer_rtts(240000.0), 4);
    EXPECT_EQ(web::transfer_rtts(15000.0 * 1024.0), 10);
}

TEST(PageLoad, TransferRttsMonotoneInBytes) {
    int previous = 0;
    for (double bytes = 1000.0; bytes < 5e7; bytes *= 1.7) {
        const int rtts = web::transfer_rtts(bytes);
        EXPECT_GE(rtts, previous);
        previous = rtts;
    }
}

TEST(PageLoad, LargerWindowNeverCostsMore) {
    for (double bytes : {2e4, 1e5, 3e6}) {
        EXPECT_LE(web::transfer_rtts(bytes, 30000.0), web::transfer_rtts(bytes, 15000.0));
    }
}

TEST(PageLoad, HandshakesAddTwoRtts) {
    web::page p;
    p.name = "single";
    p.connections.push_back(web::connection{15000.0, 0.0, 1.0});
    EXPECT_EQ(web::page_load_rtts(p), 3);  // 2 handshakes + 1 transfer
}

TEST(PageLoad, ParallelConnectionsNotDoubleCounted) {
    web::page p;
    p.name = "parallel";
    p.connections.push_back(web::connection{200000.0, 0.0, 2.0});
    p.connections.push_back(web::connection{100000.0, 0.5, 1.5});  // overlaps
    p.connections.push_back(web::connection{50000.0, 2.5, 3.0});   // serial tail
    // Chain: 200kB (4 RTTs) + 50kB (2 RTTs) + 2 handshakes.
    EXPECT_EQ(web::page_load_rtts(p),
              2 + web::transfer_rtts(200000.0) + web::transfer_rtts(50000.0));
}

TEST(PageLoad, EmptyPageCostsNothing) {
    web::page p;
    EXPECT_EQ(web::page_load_rtts(p), 0);
}

TEST(PageLoad, StudyReproducesAppendixCShape) {
    const auto study = web::run_page_rtt_study(9, 20, web::page_model_options{}, 77);
    ASSERT_EQ(study.rtt_counts.size(), 180u);
    // Only a minority of loads fit in 10 RTTs; most fit in 20 (Appendix C).
    EXPECT_LT(study.fraction_within(10), 0.35);
    EXPECT_GT(study.fraction_within(20), 0.7);
    EXPECT_GE(study.percentile(0.9), study.percentile(0.5));
}

TEST(Browsing, DayHasPlausibleShape) {
    rand::rng gen{5};
    const auto day = web::simulate_browsing_day(web::browsing_options{}, gen);
    EXPECT_GE(day.page_loads, 0);
    EXPECT_GE(day.cumulative_page_load_s, 0.0);
    EXPECT_GE(day.active_browsing_s, 0.0);
    EXPECT_EQ(day.total_dns_queries(), day.browsing_dns_queries + day.background_dns_queries);
}

TEST(Browsing, MoreBrowsingMeansMoreQueries) {
    web::browsing_options light;
    light.page_loads_per_day_median = 10.0;
    web::browsing_options heavy;
    heavy.page_loads_per_day_median = 500.0;
    double light_q = 0.0;
    double heavy_q = 0.0;
    rand::rng gen{6};
    for (int i = 0; i < 50; ++i) {
        light_q += web::simulate_browsing_day(light, gen).browsing_dns_queries;
        heavy_q += web::simulate_browsing_day(heavy, gen).browsing_dns_queries;
    }
    EXPECT_GT(heavy_q, light_q * 5.0);
}

} // namespace
