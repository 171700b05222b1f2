// DITL capture generation, anonymization, and the §2.1 filter pipeline.
#include <gtest/gtest.h>

#include <unordered_set>

#include "src/capture/filter.h"
#include "src/core/world.h"

namespace {

using namespace ac;

class CaptureFixture : public ::testing::Test {
protected:
    static const core::world& w() {
        static core::world instance{core::world_config::small()};
        return instance;
    }
};

TEST_F(CaptureFixture, LettersWithoutDataAreAbsent) {
    for (const auto& lc : w().ditl().letters) {
        EXPECT_NE(lc.letter, 'G');  // G contributed no captures in 2018
    }
    EXPECT_THROW((void)w().ditl().of('G'), std::out_of_range);
}

TEST_F(CaptureFixture, BRootSourcesAreSlash24Truncated) {
    const auto& b = w().ditl().of('B');
    for (const auto& r : b.records) {
        EXPECT_EQ(r.source_ip.value() & 0xffu, 0u) << r.source_ip.to_string();
    }
}

TEST_F(CaptureFixture, IRootSourcesAreScrambled) {
    const auto& i = w().ditl().of('I');
    // Scrambled sources never join with ground truth: none are allocated.
    int checked = 0;
    for (const auto& r : i.records) {
        EXPECT_FALSE(w().space().lookup(net::slash24{r.source_ip}).has_value());
        if (++checked >= 100) break;
    }
}

TEST_F(CaptureFixture, UnanonymizedSourcesMostlyResolve) {
    const auto& c = w().ditl().of('C');
    int resolved = 0;
    int total = 0;
    for (const auto& r : c.records) {
        if (net::is_private_or_reserved(r.source_ip)) continue;
        ++total;
        if (w().space().lookup(net::slash24{r.source_ip})) ++resolved;
    }
    ASSERT_GT(total, 0);
    EXPECT_GT(static_cast<double>(resolved) / total, 0.99);
}

TEST_F(CaptureFixture, TcpRowsOnlyForUsableLetters) {
    for (const auto& lc : w().ditl().letters) {
        if (!lc.spec.tcp_usable) {
            EXPECT_TRUE(lc.tcp_rtts.empty()) << lc.letter;
        }
    }
    // At least one usable letter has rows.
    EXPECT_FALSE(w().ditl().of('C').tcp_rtts.empty());
}

TEST_F(CaptureFixture, TcpRowsRespectSampleFloor) {
    for (const auto& lc : w().ditl().letters) {
        for (const auto& row : lc.tcp_rtts) {
            EXPECT_GE(row.sample_count, w().config().ditl.min_tcp_samples);
            EXPECT_GT(row.median_rtt_ms, 0.0);
        }
    }
}

TEST_F(CaptureFixture, VolumeSharesRoughlyMatchPaper) {
    // §2.1: invalid-TLD + PTR dominate; 7% private; 12% IPv6.
    double raw = 0.0;
    double invalid = 0.0;
    double ptr = 0.0;
    double ipv6 = 0.0;
    double private_src = 0.0;
    for (const auto& lc : capture::filter_all(w().ditl())) {
        raw += lc.stats.raw_queries_per_day;
        invalid += lc.stats.invalid_dropped;
        ptr += lc.stats.ptr_dropped;
        ipv6 += lc.stats.ipv6_dropped;
        private_src += lc.stats.private_dropped;
    }
    EXPECT_NEAR(ipv6 / raw, 0.12, 0.03);
    EXPECT_NEAR(private_src / raw, 0.065, 0.03);
    EXPECT_GT(invalid / raw, 0.4);   // junk dominates
    EXPECT_GT(ptr / raw, 0.005);
}

TEST_F(CaptureFixture, FilterConservesVolume) {
    for (const auto& lc : capture::filter_all(w().ditl())) {
        const double accounted = lc.stats.kept + lc.stats.invalid_dropped +
                                 lc.stats.ptr_dropped + lc.stats.private_dropped +
                                 lc.stats.ipv6_dropped;
        EXPECT_NEAR(accounted, lc.stats.raw_queries_per_day,
                    lc.stats.raw_queries_per_day * 1e-9)
            << lc.letter;
    }
}

TEST_F(CaptureFixture, FilterOptionsAreHonored) {
    const auto& raw = w().ditl().of('C');
    capture::filter_options keep_junk;
    keep_junk.drop_invalid_tld = false;
    keep_junk.drop_ptr = false;
    const auto filtered = capture::filter_letter(raw, keep_junk);
    EXPECT_DOUBLE_EQ(filtered.stats.invalid_dropped, 0.0);
    EXPECT_DOUBLE_EQ(filtered.stats.ptr_dropped, 0.0);
    EXPECT_GT(filtered.stats.private_dropped, 0.0);
}

TEST_F(CaptureFixture, AggregationPreservesTotals) {
    const auto filtered = capture::filter_all(w().ditl());
    const auto& letter = filtered.front();
    double record_total = 0.0;
    for (const auto& r : letter.records) record_total += r.queries_per_day;

    const auto by24 = capture::aggregate_by_slash24(letter.records);
    double agg_total = 0.0;
    for (const auto& v : by24) {
        double site_total = 0.0;
        for (const auto& s : v.sites) site_total += s.queries_per_day;
        EXPECT_NEAR(site_total, v.total_queries_per_day, 1e-6);
        agg_total += v.total_queries_per_day;
    }
    EXPECT_NEAR(agg_total, record_total, record_total * 1e-9);

    const auto by_ip = capture::aggregate_by_ip(letter.records);
    double ip_total = 0.0;
    for (const auto& v : by_ip) ip_total += v.total_queries_per_day;
    EXPECT_NEAR(ip_total, record_total, record_total * 1e-9);
    EXPECT_GE(by_ip.size(), by24.size());
}

TEST_F(CaptureFixture, SecondarySitesAppearForSomeSlash24s) {
    // App. B.2: a minority of /24s see more than one site per letter.
    const auto& letter = w().ditl().of('L');
    const auto by24 = capture::aggregate_by_slash24(letter.records);
    int multi = 0;
    for (const auto& v : by24) {
        if (v.sites.size() > 1) ++multi;
    }
    EXPECT_GT(multi, 0);
    EXPECT_LT(static_cast<double>(multi) / static_cast<double>(by24.size()), 0.5);
}

TEST_F(CaptureFixture, LocalSitesAbsorbSomeQueries) {
    // D root has many local sites; some traffic must land on them.
    const auto& d = w().ditl().of('D');
    const auto& dep = w().roots().deployment_of('D');
    double local_volume = 0.0;
    double total = 0.0;
    for (const auto& r : d.records) {
        total += r.queries_per_day;
        if (dep.site_at(r.site).scope == route::announcement_scope::local) {
            local_volume += r.queries_per_day;
        }
    }
    EXPECT_GT(local_volume, 0.0);
    EXPECT_LT(local_volume, total);
}

} // namespace
