// DITL capture generation, anonymization, and the §2.1 filter pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "src/capture/filter.h"
#include "src/core/world.h"
#include "src/table/table.h"

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

TEST_F(CaptureFixture, TableFilterKeepsTheRowsTheRecordFilterKeeps) {
    capture::filter_options keep_junk;
    keep_junk.drop_invalid_tld = false;
    keep_junk.drop_ptr = false;
    capture::filter_options keep_all = keep_junk;
    keep_all.drop_private_sources = false;
    const auto same = [](const auto& a, const auto& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    for (const auto& raw : w().ditl().letters) {
        const auto raw_table = capture::to_table(raw);
        for (const auto& options : {capture::filter_options{}, keep_junk, keep_all}) {
            const auto want = capture::to_table(capture::filter_letter(raw, options));
            const auto got = capture::filter_table(raw_table, options);
            EXPECT_EQ(got.letter, want.letter);
            EXPECT_TRUE(same(got.source_ip.view(), want.source_ip.view())) << raw.letter;
            EXPECT_TRUE(same(got.site.view(), want.site.view())) << raw.letter;
            EXPECT_TRUE(same(got.category.view(), want.category.view())) << raw.letter;
            EXPECT_TRUE(same(got.queries_per_day.view(), want.queries_per_day.view()))
                << raw.letter;
            EXPECT_TRUE(same(got.tcp_key.view(), want.tcp_key.view())) << raw.letter;
            EXPECT_TRUE(same(got.tcp_median_rtt_ms.view(), want.tcp_median_rtt_ms.view()))
                << raw.letter;
        }
    }
}

/// Groups a letter table's rows by (source key << 32) | site, where the
/// source key is the /24 key or the whole address.
table::grouping<std::uint64_t> group_by_source_and_site(const capture::letter_table& t,
                                                        bool by_slash24) {
    std::vector<std::uint64_t> keys;
    keys.reserve(t.rows());
    for (std::size_t i = 0; i < t.rows(); ++i) {
        const std::uint32_t ip = t.source_ip[i];
        const std::uint32_t source = by_slash24 ? net::slash24{net::ipv4_addr{ip}}.key() : ip;
        keys.push_back((std::uint64_t{source} << 32) | t.site[i]);
    }
    return table::make_grouping(std::span<const std::uint64_t>{keys});
}

/// Sites reached per source (the high 32 bits of the keys), in ascending
/// source order: each source holds one group per site.
std::vector<std::size_t> sites_per_source(const table::grouping<std::uint64_t>& g) {
    std::vector<std::size_t> sites;
    for (std::size_t i = 0; i < g.groups(); ++i) {
        if (i == 0 || (g.keys[i] >> 32) != (g.keys[i - 1] >> 32)) sites.push_back(0);
        ++sites.back();
    }
    return sites;
}

TEST_F(CaptureFixture, AggregationPreservesTotals) {
    const auto filtered = capture::filter_all(w().ditl());
    const auto t = capture::to_table(filtered.front());
    double record_total = 0.0;
    for (const auto& r : filtered.front().records) record_total += r.queries_per_day;

    const auto by24 = group_by_source_and_site(t, true);
    const auto by_ip = group_by_source_and_site(t, false);
    for (const auto* g : {&by24, &by_ip}) {
        double grouped_total = 0.0;
        for (const double v : table::sum_by(*g, t.queries_per_day.view())) grouped_total += v;
        EXPECT_NEAR(grouped_total, record_total, record_total * 1e-9);
    }
    EXPECT_GE(sites_per_source(by_ip).size(), sites_per_source(by24).size());
}

TEST_F(CaptureFixture, SecondarySitesAppearForSomeSlash24s) {
    // App. B.2: a minority of /24s see more than one site per letter.
    const auto sites = sites_per_source(
        group_by_source_and_site(capture::to_table(w().ditl().of('L')), true));
    const auto multi =
        std::count_if(sites.begin(), sites.end(), [](std::size_t n) { return n > 1; });
    EXPECT_GT(multi, 0);
    EXPECT_LT(static_cast<double>(multi) / static_cast<double>(sites.size()), 0.5);
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
