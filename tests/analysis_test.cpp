// Analysis primitives: weighted CDFs, the Eq. 1/Eq. 2 inflation math on
// hand-built inputs, joins, overlap, and favorite-site fractions.
#include <gtest/gtest.h>

#include <map>

#include "src/analysis/deployment_metrics.h"
#include "src/analysis/inflation.h"
#include "src/analysis/join.h"
#include "src/analysis/stats.h"
#include "src/core/world.h"

namespace {

using namespace ac;

TEST(WeightedCdf, QuantilesOfUniformWeights) {
    analysis::weighted_cdf cdf;
    for (int i = 1; i <= 100; ++i) cdf.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
    EXPECT_DOUBLE_EQ(cdf.max(), 100.0);
    EXPECT_NEAR(cdf.median(), 50.0, 1.0);
    EXPECT_NEAR(cdf.quantile(0.9), 90.0, 1.0);
    EXPECT_NEAR(cdf.mean(), 50.5, 1e-9);
}

TEST(WeightedCdf, WeightsShiftQuantiles) {
    analysis::weighted_cdf cdf;
    cdf.add(1.0, 9.0);
    cdf.add(100.0, 1.0);
    EXPECT_DOUBLE_EQ(cdf.median(), 1.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.95), 100.0);
    EXPECT_NEAR(cdf.fraction_leq(1.0), 0.9, 1e-9);
    EXPECT_NEAR(cdf.fraction_above(1.0), 0.1, 1e-9);
}

TEST(WeightedCdf, ZeroAndNegativeWeightsIgnored) {
    analysis::weighted_cdf cdf;
    cdf.add(5.0, 0.0);
    cdf.add(7.0, -1.0);
    EXPECT_TRUE(cdf.empty());
    EXPECT_THROW((void)cdf.quantile(0.5), std::logic_error);
}

TEST(WeightedCdf, CurveIsMonotone) {
    analysis::weighted_cdf cdf;
    rand::rng gen{3};
    for (int i = 0; i < 500; ++i) cdf.add(gen.lognormal(0.0, 1.0), gen.uniform(0.1, 2.0));
    const auto curve = cdf.curve(20);
    ASSERT_EQ(curve.size(), 20u);
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GE(curve[i].first, curve[i - 1].first);
        EXPECT_GE(curve[i].second, curve[i - 1].second);
    }
}

TEST(WeightedCdf, FractionLeqIsInverseOfQuantile) {
    analysis::weighted_cdf cdf;
    rand::rng gen{9};
    for (int i = 0; i < 300; ++i) cdf.add(gen.uniform(0.0, 10.0));
    for (double q : {0.1, 0.3, 0.5, 0.8}) {
        EXPECT_GE(cdf.fraction_leq(cdf.quantile(q)), q - 0.01);
    }
}

TEST(BoxSummary, FiveNumbersOrdered) {
    analysis::weighted_cdf cdf;
    rand::rng gen{4};
    for (int i = 0; i < 200; ++i) cdf.add(gen.normal(10.0, 3.0));
    const auto box = analysis::summarize(cdf);
    EXPECT_LE(box.minimum, box.q1);
    EXPECT_LE(box.q1, box.median);
    EXPECT_LE(box.median, box.q3);
    EXPECT_LE(box.q3, box.maximum);
    EXPECT_DOUBLE_EQ(box.weight, cdf.total_weight());
}

TEST(MedianHelpers, MedianOfAndWeightedMedian) {
    EXPECT_DOUBLE_EQ(analysis::median_of({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(analysis::median_of({}), 0.0);
    const std::vector<std::pair<double, double>> vw{{1.0, 1.0}, {5.0, 10.0}};
    EXPECT_DOUBLE_EQ(analysis::weighted_median(vw), 5.0);
}

// --- Inflation math on a fully synthetic world. ---

class InflationFixture : public ::testing::Test {
protected:
    static const core::world& w() {
        static core::world instance{core::world_config::small()};
        return instance;
    }
    static const analysis::root_inflation_result& roots() {
        static const analysis::root_inflation_result r = analysis::compute_root_inflation(
            w().filtered_tables(), w().roots(), w().geodb(), w().cdn_user_counts());
        return r;
    }
};

TEST_F(InflationFixture, AllAnalysisLettersPresent) {
    for (char letter : w().roots().geographic_analysis_letters()) {
        EXPECT_TRUE(roots().geographic.contains(letter)) << letter;
    }
    for (char letter : w().roots().latency_analysis_letters()) {
        EXPECT_TRUE(roots().latency.contains(letter)) << letter;
    }
    // Excluded letters must be absent.
    EXPECT_FALSE(roots().geographic.contains('G'));
    EXPECT_FALSE(roots().geographic.contains('I'));
    EXPECT_FALSE(roots().geographic.contains('H'));
    EXPECT_FALSE(roots().latency.contains('D'));
    EXPECT_FALSE(roots().latency.contains('L'));
}

TEST_F(InflationFixture, InflationIsNonNegative) {
    for (const auto& [letter, cdf] : roots().geographic) {
        EXPECT_GE(cdf.min(), 0.0) << letter;
    }
    for (const auto& [letter, cdf] : roots().latency) {
        EXPECT_GE(cdf.min(), 0.0) << letter;
    }
}

TEST_F(InflationFixture, AllRootsInterceptIsLow) {
    // Nearly every user is inflated to *some* letter, so the All Roots
    // zero-fraction sits well below the most efficient letters. (The strict
    // paper-scale claim — below *every* letter — is asserted on the
    // full-scale world in paper_shapes_test.)
    const double all = roots().geographic_all_roots.fraction_leq(
        analysis::zero_inflation_epsilon_ms);
    double max_eff = 0.0;
    for (const auto& [letter, cdf] : roots().geographic) {
        max_eff = std::max(max_eff,
                           cdf.fraction_leq(analysis::zero_inflation_epsilon_ms));
    }
    EXPECT_LT(all, max_eff);
    EXPECT_LT(all, 0.5);
}

TEST_F(InflationFixture, UserWeightingChangesTheCdf) {
    analysis::root_inflation_options unweighted;
    unweighted.weight_by_users = false;
    const auto per_recursive = analysis::compute_root_inflation(
        w().filtered_tables(), w().roots(), w().geodb(), w().cdn_user_counts(), unweighted);
    // Unweighted covers more /24s (no DITL∩CDN join requirement).
    const char letter = w().roots().geographic_analysis_letters().front();
    EXPECT_GT(per_recursive.geographic.at(letter).size(),
              roots().geographic.at(letter).size());
}

TEST_F(InflationFixture, CdnInflationMatchesPaperOrdering) {
    const auto cdn = analysis::compute_cdn_inflation(w().server_log_table(), w().cdn_net());
    ASSERT_EQ(cdn.geographic_by_ring.size(), 5u);
    // CDN efficiency beats the root system's at every ring (Fig. 5a).
    const double root_eff = roots().geographic_all_roots.fraction_leq(
        analysis::zero_inflation_epsilon_ms);
    for (int ring = 0; ring < 5; ++ring) {
        EXPECT_GT(cdn.efficiency(ring), root_eff) << "ring " << ring;
        EXPECT_GE(cdn.latency_by_ring[static_cast<std::size_t>(ring)].min(), 0.0);
    }
}

TEST_F(InflationFixture, EfficiencyHelperMatchesCdf) {
    const char letter = w().roots().geographic_analysis_letters().front();
    EXPECT_DOUBLE_EQ(roots().efficiency(letter),
                     roots().geographic.at(letter).fraction_leq(
                         analysis::zero_inflation_epsilon_ms));
    EXPECT_DOUBLE_EQ(roots().efficiency('?'), 0.0);
}

// --- Joins. ---

class JoinFixture : public ::testing::Test {
protected:
    static const core::world& w() {
        static core::world instance{core::world_config::small()};
        return instance;
    }
};

TEST_F(JoinFixture, AmortizationLinesAreOrdered) {
    const auto result = analysis::compute_amortization(
        w().filtered_tables(), w().users(), w().cdn_user_counts(), w().apnic_user_counts(),
        w().as_mapper(), w().config().query_model);
    ASSERT_FALSE(result.cdn.empty());
    ASSERT_FALSE(result.apnic.empty());
    ASSERT_FALSE(result.ideal.empty());
    // Ideal is orders of magnitude below reality (§4.3).
    EXPECT_LT(result.ideal.median() * 10.0, result.cdn.median());
    EXPECT_GT(result.attributed_volume_fraction, 0.2);
    EXPECT_LE(result.attributed_volume_fraction, 1.0);
}

TEST_F(JoinFixture, ExactIpJoinAttributesLessVolume) {
    analysis::amortization_options by_ip;
    by_ip.join_by_slash24 = false;
    const auto joined = analysis::compute_amortization(
        w().filtered_tables(), w().users(), w().cdn_user_counts(), w().apnic_user_counts(),
        w().as_mapper(), w().config().query_model);
    const auto exact = analysis::compute_amortization(
        w().filtered_tables(), w().users(), w().cdn_user_counts(), w().apnic_user_counts(),
        w().as_mapper(), w().config().query_model, by_ip);
    EXPECT_LT(exact.attributed_volume_fraction, joined.attributed_volume_fraction);
    EXPECT_LT(exact.cdn.median(), joined.cdn.median());
}

TEST_F(JoinFixture, OverlapImprovesWithSlash24) {
    const auto overlap = analysis::compute_overlap(w().filtered_tables(), w().cdn_user_counts());
    EXPECT_GT(overlap.by_slash24.ditl_volume, overlap.by_ip.ditl_volume);
    EXPECT_GE(overlap.by_slash24.cdn_recursives, overlap.by_ip.cdn_recursives);
    for (const auto* stats : {&overlap.by_ip, &overlap.by_slash24}) {
        EXPECT_GE(stats->ditl_recursives, 0.0);
        EXPECT_LE(stats->ditl_recursives, 1.0);
        EXPECT_GE(stats->cdn_volume, 0.0);
        EXPECT_LE(stats->cdn_volume, 1.0);
    }
}

// A brute-force row-scan reference for the Table 4 overlap statistics:
// std::map accumulation in row order, totals in ascending key order — the
// exact floating-point accumulation order the columnar merge-join contracts
// to reproduce, so every stat must match bitwise.
analysis::overlap_stats reference_overlap(std::span<const capture::filtered_letter> letters,
                                          const pop::cdn_user_counts& cdn_users,
                                          bool by_slash24) {
    std::map<std::uint32_t, double> ditl;
    for (const auto& letter : letters) {
        for (const auto& r : letter.records) {
            const std::uint32_t key =
                by_slash24 ? net::slash24{r.source_ip}.key() : r.source_ip.value();
            ditl[key] += r.queries_per_day;
        }
    }

    const auto cdn_count = [&](std::uint32_t key) {
        return by_slash24 ? cdn_users.count(net::slash24{net::ipv4_addr{key << 8}})
                          : cdn_users.count(net::ipv4_addr{key});
    };

    double ditl_total = 0.0;
    double ditl_matched = 0.0;
    std::size_t ditl_matched_sources = 0;
    for (const auto& [key, volume] : ditl) ditl_total += volume;
    for (const auto& [key, volume] : ditl) {
        if (cdn_count(key)) {
            ditl_matched += volume;
            ++ditl_matched_sources;
        }
    }

    std::vector<std::uint32_t> observed;
    if (by_slash24) {
        for (const auto block : cdn_users.observed_blocks()) observed.push_back(block.key());
    } else {
        for (const auto ip : cdn_users.observed_ips()) observed.push_back(ip.value());
    }
    double cdn_total = 0.0;
    double cdn_matched = 0.0;
    std::size_t cdn_matched_sources = 0;
    for (const auto key : observed) cdn_total += cdn_count(key).value_or(0.0);
    for (const auto key : observed) {
        if (ditl.contains(key)) {
            cdn_matched += cdn_count(key).value_or(0.0);
            ++cdn_matched_sources;
        }
    }

    analysis::overlap_stats stats;
    stats.ditl_recursives = ditl.empty() ? 0.0
                                         : static_cast<double>(ditl_matched_sources) /
                                               static_cast<double>(ditl.size());
    stats.ditl_volume = ditl_total > 0.0 ? ditl_matched / ditl_total : 0.0;
    stats.cdn_recursives = observed.empty() ? 0.0
                                            : static_cast<double>(cdn_matched_sources) /
                                                  static_cast<double>(observed.size());
    stats.cdn_volume = cdn_total > 0.0 ? cdn_matched / cdn_total : 0.0;
    return stats;
}

TEST_F(JoinFixture, OverlapMatchesBruteForceRowScan) {
    const auto columnar = analysis::compute_overlap(w().filtered_tables(), w().cdn_user_counts());
    const auto filtered = capture::filter_all(w().ditl());
    for (const bool by_slash24 : {false, true}) {
        const auto reference = reference_overlap(filtered, w().cdn_user_counts(), by_slash24);
        const auto& stats = by_slash24 ? columnar.by_slash24 : columnar.by_ip;
        EXPECT_DOUBLE_EQ(stats.ditl_recursives, reference.ditl_recursives) << by_slash24;
        EXPECT_DOUBLE_EQ(stats.ditl_volume, reference.ditl_volume) << by_slash24;
        EXPECT_DOUBLE_EQ(stats.cdn_recursives, reference.cdn_recursives) << by_slash24;
        EXPECT_DOUBLE_EQ(stats.cdn_volume, reference.cdn_volume) << by_slash24;
    }
}

TEST_F(JoinFixture, ExactIpJoinMatchesBruteForceRowScan) {
    // The join_by_slash24=false sensitivity path (Fig. 9) against a std::map
    // row-scan reference of the CDN line.
    analysis::amortization_options by_ip_options;
    by_ip_options.join_by_slash24 = false;
    const auto columnar = analysis::compute_amortization(
        w().filtered_tables(), w().users(), w().cdn_user_counts(), w().apnic_user_counts(),
        w().as_mapper(), w().config().query_model, by_ip_options);

    std::map<std::uint32_t, double> volumes;  // by exact source IP
    for (const auto& letter : capture::filter_all(w().ditl())) {
        for (const auto& r : letter.records) volumes[r.source_ip.value()] += r.queries_per_day;
    }
    analysis::weighted_cdf cdn_reference;
    double total_volume = 0.0;
    double attributed = 0.0;
    for (const auto& [ip, volume] : volumes) {
        total_volume += volume;
        const auto users = w().cdn_user_counts().count(net::ipv4_addr{ip});
        if (users && *users > 0.0) {
            cdn_reference.add(volume / *users, *users);
            attributed += volume;
        }
    }

    ASSERT_FALSE(columnar.cdn.empty());
    EXPECT_EQ(columnar.cdn.size(), cdn_reference.size());
    EXPECT_DOUBLE_EQ(columnar.attributed_volume_fraction, attributed / total_volume);
    EXPECT_DOUBLE_EQ(columnar.cdn.total_weight(), cdn_reference.total_weight());
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        EXPECT_DOUBLE_EQ(columnar.cdn.quantile(q), cdn_reference.quantile(q)) << q;
    }
}

TEST_F(JoinFixture, FavoriteSiteMostlyCoherent) {
    std::vector<capture::letter_table> raw;
    for (const auto& capture : w().ditl().letters) raw.push_back(capture::to_table(capture));
    const auto result = analysis::compute_favorite_site(raw);
    // Letters with full anonymization are skipped.
    EXPECT_FALSE(result.fraction_not_favorite.contains('I'));
    for (const auto& [letter, cdf] : result.fraction_not_favorite) {
        if (cdf.empty()) continue;
        // App. B.2: >80% of /24s send everything to one site.
        EXPECT_GT(cdf.fraction_leq(1e-9), 0.7) << letter;
        EXPECT_LE(cdf.max(), 1.0) << letter;
    }
}

// --- Deployment metrics. ---

TEST_F(JoinFixture, CoverageCurvesAreMonotone) {
    const std::vector<double> radii{250, 500, 1000, 2000};
    const auto curve = analysis::compute_coverage(w().roots().deployment_of('L'), w().users(),
                                                  w().regions(), radii);
    ASSERT_EQ(curve.covered_fraction.size(), radii.size());
    for (std::size_t i = 1; i < curve.covered_fraction.size(); ++i) {
        EXPECT_GE(curve.covered_fraction[i], curve.covered_fraction[i - 1]);
    }
    EXPECT_LE(curve.covered_fraction.back(), 1.0);
}

TEST_F(JoinFixture, BiggerRingsCoverMore) {
    const std::vector<double> radii{500.0};
    const auto small_ring =
        analysis::compute_ring_coverage(w().cdn_net(), 0, w().users(), w().regions(), radii);
    const auto big_ring =
        analysis::compute_ring_coverage(w().cdn_net(), 4, w().users(), w().regions(), radii);
    EXPECT_GE(big_ring.covered_fraction[0], small_ring.covered_fraction[0]);
}

TEST_F(JoinFixture, AllRootsCoversAtLeastAnyLetter) {
    const std::vector<double> radii{500.0};
    const auto all =
        analysis::compute_all_roots_coverage(w().roots(), w().users(), w().regions(), radii);
    for (char letter : w().roots().geographic_analysis_letters()) {
        const auto one = analysis::compute_coverage(w().roots().deployment_of(letter),
                                                    w().users(), w().regions(), radii);
        EXPECT_GE(all.covered_fraction[0] + 1e-9, one.covered_fraction[0]) << letter;
    }
}

TEST_F(JoinFixture, AspathStudyHasCdnFirstAndSharesNormalized) {
    const auto result =
        analysis::run_aspath_study(w().fleet(), w().roots(), w().cdn_net(), w().graph());
    ASSERT_FALSE(result.lengths.empty());
    EXPECT_EQ(result.lengths.front().destination, "CDN");
    for (const auto& d : result.lengths) {
        double total = 0.0;
        for (double s : d.share) total += s;
        EXPECT_NEAR(total, 1.0, 1e-9) << d.destination;
    }
    // The CDN's 2-AS share dominates the purely global, operator-run
    // letters (§7.1). In this dense small world, letters with IXP-hosted or
    // local sites (K/L/F, D/E/J/M) legitimately reach many probes in 1-2
    // hops; the paper-scale ordering is asserted in paper_shapes_test.
    const double cdn_direct = result.lengths.front().share[0];
    EXPECT_GT(cdn_direct, 0.5);
    for (const auto& d : result.lengths) {
        if (d.destination != "A" && d.destination != "B" && d.destination != "C") continue;
        EXPECT_GE(cdn_direct, d.share[0]) << d.destination;
    }
}

TEST_F(JoinFixture, ProbeLatencyMedianIsPositive) {
    const double latency =
        analysis::median_probe_latency(w().fleet(), w().roots().deployment_of('C'), 3);
    EXPECT_GT(latency, 1.0);
    EXPECT_LT(latency, 1000.0);
    const double ring_latency =
        analysis::median_probe_latency_to_ring(w().fleet(), w().cdn_net(), 4, 3);
    EXPECT_GT(ring_latency, 1.0);
    EXPECT_LT(ring_latency, latency);  // the CDN is faster than C root
}

} // namespace
