// Integration regression tests: the paper's headline shapes, asserted on the
// full-scale 2018 world. These are the "does the reproduction still
// reproduce" checks; EXPERIMENTS.md records exact measured values.
#include <gtest/gtest.h>

#include "src/analysis/cdn_latency.h"
#include "src/analysis/deployment_metrics.h"
#include "src/analysis/inflation.h"
#include "src/analysis/join.h"
#include "src/core/world.h"

namespace {

using namespace ac;

class PaperShapes : public ::testing::Test {
protected:
    static const core::world& w() {
        static const core::world instance{core::world_config{}};
        return instance;
    }
    static const analysis::root_inflation_result& root_inflation() {
        static const auto r = analysis::compute_root_inflation(
            w().filtered_tables(), w().roots(), w().geodb(), w().cdn_user_counts());
        return r;
    }
    static const analysis::cdn_inflation_result& cdn_inflation() {
        static const auto r =
            analysis::compute_cdn_inflation(w().server_log_table(), w().cdn_net());
        return r;
    }
};

TEST_F(PaperShapes, MoreThan95PercentOfUsersSeeSomeRootInflation) {
    // §1/§3: "inflation is very common in root DNS, affecting more than 95%
    // of users" (system-wide, averaged over letters).
    const double inflated = root_inflation().geographic_all_roots.fraction_above(
        analysis::zero_inflation_epsilon_ms);
    EXPECT_GT(inflated, 0.95);
}

TEST_F(PaperShapes, SystemWideLatencyInflationAroundTenPercentOver100ms) {
    // §1: "on average, only 10% of users experience more than 100 ms of
    // inflation" system-wide; §3.2 per-letter values are far larger.
    const double share = root_inflation().latency_all_roots.fraction_above(100.0);
    EXPECT_GT(share, 0.05);
    EXPECT_LT(share, 0.25);
}

TEST_F(PaperShapes, IndividualLettersAreWorseThanTheSystem) {
    // §3.2: recursives' preferential querying makes All Roots better than
    // most letters at the tail.
    const double all = root_inflation().latency_all_roots.fraction_above(100.0);
    int worse = 0;
    int total = 0;
    for (const auto& [letter, cdf] : root_inflation().latency) {
        ++total;
        if (cdf.fraction_above(100.0) > all) ++worse;
    }
    EXPECT_GE(worse * 2, total);  // at least half the letters are worse
}

TEST_F(PaperShapes, LargerDeploymentsAreLessEfficient) {
    // §7.2: efficiency (share of users at their closest site) falls with
    // deployment size. Compare the small letters (<=10 sites) with the big
    // open-hosted ones (>=52).
    double small_eff = 0.0;
    int small_count = 0;
    double big_eff = 0.0;
    int big_count = 0;
    for (const auto& [letter, cdf] : root_inflation().geographic) {
        const int sites = w().roots().deployment_of(letter).global_site_count();
        if (sites <= 10) {
            small_eff += root_inflation().efficiency(letter);
            ++small_count;
        } else if (sites >= 52) {
            big_eff += root_inflation().efficiency(letter);
            ++big_count;
        }
    }
    ASSERT_GT(small_count, 0);
    ASSERT_GT(big_count, 0);
    EXPECT_GT(small_eff / small_count, big_eff / big_count);
}

TEST_F(PaperShapes, LargerDeploymentsHaveLowerLatency) {
    // §7.2 / Fig. 7a-left: more sites => lower median latency. Compare B (2)
    // against L (138) and the rings end-to-end.
    const double b_latency =
        analysis::median_probe_latency(w().fleet(), w().roots().deployment_of('B'), 7);
    const double l_latency =
        analysis::median_probe_latency(w().fleet(), w().roots().deployment_of('L'), 7);
    EXPECT_LT(l_latency, b_latency);

    const double r28 = analysis::median_probe_latency_to_ring(w().fleet(), w().cdn_net(), 0, 7);
    const double r110 =
        analysis::median_probe_latency_to_ring(w().fleet(), w().cdn_net(), 4, 7);
    EXPECT_LE(r110, r28);
}

TEST_F(PaperShapes, CdnInflationIsSmallerThanRootInflation) {
    // §6: Microsoft keeps latency inflation below 30 ms for ~70% of users and
    // below 100 ms for ~99%; geographic inflation mostly zero. Roots do not.
    for (int ring = 0; ring < w().cdn_net().ring_count(); ++ring) {
        const auto& li = cdn_inflation().latency_by_ring[static_cast<std::size_t>(ring)];
        EXPECT_GT(li.fraction_leq(30.0), 0.55) << "ring " << ring;
        EXPECT_GT(li.fraction_leq(100.0), 0.9) << "ring " << ring;
        EXPECT_GT(cdn_inflation().efficiency(ring), 0.45) << "ring " << ring;
    }
    // Root system: far fewer users at zero geographic inflation.
    EXPECT_LT(root_inflation().geographic_all_roots.fraction_leq(
                  analysis::zero_inflation_epsilon_ms),
              0.2);
}

TEST_F(PaperShapes, QueriesPerUserPerDayMedianNearOne) {
    // §4.3 / Fig. 3: most users wait for no more than ~1 root query per day;
    // the Ideal line sits orders of magnitude lower (paper median 0.007).
    const auto amortized = analysis::compute_amortization(
        w().filtered_tables(), w().users(), w().cdn_user_counts(), w().apnic_user_counts(),
        w().as_mapper(), w().config().query_model);
    EXPECT_GT(amortized.cdn.median(), 0.1);
    EXPECT_LT(amortized.cdn.median(), 5.0);
    EXPECT_GT(amortized.cdn.fraction_leq(1.0), 0.4);
    EXPECT_LT(amortized.ideal.median(), 0.05);
    EXPECT_GT(amortized.cdn.median() / amortized.ideal.median(), 50.0);
    // APNIC agrees at the high level (same order of magnitude).
    EXPECT_GT(amortized.apnic.median(), amortized.cdn.median() / 10.0);
    EXPECT_LT(amortized.apnic.median(), amortized.cdn.median() * 10.0);
}

TEST_F(PaperShapes, CountingInvalidTldQueriesShiftsMedianByOrderOfMagnitude) {
    // App. B.1 / Fig. 8: including invalid-TLD + PTR queries multiplies the
    // CDN median ~20x (we accept 8x-80x).
    capture::filter_options keep_junk;
    keep_junk.drop_invalid_tld = false;
    keep_junk.drop_ptr = false;
    const auto unfiltered_letters = capture::to_tables(capture::filter_all(w().ditl(), keep_junk));
    const auto with_junk = analysis::compute_amortization(
        unfiltered_letters, w().users(), w().cdn_user_counts(), w().apnic_user_counts(),
        w().as_mapper(), w().config().query_model);
    const auto without_junk = analysis::compute_amortization(
        w().filtered_tables(), w().users(), w().cdn_user_counts(), w().apnic_user_counts(),
        w().as_mapper(), w().config().query_model);
    const double factor = with_junk.cdn.median() / without_junk.cdn.median();
    EXPECT_GT(factor, 8.0);
    EXPECT_LT(factor, 80.0);
}

TEST_F(PaperShapes, ExactIpJoinCollapsesAttribution) {
    // App. B.2 / Fig. 9 / Table 4: joining by exact IP captures a small
    // fraction of the volume the /24 join captures.
    const auto overlap = analysis::compute_overlap(w().filtered_tables(), w().cdn_user_counts());
    EXPECT_LT(overlap.by_ip.ditl_volume, overlap.by_slash24.ditl_volume * 0.5);
    EXPECT_LT(overlap.by_ip.ditl_recursives, overlap.by_slash24.ditl_recursives);
    EXPECT_GT(overlap.by_slash24.cdn_volume, 0.7);
}

TEST_F(PaperShapes, CdnPathsAreShort) {
    // §7.1 / Fig. 6a: ~69% of paths to the CDN traverse two ASes; letters
    // are much lower on average.
    const auto aspath =
        analysis::run_aspath_study(w().fleet(), w().roots(), w().cdn_net(), w().graph());
    ASSERT_FALSE(aspath.lengths.empty());
    ASSERT_EQ(aspath.lengths.front().destination, "CDN");
    const double cdn_two = aspath.lengths.front().share[0];
    EXPECT_GT(cdn_two, 0.5);
    double letter_two_total = 0.0;
    int letters = 0;
    for (const auto& d : aspath.lengths) {
        if (d.destination.size() != 1) continue;  // letters only
        letter_two_total += d.share[0];
        ++letters;
    }
    ASSERT_GT(letters, 5);
    EXPECT_LT(letter_two_total / letters, cdn_two * 0.8);
}

TEST_F(PaperShapes, RootSystemCoverageIsExcellent) {
    // §7.2 / Fig. 7b: the root system as a whole covers ~91% of users within
    // 500 km; big single letters approach ring-level coverage.
    const std::vector<double> radii{500.0, 1000.0};
    const auto all =
        analysis::compute_all_roots_coverage(w().roots(), w().users(), w().regions(), radii);
    EXPECT_GT(all.covered_fraction[0], 0.85);
    const auto l_curve = analysis::compute_coverage(w().roots().deployment_of('L'),
                                                    w().users(), w().regions(), radii);
    const auto r110 =
        analysis::compute_ring_coverage(w().cdn_net(), 4, w().users(), w().regions(), radii);
    EXPECT_GT(l_curve.covered_fraction[1], r110.covered_fraction[1] - 0.1);
}

TEST_F(PaperShapes, BiggerRingsAreEqualOrBetterForMostLocations) {
    // §5.2 / Fig. 4b: at every step to the next larger ring, most locations
    // see equal or lower latency, and almost none regress by more than
    // 10 ms per RTT.
    const auto deltas =
        analysis::ring_step_delta(w().client_measurements(), w().cdn_net().ring_count(),
                                  w().config().telemetry.fetch_rtt_multiple);
    ASSERT_EQ(deltas.size(), static_cast<std::size_t>(w().cdn_net().ring_count() - 1));
    for (std::size_t step = 0; step < deltas.size(); ++step) {
        ASSERT_FALSE(deltas[step].empty()) << "step " << step;
        EXPECT_GE(deltas[step].fraction_above(-0.01), 0.5) << "step " << step;
        EXPECT_LT(deltas[step].fraction_leq(-10.0), 0.05) << "step " << step;
    }
}

TEST_F(PaperShapes, SlashTwentyFoursStickToOneSite) {
    // App. B.2 / Fig. 10: for every letter, more than 80% of /24s send all
    // their queries to one site.
    std::vector<capture::letter_table> raw;
    for (const auto& capture : w().ditl().letters) raw.push_back(capture::to_table(capture));
    const auto favorite = analysis::compute_favorite_site(raw);
    int letters = 0;
    for (const auto& [letter, cdf] : favorite.fraction_not_favorite) {
        if (cdf.empty()) continue;
        ++letters;
        EXPECT_GT(cdf.fraction_leq(1e-9), 0.8) << letter;
    }
    EXPECT_GT(letters, 5);
}

TEST_F(PaperShapes, LatencyFallsNearFrontEnds) {
    // App. F / Fig. 14: users near a front-end see lower latency to R110
    // than users far from every front-end.
    const auto map =
        analysis::compute_latency_map(w().server_log_table(), w().cdn_net(), w().regions());
    ASSERT_FALSE(map.near_users.empty());
    ASSERT_FALSE(map.far_users.empty());
    EXPECT_LT(map.near_users.median(), map.far_users.median());
}

} // namespace
