// Parameterized world-level property sweeps: invariants that must hold for
// any seed, exercised on compact worlds so the sweep stays fast.
#include <gtest/gtest.h>

#include <numeric>

#include "src/analysis/inflation.h"
#include "src/analysis/join.h"
#include "src/core/world.h"

namespace {

using namespace ac;

class WorldInvariants : public ::testing::TestWithParam<std::uint64_t> {
protected:
    WorldInvariants() {
        auto config = core::world_config::small();
        config.seed = GetParam();
        world_ = std::make_unique<core::world>(std::move(config));
    }
    std::unique_ptr<core::world> world_;
};

TEST_P(WorldInvariants, CaptureVolumesAreFiniteAndPositive) {
    for (const auto& lc : world_->ditl().letters) {
        for (const auto& r : lc.records) {
            ASSERT_TRUE(std::isfinite(r.queries_per_day));
            ASSERT_GT(r.queries_per_day, 0.0);
        }
        ASSERT_TRUE(std::isfinite(lc.ipv6_queries_per_day));
    }
}

TEST_P(WorldInvariants, EveryRecordPointsAtARealSite) {
    for (const auto& lc : world_->ditl().letters) {
        const auto& dep = world_->roots().deployment_of(lc.letter);
        for (const auto& r : lc.records) {
            ASSERT_LT(r.site, dep.sites().size()) << lc.letter;
        }
        for (const auto& t : lc.tcp_rtts) {
            ASSERT_LT(t.site, dep.sites().size()) << lc.letter;
            ASSERT_TRUE(std::isfinite(t.median_rtt_ms));
            ASSERT_GT(t.median_rtt_ms, 0.0);
        }
    }
}

TEST_P(WorldInvariants, FilterNeverCreatesVolume) {
    for (const auto& f : capture::filter_all(world_->ditl())) {
        ASSERT_LE(f.stats.kept, f.stats.raw_queries_per_day);
        ASSERT_GE(f.stats.kept, 0.0);
    }
}

TEST_P(WorldInvariants, InflationPipelineIsWellFormed) {
    const auto result = analysis::compute_root_inflation(
        world_->filtered_tables(), world_->roots(), world_->geodb(), world_->cdn_user_counts());
    ASSERT_FALSE(result.geographic.empty());
    for (const auto& [letter, cdf] : result.geographic) {
        ASSERT_FALSE(cdf.empty()) << letter;
        ASSERT_GE(cdf.min(), 0.0) << letter;
        ASSERT_TRUE(std::isfinite(cdf.max())) << letter;
    }
    ASSERT_FALSE(result.geographic_all_roots.empty());
}

TEST_P(WorldInvariants, AmortizationIsWellFormed) {
    const auto result = analysis::compute_amortization(
        world_->filtered_tables(), world_->users(), world_->cdn_user_counts(),
        world_->apnic_user_counts(), world_->as_mapper(), world_->config().query_model);
    ASSERT_FALSE(result.cdn.empty());
    ASSERT_GT(result.cdn.min(), 0.0);
    ASSERT_GE(result.attributed_volume_fraction, 0.0);
    ASSERT_LE(result.attributed_volume_fraction, 1.0);
    // The Ideal line must sit below reality in aggregate, any seed.
    ASSERT_LT(result.ideal.median(), result.cdn.median());
}

TEST_P(WorldInvariants, CdnEvaluationMatchesLogsEverywhere) {
    const auto& logs = world_->server_log_table();
    for (std::size_t i = 0; i < std::min<std::size_t>(500, logs.rows()); ++i) {
        const auto path = world_->cdn_net().evaluate(logs.asn[i], logs.region[i], logs.ring[i]);
        ASSERT_TRUE(path.has_value());
        ASSERT_EQ(logs.front_end[i], path->front_end);
    }
}

TEST_P(WorldInvariants, LetterWeightsMatchCaptureShares) {
    // The per-letter volume split in the captures must track the profiles'
    // letter weights: reconstruct one recursive's split and compare.
    const auto& base = world_->users();
    for (const auto& profile : world_->profiles()) {
        const auto& rec = base.recursives()[profile.recursive_index];
        if (rec.is_forwarder || profile.valid_per_day <= 0.0) continue;
        // Sum this recursive's valid volume in the B capture (never /24
        // anonymized away since aggregation is by /24 anyway).
        double captured = 0.0;
        for (const auto& r : world_->ditl().of('C').records) {
            if (net::slash24{r.source_ip} != rec.block) continue;
            if (r.category != capture::query_category::valid_tld) continue;
            captured += r.queries_per_day;
        }
        const double expected =
            profile.valid_per_day *
            profile.letter_weight[static_cast<std::size_t>(dns::letter_index('C'))];
        // Spoofed volume can land on this /24; allow one-sided slack.
        ASSERT_GE(captured, expected * 0.99 - 1e-6);
        break;  // one recursive per seed keeps the sweep fast
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorldInvariants,
                         ::testing::Values(1u, 7u, 42u, 1234u, 987654321u));

} // namespace
