// Core module: survey tallies (Table 1), dataset registry (Tables 2/3),
// rendering helpers, and the 2020 world preset.
#include <gtest/gtest.h>

#include <sstream>

#include "src/core/datasets.h"
#include "src/core/render.h"
#include "src/core/survey.h"
#include "src/core/world.h"

namespace {

using namespace ac;

TEST(Survey, TalliesMatchTable1) {
    const auto t = core::tally(core::survey_responses());
    EXPECT_EQ(t.respondents, 11);  // 11 of 12 orgs responded
    EXPECT_EQ(t.latency, 8);
    EXPECT_EQ(t.ddos_resilience, 9);
    EXPECT_EQ(t.isp_resilience, 5);
    EXPECT_EQ(t.other, 3);
    EXPECT_EQ(t.accelerate, 1);
    EXPECT_EQ(t.decelerate, 4);
    EXPECT_EQ(t.maintain, 4);
    EXPECT_EQ(t.cannot_share, 1);
}

TEST(Survey, GrowthNumbersMatchPaper) {
    const core::root_growth growth;
    EXPECT_EQ(growth.sites_2016, 516);
    EXPECT_EQ(growth.sites_2021, 1367);
    EXPECT_GT(growth.sites_2021, 2 * growth.sites_2016);  // "more than doubled"
}

TEST(Survey, EmptyTallyIsZero) {
    const auto t = core::tally({});
    EXPECT_EQ(t.respondents, 0);
    EXPECT_EQ(t.latency, 0);
    EXPECT_EQ(t.maintain, 0);
}

class CoreFixture : public ::testing::Test {
protected:
    static const core::world& w() {
        static core::world instance{core::world_config::small()};
        return instance;
    }
};

TEST_F(CoreFixture, DatasetRegistryIsPopulated) {
    const auto registry = core::dataset_registry(w());
    ASSERT_EQ(registry.size(), 6u);
    for (const auto& e : registry) {
        EXPECT_FALSE(e.name.empty());
        EXPECT_FALSE(e.strengths.empty());
        EXPECT_FALSE(e.weaknesses.empty());
        EXPECT_GT(e.measurements, 0.0) << e.name;
        EXPECT_GT(e.as_count, 0u) << e.name;
    }
}

TEST_F(CoreFixture, RenderHelpersProduceRows) {
    analysis::weighted_cdf cdf;
    for (int i = 0; i < 100; ++i) cdf.add(static_cast<double>(i));
    std::ostringstream os;
    core::print_cdf_row(os, "test", cdf);
    EXPECT_NE(os.str().find("p50="), std::string::npos);
    EXPECT_NE(os.str().find("zero-frac="), std::string::npos);

    std::ostringstream os2;
    core::print_cdf_row(os2, "empty", analysis::weighted_cdf{});
    EXPECT_NE(os2.str().find("no data"), std::string::npos);
}

TEST(World2020, UsesThe2020Catalogue) {
    auto config = core::world_config::small();
    config.year = core::ditl_year::y2020;
    const core::world w{std::move(config)};
    // 2020: B absent from DITL, L fully anonymized.
    EXPECT_THROW((void)w.ditl().of('B'), std::out_of_range);
    const auto geo_letters = w.roots().geographic_analysis_letters();
    EXPECT_EQ(std::count(geo_letters.begin(), geo_letters.end(), 'L'), 0);
    EXPECT_EQ(std::count(geo_letters.begin(), geo_letters.end(), 'E'), 0);  // incomplete
    EXPECT_EQ(std::count(geo_letters.begin(), geo_letters.end(), 'F'), 0);  // incomplete
    // A grew to 51 sites in 2020.
    EXPECT_EQ(w.roots().deployment_of('A').global_site_count(), 51);
}

TEST(WorldConfig, SmallIsSmallerThanDefault) {
    const auto small = core::world_config::small();
    const core::world_config full;
    EXPECT_LT(small.regions.total(), full.regions.total());
    EXPECT_LT(small.graph.eyeball_count, full.graph.eyeball_count);
}

} // namespace
