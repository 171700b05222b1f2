// User base, recursive resolvers, and the two user-count estimators.
#include <gtest/gtest.h>

#include <numeric>

#include "src/population/population.h"
#include "src/topology/generator.h"

namespace {

using namespace ac;

class PopulationFixture : public ::testing::Test {
protected:
    PopulationFixture()
        : regions_(topo::make_regions(topo::region_plan{40, 12, 40, 16, 30, 10, 2}, 31)) {
        topo::graph_plan plan;
        plan.tier1_count = 6;
        plan.transits_per_continent = 4;
        plan.eyeball_count = 120;
        plan.enterprise_count = 10;
        plan.public_dns_count = 2;
        graph_ = topo::make_graph(regions_, plan, 31);
        base_ = std::make_unique<pop::user_base>(graph_, regions_, space_,
                                                 pop::user_base_plan{}, 31);
    }

    topo::region_table regions_;
    topo::as_graph graph_{regions_};
    topo::address_space space_;
    std::unique_ptr<pop::user_base> base_;
};

TEST_F(PopulationFixture, LocationsAreEyeballsWithUsers) {
    ASSERT_FALSE(base_->locations().empty());
    for (const auto& loc : base_->locations()) {
        EXPECT_EQ(graph_.at(loc.asn).role, topo::as_role::eyeball);
        EXPECT_GT(loc.users, 0.0);
    }
}

TEST_F(PopulationFixture, TotalUsersIsSumOfLocations) {
    double sum = 0.0;
    for (const auto& loc : base_->locations()) sum += loc.users;
    EXPECT_NEAR(base_->total_users(), sum, sum * 1e-9);
}

TEST_F(PopulationFixture, UsersAtMatchesLocations) {
    const auto& loc = base_->locations().front();
    EXPECT_DOUBLE_EQ(base_->users_at(loc.asn, loc.region), loc.users);
    EXPECT_DOUBLE_EQ(base_->users_at(loc.asn, loc.region + 999), 0.0);
}

TEST_F(PopulationFixture, RecursivesLiveInAllocatedSpace) {
    for (const auto& rec : base_->recursives()) {
        const auto info = space_.lookup(rec.block);
        ASSERT_TRUE(info.has_value());
        EXPECT_EQ(info->asn, rec.asn);
        EXPECT_EQ(info->region, rec.region);
    }
}

TEST_F(PopulationFixture, IpSharesAreNormalized) {
    for (const auto& rec : base_->recursives()) {
        ASSERT_EQ(rec.resolver_ips.size(), rec.ip_user_share.size());
        ASSERT_EQ(rec.resolver_ips.size(), rec.ip_activity_share.size());
        const double user_sum =
            std::accumulate(rec.ip_user_share.begin(), rec.ip_user_share.end(), 0.0);
        EXPECT_NEAR(user_sum, 1.0, 1e-9);
        const double egress_sum =
            std::accumulate(rec.ip_activity_share.begin(), rec.ip_activity_share.end(), 0.0);
        if (rec.is_forwarder) {
            EXPECT_DOUBLE_EQ(egress_sum, 0.0);
        } else {
            // Egress can be all-zero for a pathological draw, else normalized.
            EXPECT_TRUE(egress_sum == 0.0 || std::abs(egress_sum - 1.0) < 1e-9);
        }
    }
}

TEST_F(PopulationFixture, ResolverIpsStayInsideBlock) {
    for (const auto& rec : base_->recursives()) {
        for (const auto ip : rec.resolver_ips) {
            EXPECT_EQ(net::slash24{ip}, rec.block);
        }
    }
}

TEST_F(PopulationFixture, SoftwareMixRoughlyHonored) {
    int redundant = 0;
    int total = 0;
    for (const auto& rec : base_->recursives()) {
        if (rec.is_public_dns) continue;
        ++total;
        if (rec.software == pop::resolver_software::bind_redundant) ++redundant;
    }
    ASSERT_GT(total, 50);
    const double share = static_cast<double>(redundant) / total;
    EXPECT_NEAR(share, pop::user_base_plan{}.bind_redundant_share, 0.12);
}

TEST_F(PopulationFixture, PublicDnsRecursivesExist) {
    int public_count = 0;
    for (const auto& rec : base_->recursives()) {
        if (rec.is_public_dns) {
            ++public_count;
            EXPECT_GT(rec.users_served, 0.0);
            EXPECT_FALSE(rec.is_forwarder);
        }
    }
    EXPECT_GT(public_count, 0);
}

TEST_F(PopulationFixture, ServiceEdgesReferenceValidIndexes) {
    for (const auto& edge : base_->service_edges()) {
        ASSERT_LT(edge.location_index, base_->locations().size());
        ASSERT_LT(edge.recursive_index, base_->recursives().size());
        EXPECT_GT(edge.user_share, 0.0);
        EXPECT_LE(edge.user_share, 1.0);
    }
}

TEST_F(PopulationFixture, FindRecursiveByBlock) {
    const auto& rec = base_->recursives().front();
    const auto* found = base_->find_recursive(rec.block);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->asn, rec.asn);
    EXPECT_EQ(base_->find_recursive(net::slash24{net::ipv4_addr{250, 0, 0, 0}}), nullptr);
}

TEST_F(PopulationFixture, CdnCountsUndercountTruth) {
    const pop::cdn_user_counts counts{*base_, {}, 77};
    EXPECT_GT(counts.total_observed_users(), 0.0);
    EXPECT_LT(counts.total_observed_users(), base_->total_users());
    for (const auto& rec : base_->recursives()) {
        const auto c = counts.count(rec.block);
        if (c) {
            EXPECT_LE(*c, rec.users_served * 1.0001);
        }
    }
}

TEST_F(PopulationFixture, CdnCountsByIpSumToBlock) {
    const pop::cdn_user_counts counts{*base_, {}, 77};
    for (const auto& rec : base_->recursives()) {
        const auto block_count = counts.count(rec.block);
        double ip_sum = 0.0;
        bool any = false;
        for (const auto ip : rec.resolver_ips) {
            if (const auto c = counts.count(ip)) {
                ip_sum += *c;
                any = true;
            }
        }
        if (any) {
            ASSERT_TRUE(block_count.has_value());
            EXPECT_NEAR(*block_count, ip_sum, 1e-6);
        } else {
            EXPECT_FALSE(block_count.has_value());
        }
    }
}

TEST_F(PopulationFixture, CdnCountsSkipSomeRecursives) {
    pop::cdn_user_counts::options opts;
    opts.ip_seen_p = 0.3;
    const pop::cdn_user_counts counts{*base_, opts, 77};
    int missing = 0;
    for (const auto& rec : base_->recursives()) {
        if (!counts.count(rec.block)) ++missing;
    }
    EXPECT_GT(missing, 0);
}

TEST_F(PopulationFixture, ApnicEstimatesCoverMostAses) {
    const pop::apnic_user_counts apnic{*base_, {}, 78};
    std::set<topo::asn_t> ases;
    for (const auto& loc : base_->locations()) ases.insert(loc.asn);
    int covered = 0;
    for (topo::asn_t asn : ases) {
        if (apnic.count(asn)) ++covered;
    }
    EXPECT_GT(static_cast<double>(covered) / static_cast<double>(ases.size()), 0.85);
}

TEST_F(PopulationFixture, ApnicNoiseIsBounded) {
    pop::apnic_user_counts::options opts;
    opts.noise_sigma = 0.0;
    opts.as_missing_p = 0.0;
    const pop::apnic_user_counts apnic{*base_, opts, 79};
    std::unordered_map<topo::asn_t, double> truth;
    for (const auto& loc : base_->locations()) truth[loc.asn] += loc.users;
    for (const auto& [asn, users] : truth) {
        const auto estimate = apnic.count(asn);
        ASSERT_TRUE(estimate.has_value());
        EXPECT_NEAR(*estimate, users, users * 1e-9);
    }
}

TEST_F(PopulationFixture, DeterministicInSeed) {
    topo::address_space space2;
    pop::user_base other{graph_, regions_, space2, pop::user_base_plan{}, 31};
    ASSERT_EQ(other.recursives().size(), base_->recursives().size());
    for (std::size_t i = 0; i < other.recursives().size(); ++i) {
        EXPECT_EQ(other.recursives()[i].block, base_->recursives()[i].block);
        EXPECT_DOUBLE_EQ(other.recursives()[i].users_served,
                         base_->recursives()[i].users_served);
    }
}

} // namespace
