// Root letters, the query model, and the DNS zone machinery.
#include <gtest/gtest.h>

#include <numeric>

#include "src/core/world.h"
#include "src/dns/query_model.h"
#include "src/dns/root_letters.h"
#include "src/dns/zone.h"

namespace {

using namespace ac;

TEST(LetterCatalog, SiteCountsMatchPaper2018) {
    const auto specs = dns::letters_2018();
    ASSERT_EQ(specs.size(), 13u);
    auto find = [&](char c) -> const dns::letter_spec& {
        for (const auto& s : specs) {
            if (s.letter == c) return s;
        }
        throw std::logic_error("missing letter");
    };
    // Fig. 2a legend: B-2 A-5 M-5 C-10 E-15 D-20 K-52 J-68 F-94 L-138.
    EXPECT_EQ(find('B').global_sites, 2);
    EXPECT_EQ(find('A').global_sites, 5);
    EXPECT_EQ(find('M').global_sites, 5);
    EXPECT_EQ(find('C').global_sites, 10);
    EXPECT_EQ(find('E').global_sites, 15);
    EXPECT_EQ(find('D').global_sites, 20);
    EXPECT_EQ(find('K').global_sites, 52);
    EXPECT_EQ(find('J').global_sites, 68);
    EXPECT_EQ(find('F').global_sites, 94);
    EXPECT_EQ(find('L').global_sites, 138);
    EXPECT_EQ(find('H').global_sites, 1);
    // Fig. 10 legend totals (global + local).
    EXPECT_EQ(find('D').global_sites + find('D').local_sites, 117);
    EXPECT_EQ(find('E').global_sites + find('E').local_sites, 85);
    EXPECT_EQ(find('F').global_sites + find('F').local_sites, 141);
    EXPECT_EQ(find('J').global_sites + find('J').local_sites, 110);
    EXPECT_EQ(find('K').global_sites + find('K').local_sites, 53);
    // Availability quirks (§2.1, §3).
    EXPECT_FALSE(find('G').in_ditl);
    EXPECT_EQ(find('I').anon, dns::anonymization::full);
    EXPECT_EQ(find('B').anon, dns::anonymization::slash24);
    EXPECT_FALSE(find('D').tcp_usable);
    EXPECT_FALSE(find('L').tcp_usable);
}

TEST(LetterCatalog, SiteCountsMatchPaper2020) {
    const auto specs = dns::letters_2020();
    auto find = [&](char c) -> const dns::letter_spec& {
        for (const auto& s : specs) {
            if (s.letter == c) return s;
        }
        throw std::logic_error("missing letter");
    };
    // Fig. 11b legend: M-8 H-8 C-10 D-23 A-51 K-75 J-127.
    EXPECT_EQ(find('M').global_sites, 8);
    EXPECT_EQ(find('H').global_sites, 8);
    EXPECT_EQ(find('C').global_sites, 10);
    EXPECT_EQ(find('D').global_sites, 23);
    EXPECT_EQ(find('A').global_sites, 51);
    EXPECT_EQ(find('K').global_sites, 75);
    EXPECT_EQ(find('J').global_sites, 127);
    // 2020 data holes: B absent, E/F incomplete, L anonymized.
    EXPECT_FALSE(find('B').in_ditl);
    EXPECT_FALSE(find('E').complete);
    EXPECT_FALSE(find('F').complete);
    EXPECT_EQ(find('L').anon, dns::anonymization::full);
}

TEST(Zone, NameUtilities) {
    EXPECT_EQ(dns::normalize_name("WWW.Example.COM."), "www.example.com");
    EXPECT_EQ(dns::tld_of("www.example.com"), "com");
    EXPECT_EQ(dns::tld_of("localhost"), "localhost");
    EXPECT_EQ(dns::label_count("a.b.c"), 3);
    EXPECT_EQ(dns::label_count(""), 0);
    EXPECT_TRUE(dns::looks_like_chromium_probe("qwertyuiop"));
    EXPECT_FALSE(dns::looks_like_chromium_probe("www.example.com"));
    EXPECT_FALSE(dns::looks_like_chromium_probe("abc"));  // too short
    EXPECT_FALSE(dns::looks_like_chromium_probe("abc123defg"));  // digits
}

TEST(Zone, ResolvesKnownTldsWithTwoDayTtl) {
    const dns::root_zone zone{300, 1};
    EXPECT_EQ(zone.tld_count(), 300);
    EXPECT_TRUE(zone.tld_exists("com"));
    const auto response = zone.resolve("www.example.com");
    EXPECT_FALSE(response.nxdomain);
    EXPECT_EQ(response.tld, "com");
    EXPECT_EQ(response.ttl_s, dns::tld_ttl_s);
    EXPECT_EQ(response.ttl_s, 172800u);  // two days (§4.1)
    ASSERT_EQ(response.authority.size(), 2u);
    // Partial AAAA glue: A for both servers, AAAA for the first only.
    int a_glue = 0;
    int aaaa_glue = 0;
    for (const auto& rr : response.additional) {
        if (rr.type == dns::rr_type::a) ++a_glue;
        if (rr.type == dns::rr_type::aaaa) ++aaaa_glue;
    }
    EXPECT_EQ(a_glue, 2);
    EXPECT_EQ(aaaa_glue, 1);
}

TEST(Zone, ReturnsNxdomainForUnknownTld) {
    const dns::root_zone zone{300, 1};
    const auto response = zone.resolve("gibberishxyz");
    EXPECT_TRUE(response.nxdomain);
    EXPECT_LT(response.ttl_s, dns::tld_ttl_s);
}

TEST(Zone, PopularitySumsToOneAndDecays) {
    const dns::root_zone zone{100, 1};
    double total = 0.0;
    for (int i = 0; i < zone.tld_count(); ++i) {
        total += zone.popularity(i);
        if (i > 0) {
            EXPECT_LE(zone.popularity(i), zone.popularity(i - 1));
        }
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

class QueryModelFixture : public ::testing::Test {
protected:
    static const core::world& w() {
        static core::world instance{core::world_config::small()};
        return instance;
    }
};

TEST_F(QueryModelFixture, LetterWeightsNormalizedOverReachables) {
    const auto rtts = dns::compute_letter_rtts(w().users(), w().roots());
    const auto profiles =
        dns::build_query_profiles(w().users(), rtts, dns::query_model_options{}, 1);
    for (const auto& p : profiles) {
        const double sum = std::accumulate(p.letter_weight.begin(), p.letter_weight.end(), 0.0);
        const auto& rec = w().users().recursives()[p.recursive_index];
        if (rec.is_forwarder) {
            EXPECT_DOUBLE_EQ(sum, 0.0);
        } else {
            EXPECT_NEAR(sum, 1.0, 1e-9);
        }
    }
}

TEST_F(QueryModelFixture, PreferenceFavorsLowLatencyLetters) {
    const auto rtts = dns::compute_letter_rtts(w().users(), w().roots());
    const auto profiles =
        dns::build_query_profiles(w().users(), rtts, dns::query_model_options{}, 1);
    // The expected per-query RTT under the preference weights must be lower
    // than under uniform querying for nearly every recursive ([60]'s
    // favor-low-latency behaviour).
    int improved = 0;
    int comparable = 0;
    for (const auto& p : profiles) {
        const auto& r = rtts[p.recursive_index];
        double weighted = 0.0;
        double uniform_sum = 0.0;
        int reachable = 0;
        for (int l = 0; l < dns::letter_count; ++l) {
            const double rtt = r[static_cast<std::size_t>(l)];
            if (rtt < 0) continue;
            weighted += p.letter_weight[static_cast<std::size_t>(l)] * rtt;
            uniform_sum += rtt;
            ++reachable;
        }
        if (reachable < 2 || weighted <= 0.0) continue;
        ++comparable;
        if (weighted < uniform_sum / reachable + 1e-9) ++improved;
    }
    ASSERT_GT(comparable, 100);
    EXPECT_GT(static_cast<double>(improved) / comparable, 0.95);
}

TEST_F(QueryModelFixture, ForwardersAreSilent) {
    const auto rtts = dns::compute_letter_rtts(w().users(), w().roots());
    const auto profiles =
        dns::build_query_profiles(w().users(), rtts, dns::query_model_options{}, 1);
    int forwarders = 0;
    for (const auto& p : profiles) {
        if (!w().users().recursives()[p.recursive_index].is_forwarder) continue;
        ++forwarders;
        EXPECT_DOUBLE_EQ(p.total_per_day(), 0.0);
    }
    EXPECT_GT(forwarders, 0);
}

TEST_F(QueryModelFixture, BuggySoftwareQueriesMore) {
    const auto rtts = dns::compute_letter_rtts(w().users(), w().roots());
    const auto profiles =
        dns::build_query_profiles(w().users(), rtts, dns::query_model_options{}, 1);
    // Compare per-user valid rates across software families in aggregate.
    double redundant_rate = 0.0;
    double redundant_users = 0.0;
    double fixed_rate = 0.0;
    double fixed_users = 0.0;
    for (const auto& p : profiles) {
        const auto& rec = w().users().recursives()[p.recursive_index];
        if (rec.is_forwarder || rec.users_served <= 0.0) continue;
        if (rec.software == pop::resolver_software::bind_redundant) {
            redundant_rate += p.valid_per_day;
            redundant_users += rec.users_served;
        } else if (rec.software == pop::resolver_software::bind_fixed) {
            fixed_rate += p.valid_per_day;
            fixed_users += rec.users_served;
        }
    }
    ASSERT_GT(redundant_users, 0.0);
    ASSERT_GT(fixed_users, 0.0);
    EXPECT_GT(redundant_rate / redundant_users, 2.0 * fixed_rate / fixed_users);
}

TEST(QueryModel, IdealRateGrowsSublinearlyAndCaps) {
    const dns::query_model_options o{};
    EXPECT_LT(dns::ideal_queries_per_day(1e3, o), dns::ideal_queries_per_day(1e6, o));
    // The cap: very large recursives refresh the whole zone once per TTL.
    EXPECT_DOUBLE_EQ(dns::ideal_queries_per_day(1e12, o), o.max_tlds / o.ttl_days);
}

TEST(QueryModel, LetterIndexRoundTrips) {
    for (char c = 'A'; c <= 'M'; ++c) {
        EXPECT_EQ(dns::letter_at(dns::letter_index(c)), c);
    }
}

} // namespace
