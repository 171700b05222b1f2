// Unit tests for the netbase layer: addresses, geometry, RNG, formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "src/atlas/atlas.h"
#include "src/core/world.h"
#include "src/netbase/geo.h"
#include "src/netbase/ipv4.h"
#include "src/netbase/rng.h"
#include "src/netbase/strfmt.h"
#include "src/resolver/study.h"
#include "src/topology/generator.h"

namespace {

using namespace ac;

TEST(Ipv4Addr, ParsesDottedQuad) {
    const auto addr = net::ipv4_addr::parse("192.168.1.200");
    ASSERT_TRUE(addr.has_value());
    EXPECT_EQ(addr->octet(0), 192);
    EXPECT_EQ(addr->octet(1), 168);
    EXPECT_EQ(addr->octet(2), 1);
    EXPECT_EQ(addr->octet(3), 200);
    EXPECT_EQ(addr->to_string(), "192.168.1.200");
}

TEST(Ipv4Addr, RejectsMalformedInput) {
    EXPECT_FALSE(net::ipv4_addr::parse("").has_value());
    EXPECT_FALSE(net::ipv4_addr::parse("1.2.3").has_value());
    EXPECT_FALSE(net::ipv4_addr::parse("1.2.3.4.5").has_value());
    EXPECT_FALSE(net::ipv4_addr::parse("256.1.1.1").has_value());
    EXPECT_FALSE(net::ipv4_addr::parse("1.2.3.04").has_value());
    EXPECT_FALSE(net::ipv4_addr::parse("a.b.c.d").has_value());
    EXPECT_FALSE(net::ipv4_addr::parse("1.2.3.4 ").has_value());
}

TEST(Ipv4Addr, RoundTripsAllOctets) {
    const net::ipv4_addr addr{10, 20, 30, 40};
    const auto reparsed = net::ipv4_addr::parse(addr.to_string());
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(*reparsed, addr);
}

TEST(Ipv4Prefix, CanonicalizesHostBits) {
    const net::ipv4_prefix p{net::ipv4_addr{192, 168, 1, 200}, 24};
    EXPECT_EQ(p.base(), (net::ipv4_addr{192, 168, 1, 0}));
    EXPECT_EQ(p.to_string(), "192.168.1.0/24");
}

TEST(Ipv4Prefix, ContainsAddresses) {
    const auto p = net::ipv4_prefix::parse("10.0.0.0/8");
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(p->contains(net::ipv4_addr{10, 255, 0, 1}));
    EXPECT_FALSE(p->contains(net::ipv4_addr{11, 0, 0, 1}));
    EXPECT_EQ(p->size(), 1u << 24);
}

TEST(Ipv4Prefix, ContainsNestedPrefixes) {
    const auto outer = net::ipv4_prefix::parse("10.0.0.0/8");
    const auto inner = net::ipv4_prefix::parse("10.1.0.0/16");
    ASSERT_TRUE(outer && inner);
    EXPECT_TRUE(outer->contains(*inner));
    EXPECT_FALSE(inner->contains(*outer));
}

TEST(Ipv4Prefix, ZeroLengthCoversEverything) {
    const net::ipv4_prefix everything{net::ipv4_addr{1, 2, 3, 4}, 0};
    EXPECT_TRUE(everything.contains(net::ipv4_addr{255, 255, 255, 255}));
    EXPECT_TRUE(everything.contains(net::ipv4_addr{0, 0, 0, 0}));
}

TEST(Slash24, ExtractsUpperBits) {
    const net::slash24 s{net::ipv4_addr{192, 168, 1, 77}};
    EXPECT_EQ(s.prefix().to_string(), "192.168.1.0/24");
    EXPECT_EQ(s, net::slash24(net::ipv4_addr{192, 168, 1, 200}));
    EXPECT_NE(s, net::slash24(net::ipv4_addr{192, 168, 2, 77}));
}

TEST(PrivateSpace, ClassifiesKnownRanges) {
    EXPECT_TRUE(net::is_private_or_reserved(net::ipv4_addr{10, 1, 2, 3}));
    EXPECT_TRUE(net::is_private_or_reserved(net::ipv4_addr{192, 168, 0, 1}));
    EXPECT_TRUE(net::is_private_or_reserved(net::ipv4_addr{172, 16, 5, 5}));
    EXPECT_TRUE(net::is_private_or_reserved(net::ipv4_addr{127, 0, 0, 1}));
    EXPECT_TRUE(net::is_private_or_reserved(net::ipv4_addr{224, 0, 0, 5}));
    EXPECT_FALSE(net::is_private_or_reserved(net::ipv4_addr{8, 8, 8, 8}));
    EXPECT_FALSE(net::is_private_or_reserved(net::ipv4_addr{172, 32, 0, 1}));
    EXPECT_FALSE(net::is_private_or_reserved(net::ipv4_addr{1, 0, 0, 1}));
}

TEST(Geo, HaversineKnownDistances) {
    // New York <-> London: ~5570 km.
    const geo::point nyc{40.71, -74.01};
    const geo::point london{51.51, -0.13};
    EXPECT_NEAR(geo::distance_km(nyc, london), 5570.0, 60.0);
    // Identical points.
    EXPECT_DOUBLE_EQ(geo::distance_km(nyc, nyc), 0.0);
}

TEST(Geo, DistanceIsSymmetric) {
    const geo::point a{35.7, 139.7};
    const geo::point b{-33.9, 151.2};
    EXPECT_DOUBLE_EQ(geo::distance_km(a, b), geo::distance_km(b, a));
}

TEST(Geo, FiberLatencyBounds) {
    // 1000 km one-way at ~204 km/ms => ~4.9 ms; round trip ~9.8 ms.
    EXPECT_NEAR(geo::one_way_fiber_ms(1000.0), 4.9, 0.1);
    EXPECT_NEAR(geo::round_trip_fiber_ms(1000.0), 9.8, 0.2);
    // The Eq. 2 lower bound is 1.5x the fiber RTT.
    EXPECT_NEAR(geo::best_case_rtt_ms(1000.0), 1.5 * geo::round_trip_fiber_ms(1000.0), 1e-9);
}

TEST(Geo, RttToKmInvertsRoundTrip) {
    const double km = 2000.0;
    EXPECT_NEAR(geo::rtt_ms_to_km(geo::round_trip_fiber_ms(km)), km, 1e-6);
}

TEST(Geo, DestinationTravelsRequestedDistance) {
    const geo::point origin{48.9, 2.3};
    for (double bearing : {0.0, 90.0, 180.0, 270.0}) {
        const auto dest = geo::destination(origin, bearing, 500.0);
        EXPECT_NEAR(geo::distance_km(origin, dest), 500.0, 1.0) << "bearing " << bearing;
    }
}

TEST(Geo, MidpointIsEquidistant) {
    const geo::point a{40.71, -74.01};
    const geo::point b{51.51, -0.13};
    const auto mid = geo::midpoint(a, b);
    EXPECT_NEAR(geo::distance_km(a, mid), geo::distance_km(b, mid), 1.0);
}

TEST(Rng, DeterministicForSeed) {
    rand::rng a{12345};
    rand::rng b{12345};
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
    rand::rng a{1};
    rand::rng b{2};
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next()) ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
    rand::rng gen{7};
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = gen.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIndexCoversRange) {
    rand::rng gen{9};
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(gen.uniform_index(7));
    EXPECT_EQ(seen.size(), 7u);
    EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, NormalMoments) {
    rand::rng gen{11};
    double sum = 0.0;
    double sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = gen.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, PoissonMeanMatches) {
    rand::rng gen{13};
    for (double mean : {0.5, 4.0, 200.0}) {
        double sum = 0.0;
        const int n = 5000;
        for (int i = 0; i < n; ++i) sum += static_cast<double>(gen.poisson(mean));
        EXPECT_NEAR(sum / n, mean, mean * 0.1 + 0.05) << "mean " << mean;
    }
}

TEST(Rng, WeightedIndexRespectsWeights) {
    rand::rng gen{17};
    const std::vector<double> weights{1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 8000; ++i) ++counts[gen.weighted_index(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

// Counts the targets, drawn the way `weighted_index` draws them, where the
// table's pick and the linear walk disagree. The walk is monotone in its
// target (each step `r - w` is, and rounding is monotone), and so is the
// table's pick. Sorted, the targets fall into runs with one pick each; when
// the walk agrees at both ends of a run it agrees on every target inside,
// so only a disagreeing run is walked target by target.
std::size_t disagreements(std::span<const double> weights, std::size_t draws,
                          std::uint64_t seed) {
    const rand::weighted_table table{{weights.begin(), weights.end()}};
    rand::rng gen{seed};
    std::vector<double> targets(draws);
    for (double& t : targets) t = gen.uniform() * table.total();
    std::sort(targets.begin(), targets.end());
    std::size_t differ = 0;
    for (std::size_t first = 0; first < draws;) {
        const std::size_t k = table.pick(targets[first]);
        std::size_t last = first;
        while (last + 1 < draws && table.pick(targets[last + 1]) == k) ++last;
        const auto walk = [&](std::size_t i) {
            return rand::weighted_walk(weights, targets[i]);
        };
        if (walk(first) != k || walk(last) != k) {
            for (std::size_t i = first; i <= last; ++i) differ += walk(i) != k ? 1 : 0;
        }
        first = last + 1;
    }
    return differ;
}

TEST(WeightedTable, WalkIsMonotoneInTarget) {
    const std::vector<double> weights{0.1, 0.2, 0.3, 0.0, 1e-9, 2.5, 0.3, 0.1, 1e16, 1.0, 0.0};
    double total = 0.0;
    for (double w : weights) total += w;
    rand::rng gen{3};
    std::vector<double> targets{0.0, total};
    for (int i = 0; i < 20000; ++i) targets.push_back(gen.uniform() * total);
    for (int i = 0; i < 2000; ++i) targets.push_back(gen.uniform() * 3.6);
    std::sort(targets.begin(), targets.end());
    for (std::size_t i = 1; i < targets.size(); ++i) {
        ASSERT_LE(rand::weighted_walk(weights, targets[i - 1]),
                  rand::weighted_walk(weights, targets[i]))
            << targets[i - 1] << " " << targets[i];
    }
}

// The weights the large world's fleet draws its 14,400 probes from, and the
// resolver study's Zipf SLD popularity: the two callers whose per-draw linear
// walk the table replaces. Zero disagreements are allowed in 10^6 draws each.
TEST(WeightedTable, MatchesLinearWalkOnLargeFleetWeights) {
    const auto config = core::world_config::large();
    const auto regions = topo::make_regions(config.regions, config.seed);
    const auto graph = topo::make_graph(regions, config.graph, rand::mix_seed(config.seed, 1));
    const auto weights = atlas::probe_host_candidates(graph, regions, config.atlas).weights;
    ASSERT_GT(weights.size(), 10000U);
    EXPECT_EQ(disagreements(weights, 1'000'000, 101), 0U);

    // Same generator state, same index, walked draw by draw: the table's
    // target is bit-identical to the one `weighted_index` draws.
    const rand::weighted_table fleet{weights};
    rand::rng a{7};
    rand::rng b{7};
    for (int i = 0; i < 2000; ++i) ASSERT_EQ(fleet.draw(a), b.weighted_index(weights));
}

TEST(WeightedTable, MatchesLinearWalkOnResolverZipfWeights) {
    const resolver::workload_options workload;
    std::vector<double> zipf(static_cast<std::size_t>(workload.sld_universe));
    for (std::size_t i = 0; i < zipf.size(); ++i) {
        zipf[i] = 1.0 / std::pow(static_cast<double>(i + 1), workload.sld_zipf_s);
    }
    EXPECT_EQ(disagreements(zipf, 1'000'000, 202), 0U);

    const rand::weighted_table slds{zipf};
    rand::rng a{7};
    rand::rng b{7};
    for (int i = 0; i < 20000; ++i) ASSERT_EQ(slds.draw(a), b.weighted_index(zipf));
}

// Targets on and a few ulps around every prefix sum, where rounding can put
// the walk and the prefix sums on different sides of a boundary: each must
// agree with the walk. Some of them are picked wrongly by the prefix sums
// alone, so on those the table's answer can only have come from the
// fallback walk, which is what makes the table exact.
TEST(WeightedTable, BoundaryTargetsFallBackToTheWalk) {
    std::vector<std::vector<double>> cases;
    std::vector<double> repeated;
    for (int i = 0; i < 300; ++i) repeated.push_back(0.1 * static_cast<double>(1 + i % 3));
    cases.push_back(repeated);
    cases.push_back({1e16, 1.0, 1.0, 1e-3, 1e16, 0.5, 3.0});  // huge next to tiny
    cases.push_back({1e-300, 1.0, 1e-300, 1e300, 1.0, 1e-17});

    std::size_t prefix_only_wrong = 0;
    for (const auto& weights : cases) {
        const rand::weighted_table table{weights};
        std::vector<double> cum;
        double sum = 0.0;
        for (const double w : weights) cum.push_back(sum += w);
        ASSERT_EQ(cum.back(), table.total());
        for (const double boundary : cum) {
            double t = boundary;
            for (int step = 0; step < 4; ++step) t = std::nextafter(t, 0.0);
            for (int step = 0; step < 9; ++step, t = std::nextafter(t, table.total())) {
                if (t > table.total()) break;
                const std::size_t walked = rand::weighted_walk(weights, t);
                EXPECT_EQ(table.pick(t), walked) << t;
                EXPECT_GT(weights[walked], 0.0) << t;
                const auto prefix = static_cast<std::size_t>(
                    std::upper_bound(cum.begin(), cum.end(), t) - cum.begin());
                if (prefix != walked) ++prefix_only_wrong;
            }
        }
    }
    EXPECT_GT(prefix_only_wrong, 0U);

    // Far from every boundary: 0.1, 0.2, 0.3, 0.1, ... puts 2.25 inside
    // weight 11 (cumulative 2.1 to 2.4).
    const rand::weighted_table table{repeated};
    EXPECT_EQ(table.pick(2.25), 11U);
}

TEST(WeightedTable, ZeroWeightsAreNeverDrawn) {
    const std::vector<double> weights{0.0, 1.0, 0.0, 0.0, 2.0, 0.0};
    const rand::weighted_table table{weights};
    rand::rng gen{9};
    for (int i = 0; i < 20000; ++i) {
        const std::size_t k = table.draw(gen);
        ASSERT_TRUE(k == 1 || k == 4) << k;
    }
    // A target the walk leaves unspent goes to the last positive weight,
    // not to the trailing zero.
    EXPECT_EQ(rand::weighted_walk(weights, table.total()), 4U);
    EXPECT_EQ(table.pick(table.total()), 4U);
    EXPECT_EQ(table.pick(0.0), 1U);
    EXPECT_EQ(table.pick(1.0), rand::weighted_walk(weights, 1.0));
}

TEST(WeightedTable, RejectsInvalidWeights) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(rand::weighted_table{std::vector<double>{}}, std::invalid_argument);
    EXPECT_THROW((rand::weighted_table{{1.0, -0.5}}), std::invalid_argument);
    EXPECT_THROW((rand::weighted_table{{1.0, nan}}), std::invalid_argument);
    EXPECT_THROW((rand::weighted_table{{1.0, inf}}), std::invalid_argument);
    EXPECT_THROW((rand::weighted_table{{0.0, 0.0}}), std::invalid_argument);
    EXPECT_THROW((rand::weighted_table{{1e308, 1e308}}), std::invalid_argument);  // total overflows
    EXPECT_NO_THROW((rand::weighted_table{{0.0, 1e-300}}));
}

TEST(Rng, ForkIsIndependentOfDrawCount) {
    rand::rng a{21};
    rand::rng b{21};
    (void)a.next();
    (void)a.next();
    EXPECT_EQ(a.fork(5).next(), b.fork(5).next());
}

TEST(Rng, ParetoRespectsScale) {
    rand::rng gen{23};
    for (int i = 0; i < 1000; ++i) EXPECT_GE(gen.pareto(2.0, 1.5), 2.0);
}

TEST(Strfmt, ZeroPadded) {
    EXPECT_EQ(ac::strfmt::zero_padded(7, 3), "007");
    EXPECT_EQ(ac::strfmt::zero_padded(1234, 3), "1234");
    EXPECT_EQ(ac::strfmt::zero_padded(-4, 3), "-004");
    EXPECT_EQ(ac::strfmt::indexed_name("x", 5, 2), "x-05");
}

TEST(Strfmt, Fixed) {
    EXPECT_EQ(ac::strfmt::fixed(3.14159, 2), "3.14");
    EXPECT_EQ(ac::strfmt::fixed(2.0, 0), "2");
}

} // namespace
