// BGP policy-routing tests on hand-built mini topologies: Gao-Rexford
// export rules, local-preference ordering, path-length tie-breaks, local
// announcement scope, hot-potato site selection, the fast-path layer
// (best-route index, geo tables, select memoization) — which must be
// bit-identical to a reference selector built from the public API, and
// race-safe among concurrent readers — keyed
// route rows, where sites with equal announcement keys share one row, and
// the per-AS delta repair of the best-route index on withdraw/announce.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/core/world.h"
#include "src/netbase/geo.h"
#include "src/netbase/rng.h"
#include "src/obs/metrics.h"
#include "src/routing/bgp.h"
#include "src/topology/generator.h"

namespace {

using namespace ac;

// A four-region world laid out west-to-east, 1000 km apart.
topo::region_table make_line_regions() {
    std::vector<topo::region> regions;
    for (int i = 0; i < 4; ++i) {
        topo::region r;
        r.id = static_cast<topo::region_id>(i);
        r.name = "r" + std::to_string(i);
        r.cont = topo::continent::europe;
        r.location = geo::point{50.0, static_cast<double>(i) * 14.0};  // ~1000 km steps
        r.population_weight = 1.0;
        regions.push_back(r);
    }
    return topo::region_table{std::move(regions)};
}

topo::autonomous_system make_as(topo::asn_t asn, topo::as_role role,
                                std::vector<topo::region_id> presence) {
    topo::autonomous_system as;
    as.asn = asn;
    as.role = role;
    as.name = "as" + std::to_string(asn);
    as.organization = as.name;
    as.presence = std::move(presence);
    as.last_mile_ms = 1.0;
    return as;
}

// Process-wide keyed-row counters: rows propagated, and site attachments
// that reused a row already held.
std::uint64_t rows_propagated() {
    return obs::registry::global().get_counter("route.propagate.rows").value();
}
std::uint64_t rows_reused() {
    return obs::registry::global().get_counter("route.propagate.rows_reused").value();
}

// Every AS's route toward `site`, in known_asns() order.
std::vector<std::optional<route::site_route>> routes_of(const route::anycast_rib& rib,
                                                        route::site_id site) {
    std::vector<std::optional<route::site_route>> out;
    for (const topo::asn_t asn : rib.known_asns()) out.push_back(rib.route_toward(asn, site));
    return out;
}

// Reference selection, the oracle for every fast-path test: it rescans every
// site's route row for the AS (no best-route index) and resolves hot potato
// with on-the-fly haversine over each link's interconnects (no precomputed
// geo tables), then evaluates the winner through the public `evaluate`.
std::optional<route::path_result> select_reference(const route::anycast_rib& rib,
                                                   const topo::as_graph& graph,
                                                   topo::asn_t asn, topo::region_id region) {
    const std::size_t i = graph.find_index(asn);
    if (i == topo::as_graph::npos || i >= rib.known_asns().size()) {
        throw std::out_of_range("select_reference: unknown ASN");
    }
    route::route_class best_cls = route::route_class::none;
    std::uint8_t best_len = std::numeric_limits<std::uint8_t>::max();
    std::vector<route::site_id> candidates;
    for (route::site_id s = 0; s < rib.site_count(); ++s) {
        const auto view = rib.site_routes(s);
        const auto cls = static_cast<route::route_class>(view.cls[i]);
        if (cls == route::route_class::none) continue;
        if (cls < best_cls || (cls == best_cls && view.path_len[i] < best_len)) {
            best_cls = cls;
            best_len = view.path_len[i];
            candidates.clear();
        }
        if (cls == best_cls && view.path_len[i] == best_len) candidates.push_back(s);
    }
    if (candidates.empty()) return std::nullopt;

    const auto& regions = graph.regions();
    const geo::point source_loc = regions.at(region).location;
    route::site_id best_site = candidates.front();
    double best_first_km = std::numeric_limits<double>::infinity();
    for (const route::site_id s : candidates) {
        const auto view = rib.site_routes(s);
        const geo::point site_loc = regions.at(rib.announcements()[s].origin_region).location;
        double first_km = 0.0;
        if (static_cast<route::route_class>(view.cls[i]) == route::route_class::origin) {
            first_km = geo::distance_km(source_loc, site_loc);
        } else {
            const auto& link = graph.link(view.link_index[i]);
            first_km = std::numeric_limits<double>::infinity();
            double egress_to_site = std::numeric_limits<double>::infinity();
            for (const topo::region_id p : link.interconnect_regions) {
                first_km = std::min(first_km, geo::distance_km(source_loc, regions.at(p).location));
                egress_to_site =
                    std::min(egress_to_site, geo::distance_km(regions.at(p).location, site_loc));
            }
            first_km += 0.25 * egress_to_site;
        }
        if (first_km < best_first_km) {
            best_first_km = first_km;
            best_site = s;
        }
    }
    return rib.evaluate(asn, region, best_site);
}

// Element-wise equality of two sites' route-row views.
bool same_view(const route::anycast_rib::site_route_view& a,
               const route::anycast_rib::site_route_view& b) {
    return std::ranges::equal(a.cls, b.cls) && std::ranges::equal(a.path_len, b.path_len) &&
           std::ranges::equal(a.next_index, b.next_index) &&
           std::ranges::equal(a.link_index, b.link_index);
}

class RoutingPolicy : public ::testing::Test {
protected:
    RoutingPolicy() : regions_(make_line_regions()) {
        // Topology (relationships from the first argument's perspective):
        //   origin(1) --provider--> transit(2) --provider--> tier1(3)
        //   origin(1) --peer-- peerAS(4);  peerAS(4) --peer-- peer2(5)
        //   customer(6) --provider--> origin(1)
        //   eyeball(7) --provider--> transit(2)
        //   eyeball(8) --provider--> tier1(3)
        graph_.add_as(make_as(1, topo::as_role::content, {0}));
        graph_.add_as(make_as(2, topo::as_role::transit, {0, 1}));
        graph_.add_as(make_as(3, topo::as_role::tier1, {1, 2}));
        graph_.add_as(make_as(4, topo::as_role::transit, {0, 2}));
        graph_.add_as(make_as(5, topo::as_role::transit, {2}));
        graph_.add_as(make_as(6, topo::as_role::eyeball, {0}));
        graph_.add_as(make_as(7, topo::as_role::eyeball, {1}));
        graph_.add_as(make_as(8, topo::as_role::eyeball, {2}));

        graph_.add_link(1, 2, topo::as_relationship::provider, {0}, 1.2);
        graph_.add_link(2, 3, topo::as_relationship::provider, {1}, 1.2);
        graph_.add_link(1, 4, topo::as_relationship::peer, {0}, 1.2);
        graph_.add_link(4, 5, topo::as_relationship::peer, {2}, 1.2);
        graph_.add_link(6, 1, topo::as_relationship::provider, {0}, 1.2);
        graph_.add_link(7, 2, topo::as_relationship::provider, {1}, 1.2);
        graph_.add_link(8, 3, topo::as_relationship::provider, {2}, 1.2);
    }

    route::anycast_rib make_rib(std::vector<route::announcement> announcements) {
        return route::anycast_rib{graph_, std::move(announcements)};
    }

    topo::region_table regions_;
    topo::as_graph graph_{regions_};
};

TEST_F(RoutingPolicy, OriginHoldsOriginRoute) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto r = rib.route_toward(1, 0);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->cls, route::route_class::origin);
    EXPECT_EQ(r->path_len, 1);
}

TEST_F(RoutingPolicy, ProviderLearnsCustomerRoute) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto r = rib.route_toward(2, 0);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->cls, route::route_class::customer);
    EXPECT_EQ(r->path_len, 2);
    EXPECT_EQ(r->next_hop, 1u);
}

TEST_F(RoutingPolicy, CustomerRouteClimbsTransitively) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto r = rib.route_toward(3, 0);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->cls, route::route_class::customer);
    EXPECT_EQ(r->path_len, 3);
}

TEST_F(RoutingPolicy, PeerLearnsButDoesNotReexportToPeers) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto peer = rib.route_toward(4, 0);
    ASSERT_TRUE(peer.has_value());
    EXPECT_EQ(peer->cls, route::route_class::peer);
    // AS 5 peers with 4; a peer-learned route must not flow peer-to-peer.
    EXPECT_FALSE(rib.route_toward(5, 0).has_value());
}

TEST_F(RoutingPolicy, CustomersLearnFromAnyRoute) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    // Eyeball 7 sits under transit 2: provider route, length 3.
    const auto r7 = rib.route_toward(7, 0);
    ASSERT_TRUE(r7.has_value());
    EXPECT_EQ(r7->cls, route::route_class::provider);
    EXPECT_EQ(r7->path_len, 3);
    // Eyeball 8 under the tier-1: provider route, length 4.
    const auto r8 = rib.route_toward(8, 0);
    ASSERT_TRUE(r8.has_value());
    EXPECT_EQ(r8->cls, route::route_class::provider);
    EXPECT_EQ(r8->path_len, 4);
}

TEST_F(RoutingPolicy, DirectCustomerOfOriginGetsProviderRoute) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto r = rib.route_toward(6, 0);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->cls, route::route_class::provider);
    EXPECT_EQ(r->path_len, 2);
}

TEST_F(RoutingPolicy, LocalScopeReachesNeighborsOnly) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::local, {}}});
    EXPECT_TRUE(rib.route_toward(2, 0).has_value());   // direct provider
    EXPECT_TRUE(rib.route_toward(4, 0).has_value());   // direct peer
    EXPECT_TRUE(rib.route_toward(6, 0).has_value());   // direct customer
    EXPECT_FALSE(rib.route_toward(3, 0).has_value());  // two hops away
    EXPECT_FALSE(rib.route_toward(7, 0).has_value());
}

TEST_F(RoutingPolicy, EvaluateBuildsFullAsPath) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto path = rib.evaluate(8, 2, 0);
    ASSERT_TRUE(path.has_value());
    const std::vector<topo::asn_t> expected{8, 3, 2, 1};
    EXPECT_EQ(path->as_path, expected);
    EXPECT_GT(path->rtt_ms, 0.0);
    EXPECT_GT(path->path_km, 0.0);
}

TEST_F(RoutingPolicy, RttGrowsWithPathDistance) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    // AS 7 (one region away) vs AS 8 (two regions away, longer AS path).
    const auto near = rib.evaluate(7, 1, 0);
    const auto far = rib.evaluate(8, 2, 0);
    ASSERT_TRUE(near && far);
    EXPECT_LT(near->rtt_ms, far->rtt_ms);
}

TEST_F(RoutingPolicy, SelectPrefersCustomerOverPeerRegardlessOfLength) {
    // Site 0 reachable from AS 5? No. Use AS 4: it holds a peer route to
    // site 0 (len 2). Give it also a provider route via a second site's
    // chain — peer must still win over provider.
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto route4 = rib.route_toward(4, 0);
    ASSERT_TRUE(route4.has_value());
    EXPECT_EQ(route4->cls, route::route_class::peer);
}

TEST_F(RoutingPolicy, HasDirectRouteDetectsShortPaths) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    EXPECT_TRUE(rib.has_direct_route(2));
    EXPECT_TRUE(rib.has_direct_route(4));
    EXPECT_FALSE(rib.has_direct_route(8));
}

TEST_F(RoutingPolicy, DenseSiteIdsEnforced) {
    EXPECT_THROW(make_rib({{5, 1, 0, route::announcement_scope::global, {}}}),
                 std::invalid_argument);
}

TEST_F(RoutingPolicy, RejectsDuplicateSiteIds) {
    // Two announcements claiming site 0 leave site 1 undefined.
    EXPECT_THROW(make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                           {0, 1, 3, route::announcement_scope::global, {}}}),
                 std::invalid_argument);
}

TEST_F(RoutingPolicy, UnknownOriginRejected) {
    EXPECT_THROW(make_rib({{0, 99, 0, route::announcement_scope::global, {}}}),
                 std::invalid_argument);
}

class HotPotato : public ::testing::Test {
protected:
    HotPotato() : regions_(make_line_regions()) {
        // Origin AS 1 present at both ends (regions 0 and 3) with two sites;
        // eyeball 2 present in the middle (region 1, nearer region 0).
        graph_.add_as(make_as(1, topo::as_role::content, {0, 3}));
        graph_.add_as(make_as(2, topo::as_role::eyeball, {1}));
        graph_.add_link(2, 1, topo::as_relationship::peer, {0, 3}, 1.2);
    }

    topo::region_table regions_;
    topo::as_graph graph_{regions_};
};

TEST_F(HotPotato, SelectsNearestEgressAmongEqualRoutes) {
    route::anycast_rib rib{graph_,
                           {{0, 1, 0, route::announcement_scope::global, {}},
                            {1, 1, 3, route::announcement_scope::global, {}}}};
    // Both sites are peer routes of identical length; the eyeball at region 1
    // should early-exit to the site at region 0.
    const auto candidates = rib.best_candidates(2);
    EXPECT_EQ(candidates.size(), 2u);
    const auto chosen = rib.select(2, 1);
    ASSERT_TRUE(chosen.has_value());
    EXPECT_EQ(chosen->site, 0u);
}

// Fast-path differential tests: the memoized select, cold and warm, and the
// reference selector (per-call rescan + raw haversine) must agree
// byte-for-byte on every (asn, region) pair.

TEST_F(RoutingPolicy, CachedSelectionMatchesUncachedAndReferenceEverywhere) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                         {1, 1, 3, route::announcement_scope::global, {}}});
    for (const topo::asn_t asn : rib.known_asns()) {
        for (topo::region_id region = 0; region < regions_.size(); ++region) {
            const auto cached = rib.select(asn, region);  // first query: a fill
            const auto reference = select_reference(rib, graph_, asn, region);
            EXPECT_EQ(cached, reference) << "asn " << asn << " region " << region;
            // Repeat query: now a guaranteed cache hit, still identical.
            EXPECT_EQ(rib.select(asn, region), cached);
        }
    }
}

TEST_F(RoutingPolicy, BestCandidatesMatchRouteTowardScan) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                         {1, 1, 3, route::announcement_scope::global, {}}});
    for (const topo::asn_t asn : rib.known_asns()) {
        // Reference scan over route_toward, mirroring the pre-index logic.
        route::route_class best = route::route_class::none;
        std::uint8_t best_len = 255;
        std::vector<route::site_id> expected;
        for (route::site_id s = 0; s < 2; ++s) {
            const auto r = rib.route_toward(asn, s);
            if (!r) continue;
            if (r->cls < best || (r->cls == best && r->path_len < best_len)) {
                best = r->cls;
                best_len = r->path_len;
            }
        }
        for (route::site_id s = 0; s < 2; ++s) {
            const auto r = rib.route_toward(asn, s);
            if (r && r->cls == best && r->path_len == best_len) expected.push_back(s);
        }
        EXPECT_EQ(rib.best_candidates(asn), expected) << "asn " << asn;
    }
}

TEST_F(RoutingPolicy, CacheStatsCountHitsAndMisses) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    EXPECT_EQ(rib.select_cache_stats().hits, 0u);
    EXPECT_EQ(rib.select_cache_stats().misses, 0u);
    (void)rib.select(8, 2);
    EXPECT_EQ(rib.select_cache_stats().misses, 1u);
    EXPECT_EQ(rib.select_cache_stats().hits, 0u);
    (void)rib.select(8, 2);
    EXPECT_EQ(rib.select_cache_stats().misses, 1u);
    EXPECT_EQ(rib.select_cache_stats().hits, 1u);
    (void)rib.select(8, 3);  // different region: a distinct key
    EXPECT_EQ(rib.select_cache_stats().misses, 2u);
}

TEST_F(RoutingPolicy, SiteRoutesViewMatchesRouteToward) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto view = rib.site_routes(0);
    const auto asns = rib.known_asns();
    ASSERT_EQ(view.cls.size(), asns.size());
    for (std::size_t i = 0; i < asns.size(); ++i) {
        const auto r = rib.route_toward(asns[i], 0);
        if (!r) {
            EXPECT_EQ(static_cast<route::route_class>(view.cls[i]), route::route_class::none);
            continue;
        }
        EXPECT_EQ(static_cast<route::route_class>(view.cls[i]), r->cls);
        EXPECT_EQ(view.path_len[i], r->path_len);
        EXPECT_EQ(view.link_index[i], r->link_index);
        if (view.next_index[i] == route::anycast_rib::no_next_hop) {
            EXPECT_EQ(r->next_hop, 0u);
        } else {
            EXPECT_EQ(asns[view.next_index[i]], r->next_hop);
        }
    }
    EXPECT_THROW((void)rib.site_routes(1), std::out_of_range);
}

TEST_F(RoutingPolicy, UnknownAsnAndNoRouteOrdering) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    EXPECT_THROW((void)rib.select(99, 0), std::out_of_range);
    EXPECT_THROW((void)rib.has_direct_route(99), std::out_of_range);
    EXPECT_THROW((void)rib.evaluate(99, 0, 0), std::out_of_range);
    // AS 5 holds no route at all: nullopt wins over region validation, as in
    // the pre-index implementation (candidate check came first).
    EXPECT_FALSE(rib.select(5, 999).has_value());
    EXPECT_FALSE(rib.evaluate(5, 999, 0).has_value());
    // An AS with a route and a bogus region must still throw.
    EXPECT_THROW((void)rib.select(8, 999), std::out_of_range);
    EXPECT_THROW((void)rib.evaluate(8, 999, 0), std::out_of_range);
}

TEST_F(RoutingPolicy, ConcurrentCacheFillMatchesSerialOracle) {
    // TSan target: many threads hammer the same small key space while a pool
    // runs select_many over it. Every answer must equal the reference oracle.
    engine::thread_pool pool{4};
    route::anycast_rib rib{graph_,
                           {{0, 1, 0, route::announcement_scope::global, {}},
                            {1, 1, 3, route::announcement_scope::global, {}}},
                           &pool};

    std::vector<route::source_key> keys;
    std::vector<std::optional<route::path_result>> oracle;
    for (const topo::asn_t asn : rib.known_asns()) {
        for (topo::region_id region = 0; region < regions_.size(); ++region) {
            keys.push_back({asn, region});
            oracle.push_back(select_reference(rib, graph_, asn, region));
        }
    }

    std::vector<std::thread> hammers;
    for (int t = 0; t < 4; ++t) {
        hammers.emplace_back([&, t] {
            for (int round = 0; round < 50; ++round) {
                for (std::size_t k = 0; k < keys.size(); ++k) {
                    // Stagger start offsets so threads collide on fresh keys.
                    const auto& key = keys[(k + static_cast<std::size_t>(t) * 7) % keys.size()];
                    const auto got = rib.select(key.asn, key.region);
                    ASSERT_EQ(got, oracle[(k + static_cast<std::size_t>(t) * 7) % keys.size()]);
                }
            }
        });
    }
    const auto bulk = rib.select_many(keys, &pool);
    for (auto& h : hammers) h.join();

    ASSERT_EQ(bulk.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) EXPECT_EQ(bulk[i], oracle[i]);
    const auto stats = rib.select_cache_stats();
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GE(stats.misses, 1u);  // racing fills may exceed distinct keys
}

// Mutation tests: per-source withdraw/announce with incremental
// re-convergence (DESIGN §11). The contract: after any event sequence the
// RIB is byte-identical to one rebuilt from scratch with the same
// announcement state.

TEST_F(RoutingPolicy, WithdrawClearsRoutesAndReconverges) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                         {1, 1, 3, route::announcement_scope::global, {}}});
    ASSERT_TRUE(rib.route_toward(8, 0).has_value());
    const auto stats = rib.withdraw(0);
    EXPECT_GT(stats.ases_touched, 0u);
    EXPECT_FALSE(rib.route_toward(8, 0).has_value());
    EXPECT_TRUE(rib.is_withdrawn(0));
    EXPECT_EQ(rib.active_site_count(), 1u);
    // Selection falls over to the surviving site.
    const auto chosen = rib.select(8, 2);
    ASSERT_TRUE(chosen.has_value());
    EXPECT_EQ(chosen->site, 1u);
}

TEST_F(RoutingPolicy, WithdrawIsIdempotent) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto first = rib.withdraw(0);
    EXPECT_GT(first.ases_touched, 0u);
    const auto second = rib.withdraw(0);
    EXPECT_EQ(second.ases_touched, 0u);
    EXPECT_EQ(second.cache_entries_invalidated, 0u);
    EXPECT_THROW((void)rib.withdraw(9), std::out_of_range);
}

TEST_F(RoutingPolicy, AnnounceRestoresWithdrawnSite) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                         {1, 1, 3, route::announcement_scope::global, {}}});
    const auto before = select_reference(rib, graph_, 8, 2);
    (void)rib.withdraw(0);
    (void)rib.announce(rib.announcements()[0]);
    EXPECT_FALSE(rib.is_withdrawn(0));
    EXPECT_EQ(rib.active_site_count(), 2u);
    // Restoration is exact: same announcement, same selection bytes.
    EXPECT_EQ(rib.select(8, 2), before);
}

TEST_F(RoutingPolicy, AnnounceValidatesOriginAndDensity) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    EXPECT_THROW((void)rib.announce({0, 99, 0, route::announcement_scope::global, {}}),
                 std::invalid_argument);
    EXPECT_THROW((void)rib.announce({5, 1, 0, route::announcement_scope::global, {}}),
                 std::invalid_argument);
}

TEST_F(RoutingPolicy, AnnounceAppendsNewSite) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto stats = rib.announce({1, 1, 3, route::announcement_scope::global, {}});
    EXPECT_GT(stats.ases_touched, 0u);
    EXPECT_EQ(rib.site_count(), 2u);
    EXPECT_TRUE(rib.route_toward(8, 1).has_value());
    // Byte-identical to a RIB built with both sites from scratch.
    auto fresh = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                           {1, 1, 3, route::announcement_scope::global, {}}});
    for (const topo::asn_t asn : rib.known_asns()) {
        for (topo::region_id region = 0; region < regions_.size(); ++region) {
            EXPECT_EQ(rib.select(asn, region), fresh.select(asn, region));
        }
    }
}

TEST_F(RoutingPolicy, PrependLengthensPathsAndShiftsSelection) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    const auto plain = rib.route_toward(2, 0);
    ASSERT_TRUE(plain.has_value());
    auto prepended = rib.announcements()[0];
    prepended.prepend = 3;
    (void)rib.announce(prepended);
    const auto longer = rib.route_toward(2, 0);
    ASSERT_TRUE(longer.has_value());
    EXPECT_EQ(longer->path_len, plain->path_len + 3);
    // And it matches a from-scratch build with the prepended announcement.
    auto fresh = make_rib({prepended});
    EXPECT_EQ(rib.route_toward(2, 0), fresh.route_toward(2, 0));
}

TEST_F(RoutingPolicy, CacheStatsZeroQueryGuardAndInvalidations) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}}});
    // Satellite fix: hit_rate() with zero lookups is 0.0, not NaN.
    const auto empty = rib.select_cache_stats();
    EXPECT_EQ(empty.hits + empty.misses, 0u);
    EXPECT_EQ(empty.hit_rate(), 0.0);
    EXPECT_EQ(empty.invalidations, 0u);

    (void)rib.select(8, 2);
    (void)rib.select(8, 2);
    EXPECT_GT(rib.select_cache_stats().hit_rate(), 0.0);
    const auto stats = rib.withdraw(0);
    EXPECT_EQ(rib.select_cache_stats().invalidations, stats.cache_entries_invalidated);
    EXPECT_GT(rib.select_cache_stats().invalidations, 0u);
}

TEST_F(RoutingPolicy, IncrementalMatchesRebuildAfterRandomizedTimeline) {
    // The tentpole equivalence contract: replay a randomized event timeline
    // and, after *every* event, require select over all (asn, region) pairs
    // to be byte-identical to a from-scratch rebuild holding the same
    // announcement state — at thread counts 1, 2, and 8.
    for (const int threads : {1, 2, 8}) {
        engine::thread_pool pool{threads};
        route::anycast_rib rib{graph_,
                               {{0, 1, 0, route::announcement_scope::global, {}},
                                {1, 1, 3, route::announcement_scope::global, {}},
                                {2, 1, 1, route::announcement_scope::local, {}}},
                               &pool};
        rand::rng gen{rand::mix_seed(0x5cea4106ULL, static_cast<std::uint64_t>(threads))};
        for (int round = 0; round < 24; ++round) {
            const auto site = static_cast<route::site_id>(gen.uniform_index(rib.site_count()));
            switch (gen.uniform_index(4)) {
                case 0: (void)rib.withdraw(site); break;
                case 1: (void)rib.announce(rib.announcements()[site]); break;
                case 2: {
                    auto a = rib.announcements()[site];
                    a.prepend = static_cast<std::uint8_t>(gen.uniform_index(4));
                    (void)rib.announce(a);
                    break;
                }
                default: {
                    auto a = rib.announcements()[site];
                    a.scope = a.scope == route::announcement_scope::global
                                  ? route::announcement_scope::local
                                  : route::announcement_scope::global;
                    (void)rib.announce(a);
                    break;
                }
            }
            route::anycast_rib fresh{graph_,
                                     std::vector<route::announcement>(
                                         rib.announcements().begin(),
                                         rib.announcements().end()),
                                     &pool};
            for (const topo::asn_t asn : rib.known_asns()) {
                for (topo::region_id region = 0; region < regions_.size(); ++region) {
                    ASSERT_EQ(rib.select(asn, region), fresh.select(asn, region))
                        << "threads " << threads << " round " << round << " asn " << asn
                        << " region " << region;
                }
            }
        }
    }
}

// Index-level equivalence: the per-AS slot itself (candidate list, direct
// flag) must equal a fresh rebuild after every event, not just `select`,
// which can hide a stale candidate list behind an unchanged hot-potato pick.
// `with_selects` also diffs `select` at every (AS, region).
void expect_index_matches_rebuild(const route::anycast_rib& rib, const topo::as_graph& graph,
                                  engine::thread_pool* pool, const std::string& label,
                                  bool with_selects = true) {
    const route::anycast_rib fresh{graph, std::vector<route::announcement>(
                                              rib.announcements().begin(),
                                              rib.announcements().end()),
                                   pool};
    for (const topo::asn_t asn : rib.known_asns()) {
        ASSERT_EQ(rib.best_candidates(asn), fresh.best_candidates(asn))
            << label << " asn " << asn;
        ASSERT_EQ(rib.has_direct_route(asn), fresh.has_direct_route(asn))
            << label << " asn " << asn;
        for (topo::region_id region = 0; with_selects && region < graph.regions().size();
             ++region) {
            ASSERT_EQ(rib.select(asn, region), fresh.select(asn, region))
                << label << " asn " << asn << " region " << region;
        }
    }
}

std::uint64_t rescans_counted() {
    return obs::registry::global().get_counter("route.reconverge.rescans").value();
}

TEST_F(RoutingPolicy, DeltaRepairMatchesRebuildUnderTies) {
    using route::announcement_scope;
    // Nine sites from four origins: shared keys (0/1, 3/4), one local site,
    // and prepends that tie different origins at equal (class, len).
    const std::vector<route::announcement> initial{
        {0, 1, 0, announcement_scope::global, {}},
        {1, 1, 3, announcement_scope::global, {}},
        {2, 1, 1, announcement_scope::global, {}, 1},
        {3, 6, 0, announcement_scope::global, {}},
        {4, 6, 2, announcement_scope::global, {}},
        {5, 2, 1, announcement_scope::global, {}, 1},
        {6, 1, 2, announcement_scope::local, {}},
        {7, 4, 2, announcement_scope::global, {}, 2},
        {8, 2, 1, announcement_scope::global, {}, 2},
    };
    const std::vector<topo::asn_t> origins{1, 2, 4, 6};
    // Which repair branch each event exercised, observed from outside.
    bool sole_best_removal = false;
    bool direct_removal = false;
    bool tie_insert = false;
    bool better_replaces_best = false;
    bool same_key_reannounce = false;
    for (const int threads : {1, 2, 8}) {
        engine::thread_pool pool{threads};
        route::anycast_rib rib{graph_, initial, &pool};
        rand::rng gen{rand::mix_seed(0xde17a5ULL, static_cast<std::uint64_t>(threads))};
        for (int round = 0; round < 48; ++round) {
            // Midway, a brand-new site (no old row) joins from AS 6.
            const bool append = round == 24;
            const auto site = append ? static_cast<route::site_id>(rib.site_count())
                                     : static_cast<route::site_id>(
                                           gen.uniform_index(rib.site_count()));
            std::vector<std::vector<route::site_id>> before;
            std::vector<std::optional<route::site_route>> old_cells;
            for (const topo::asn_t asn : rib.known_asns()) {
                before.push_back(rib.best_candidates(asn));
                old_cells.push_back(append ? std::nullopt : rib.route_toward(asn, site));
            }
            const auto rescans_before = rescans_counted();
            auto a = append ? route::announcement{site, 6, 1, announcement_scope::global, {}, 1}
                            : rib.announcements()[site];
            route::anycast_rib::reconverge_stats stats;
            switch (append ? 1 : gen.uniform_index(5)) {
                case 0: stats = rib.withdraw(site); break;
                case 1:
                    same_key_reannounce = same_key_reannounce || (!append && !a.withdrawn);
                    stats = rib.announce(a);
                    break;
                case 2:
                    a.prepend = static_cast<std::uint8_t>(gen.uniform_index(3));
                    stats = rib.announce(a);
                    break;
                case 3:
                    a.scope = a.scope == announcement_scope::global ? announcement_scope::local
                                                                    : announcement_scope::global;
                    stats = rib.announce(a);
                    break;
                default:
                    a.origin_asn = origins[gen.uniform_index(origins.size())];
                    stats = rib.announce(a);
                    break;
            }
            const std::string label =
                "threads " + std::to_string(threads) + " round " + std::to_string(round);
            EXPECT_LE(stats.rescans, stats.ases_touched) << label;
            EXPECT_EQ(rescans_counted() - rescans_before, stats.rescans) << label;
            expect_index_matches_rebuild(rib, graph_, &pool, label);
            if (HasFatalFailure()) return;

            const auto asns = rib.known_asns();
            for (std::size_t i = 0; i < asns.size(); ++i) {
                const auto after = rib.best_candidates(asns[i]);
                auto others = before[i];
                std::erase(others, site);
                const bool was_best = others.size() != before[i].size();
                const bool was_direct = old_cells[i] && old_cells[i]->path_len <= 2;
                direct_removal = direct_removal || was_direct;
                if (was_best && others.empty() && !was_direct) {
                    sole_best_removal = true;
                    EXPECT_GT(stats.rescans, 0u) << label;
                }
                if (!others.empty() && after == std::vector<route::site_id>{site}) {
                    better_replaces_best = true;
                }
                if (!others.empty() && after.size() == others.size() + 1 &&
                    std::ranges::includes(after, others) && std::ranges::count(after, site)) {
                    tie_insert = true;
                }
            }
        }
    }
    EXPECT_TRUE(sole_best_removal);
    EXPECT_TRUE(direct_removal);
    EXPECT_TRUE(tie_insert);
    EXPECT_TRUE(better_replaces_best);
    EXPECT_TRUE(same_key_reannounce);
}

TEST_F(RoutingPolicy, RescansOnlyWhereTheOldCellWasDirectOrSoleBest) {
    // Site 1 shares site 0's origin but prepends 3: it is no AS's best
    // candidate and never a direct route, so withdrawing it rescans nothing.
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                         {1, 1, 3, route::announcement_scope::global, {}, 3}});
    for (const topo::asn_t asn : rib.known_asns()) {
        const auto cands = rib.best_candidates(asn);
        ASSERT_EQ(std::ranges::count(cands, route::site_id{1}), 0) << "asn " << asn;
    }
    auto counted = rescans_counted();
    const auto quiet = rib.withdraw(1);
    EXPECT_GT(quiet.ases_touched, 0u);
    EXPECT_EQ(quiet.rescans, 0u);
    EXPECT_EQ(rescans_counted() - counted, 0u);

    // Site 0 is now every routed AS's sole best (a direct route at its
    // origin and neighbours): every touched slot falls back.
    counted = rescans_counted();
    const auto loud = rib.withdraw(0);
    EXPECT_GT(loud.rescans, 0u);
    EXPECT_EQ(loud.rescans, loud.ases_touched);
    EXPECT_EQ(rescans_counted() - counted, loud.rescans);
    expect_index_matches_rebuild(rib, graph_, nullptr, "both withdrawn");
}

// Sealed select memo (DESIGN §13): freezing seals the memoized selections;
// the serving read path reads them without locking, cold keys are computed
// but not stored, and any mutation unseals.

TEST_F(RoutingPolicy, FreezeSealsMemoizedSelections) {
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                         {1, 1, 3, route::announcement_scope::global, {}}});
    EXPECT_FALSE(rib.select_cache_stats().frozen);
    EXPECT_EQ(rib.select_frozen(8, 2), nullptr);  // nothing sealed yet

    // Warm a few keys, then freeze: every warmed key must answer from the
    // sealed memo with the exact result it was warmed with.
    std::vector<route::source_key> keys{{8, 2}, {8, 3}, {7, 1}, {6, 0}};
    std::vector<std::optional<route::path_result>> expected;
    for (const auto& k : keys) expected.push_back(rib.select(k.asn, k.region));
    const std::size_t sealed = rib.freeze_select_cache();
    EXPECT_EQ(sealed, keys.size());
    EXPECT_TRUE(rib.select_cache_stats().frozen);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto* hit = rib.select_frozen(keys[i].asn, keys[i].region);
        ASSERT_NE(hit, nullptr) << "key " << i;
        EXPECT_EQ(*hit, expected[i]);
    }
    EXPECT_EQ(rib.select_cache_stats().frozen_hits, keys.size());

    // A key never warmed is not sealed: the probe misses without locking,
    // and select() still answers it, computing without storing.
    EXPECT_EQ(rib.select_frozen(7, 2), nullptr);
    EXPECT_EQ(rib.select(7, 2), select_reference(rib, graph_, 7, 2));
    EXPECT_EQ(rib.select_frozen(7, 2), nullptr);
    EXPECT_EQ(rib.freeze_select_cache(), keys.size());
}

TEST_F(RoutingPolicy, MutationUnpublishesFrozenTable) {
    // Each sealed pointer below is read before the next non-const call,
    // which is as long as it stays valid.
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                         {1, 1, 3, route::announcement_scope::global, {}}});
    (void)rib.select(8, 2);
    ASSERT_GT(rib.freeze_select_cache(), 0u);
    ASSERT_TRUE(rib.select_cache_stats().frozen);

    (void)rib.withdraw(0);
    EXPECT_FALSE(rib.select_cache_stats().frozen);
    EXPECT_EQ(rib.select_frozen(8, 2), nullptr);

    // Re-warm and re-freeze after the withdrawal: the sealed answer must
    // reflect the mutated RIB, not the pre-withdrawal memo.
    const auto degraded = rib.select(8, 2);
    (void)rib.freeze_select_cache();
    const auto* hit = rib.select_frozen(8, 2);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, degraded);

    (void)rib.announce(rib.announcements()[0]);
    EXPECT_FALSE(rib.select_cache_stats().frozen);

    (void)rib.select(8, 2);
    (void)rib.freeze_select_cache();
    ASSERT_TRUE(rib.select_cache_stats().frozen);
    rib.clear_select_cache();
    EXPECT_FALSE(rib.select_cache_stats().frozen);
}

TEST_F(RoutingPolicy, SealedRibServesConcurrentReaders) {
    // TSan target for the serving read path: once sealed, readers share the
    // memo without locking. Threads select warmed and never-warmed keys in a
    // loop; cold keys are computed but never stored, so the sealed contents
    // and every answer stay fixed.
    engine::thread_pool pool{2};
    route::anycast_rib rib{graph_,
                           {{0, 1, 0, route::announcement_scope::global, {}},
                            {1, 1, 3, route::announcement_scope::global, {}}},
                           &pool};
    std::vector<route::source_key> keys;
    std::vector<std::optional<route::path_result>> oracle;
    for (const topo::asn_t asn : rib.known_asns()) {
        for (topo::region_id region = 0; region < regions_.size(); ++region) {
            keys.push_back({asn, region});
            oracle.push_back(select_reference(rib, graph_, asn, region));
        }
    }
    // Warm every other key, so half the lookups below are cold.
    std::vector<route::source_key> warm;
    for (std::size_t k = 0; k < keys.size(); k += 2) warm.push_back(keys[k]);
    (void)rib.select_many(warm, &pool);
    const std::size_t sealed = rib.freeze_select_cache();
    ASSERT_GT(sealed, 0u);
    const auto before = rib.select_cache_stats();

    constexpr int threads = 4;
    constexpr int rounds = 50;
    std::vector<std::thread> readers;
    for (int t = 0; t < threads; ++t) {
        readers.emplace_back([&, t] {
            for (int round = 0; round < rounds; ++round) {
                for (std::size_t k = 0; k < keys.size(); ++k) {
                    const std::size_t i = (k + static_cast<std::size_t>(t) * 5) % keys.size();
                    ASSERT_EQ(rib.select(keys[i].asn, keys[i].region), oracle[i]) << "key " << i;
                }
            }
        });
    }
    for (auto& r : readers) r.join();

    const auto after = rib.select_cache_stats();
    EXPECT_TRUE(after.frozen);
    const std::uint64_t lookups = std::uint64_t{threads} * rounds * keys.size();
    EXPECT_EQ((after.frozen_hits - before.frozen_hits) +
                  (after.frozen_misses - before.frozen_misses),
              lookups);
    EXPECT_EQ(after.hits, before.hits);  // sealed reads bypass the fill path
    EXPECT_EQ(rib.freeze_select_cache(), sealed);  // no cold key was stored
}

TEST_F(HotPotato, EvaluateReportsDirectDistance) {
    route::anycast_rib rib{graph_,
                           {{0, 1, 0, route::announcement_scope::global, {}},
                            {1, 1, 3, route::announcement_scope::global, {}}}};
    const auto path = rib.evaluate(2, 1, 1);
    ASSERT_TRUE(path.has_value());
    // Direct distance to the far site (region 3) is ~2 region-steps.
    EXPECT_NEAR(path->direct_km,
                geo::distance_km(regions_.at(1).location, regions_.at(3).location), 1.0);
}

// The nearest-interconnect table lives in the graph and is shared by every
// RIB over it (DESIGN §8). These tests run on a generated graph, whose links
// meet in one to six regions.
class SharedGraph : public ::testing::Test {
protected:
    SharedGraph()
        : regions_(topo::make_regions(topo::region_plan{40, 12, 40, 16, 30, 10, 2}, 17)),
          graph_(topo::make_graph(regions_, small_plan(), 17)) {}

    static topo::graph_plan small_plan() {
        topo::graph_plan plan;
        plan.tier1_count = 5;
        plan.transits_per_continent = 3;
        plan.eyeball_count = 60;
        plan.enterprise_count = 8;
        plan.public_dns_count = 1;
        return plan;
    }

    // Sites at two tier-1s and one transit.
    std::vector<route::announcement> announcements() const {
        const auto tier1s = graph_.with_role(topo::as_role::tier1);
        const auto transits = graph_.with_role(topo::as_role::transit);
        return {{0, tier1s[0], graph_.at(tier1s[0]).presence.front(),
                 route::announcement_scope::global, {}},
                {1, tier1s[1], graph_.at(tier1s[1]).presence.back(),
                 route::announcement_scope::global, {}},
                {2, transits[0], graph_.at(transits[0]).presence.front(),
                 route::announcement_scope::global, {}}};
    }

    // The per-link argmin the table replaces: interconnects in link order,
    // strict less over the region distance matrix.
    topo::region_id scan_nearest(std::uint32_t link, topo::region_id region) const {
        const auto& interconnects = graph_.link(link).interconnect_regions;
        topo::region_id best = interconnects.front();
        double best_km = std::numeric_limits<double>::infinity();
        for (const topo::region_id p : interconnects) {
            const double d = regions_.distance_km(region, p);
            if (d < best_km) {
                best_km = d;
                best = p;
            }
        }
        return best;
    }

    std::vector<topo::region_id> table_rows(std::size_t links) const {
        std::vector<topo::region_id> rows;
        for (std::uint32_t l = 0; l < links; ++l) {
            for (topo::region_id r = 0; r < regions_.size(); ++r) {
                rows.push_back(graph_.nearest_interconnect(l, r));
            }
        }
        return rows;
    }

    void expect_select_matches_reference(const route::anycast_rib& rib, const char* label) {
        for (const topo::asn_t asn : rib.known_asns()) {
            for (topo::region_id region = 0; region < regions_.size(); ++region) {
                ASSERT_EQ(rib.select(asn, region), select_reference(rib, graph_, asn, region))
                    << label << " asn " << asn << " region " << region;
            }
        }
    }

    topo::region_table regions_;
    topo::as_graph graph_;
};

TEST_F(SharedGraph, NearestInterconnectTableIsAppendOnlyAndShared) {
    const auto old_links = static_cast<std::uint32_t>(graph_.link_count());
    for (std::uint32_t l = 0; l < old_links; ++l) {
        for (topo::region_id r = 0; r < regions_.size(); ++r) {
            ASSERT_EQ(graph_.nearest_interconnect(l, r), scan_nearest(l, r))
                << "link " << l << " region " << r;
        }
    }
    const auto old_rows = table_rows(old_links);
    const topo::as_graph before = graph_;  // the graph RIB 1 was built over
    route::anycast_rib rib1{graph_, announcements()};

    // New multi-interconnect peerings from the first site's origin to every
    // eyeball it does not yet touch: a peer route beats the eyeballs'
    // provider routes, so RIB 2 must use them.
    const topo::asn_t origin = announcements().front().origin_asn;
    const auto& origin_presence = graph_.at(origin).presence;
    std::size_t added = 0;
    for (const topo::asn_t eyeball : graph_.with_role(topo::as_role::eyeball)) {
        if (graph_.has_link(origin, eyeball)) continue;
        const topo::region_id near = graph_.at(eyeball).presence.front();
        const topo::region_id far = origin_presence[added % origin_presence.size()];
        if (near == far) continue;
        graph_.add_link(origin, eyeball, topo::as_relationship::peer, {far, near}, 1.2);
        ++added;
    }
    ASSERT_GT(added, 10u);

    // Rows of the old links are unchanged; the new rows are the argmin.
    EXPECT_EQ(table_rows(old_links), old_rows);
    for (auto l = old_links; l < graph_.link_count(); ++l) {
        for (topo::region_id r = 0; r < regions_.size(); ++r) {
            ASSERT_EQ(graph_.nearest_interconnect(l, r), scan_nearest(l, r))
                << "link " << l << " region " << r;
        }
    }

    route::anycast_rib rib2{graph_, announcements()};
    expect_select_matches_reference(rib1, "rib1");
    expect_select_matches_reference(rib2, "rib2");
    bool rib2_uses_new_link = false;
    for (const topo::asn_t asn : rib2.known_asns()) {
        const auto r = rib2.route_toward(asn, 0);
        if (r && r->cls != route::route_class::origin && r->link_index >= old_links) {
            rib2_uses_new_link = true;
        }
    }
    EXPECT_TRUE(rib2_uses_new_link);

    // RIB 1 re-propagates over its construction snapshot only: after a
    // re-announcement it still equals a RIB over the graph without the new
    // links.
    (void)rib1.announce(rib1.announcements().front());
    const route::anycast_rib snapshot{before, announcements()};
    for (const topo::asn_t asn : rib1.known_asns()) {
        const auto r = rib1.route_toward(asn, 0);
        if (r && r->cls != route::route_class::origin) {
            EXPECT_LT(r->link_index, old_links) << "asn " << asn;
        }
        for (topo::region_id region = 0; region < regions_.size(); ++region) {
            ASSERT_EQ(rib1.select(asn, region), snapshot.select(asn, region))
                << "asn " << asn << " region " << region;
        }
    }
}

TEST_F(SharedGraph, ConcurrentRibBuildsOverConstGraphAgree) {
    // TSan target: RIB construction and every query only read the graph, so
    // RIBs built at once from several threads over one const graph must
    // agree with a serial build — no lazily filled state in the graph.
    const topo::as_graph& graph = graph_;
    const route::anycast_rib oracle{graph, announcements()};
    std::vector<route::source_key> keys;
    for (const topo::asn_t asn : oracle.known_asns()) {
        for (topo::region_id region = 0; region < regions_.size(); region += 5) {
            keys.push_back({asn, region});
        }
    }
    const auto expected = oracle.select_many(keys);

    std::atomic<std::size_t> mismatches{0};
    std::vector<std::thread> builders;
    for (int t = 0; t < 4; ++t) {
        builders.emplace_back([&, t] {
            // Half the builders fan propagation out over their own pool.
            engine::thread_pool pool{t % 2 == 0 ? 1 : 2};
            for (int round = 0; round < 2; ++round) {
                const route::anycast_rib rib{graph, announcements(), &pool};
                const auto got = rib.select_many(keys);
                for (std::size_t k = 0; k < keys.size(); ++k) {
                    if (!(got[k] == expected[k])) mismatches.fetch_add(1);
                }
            }
        });
    }
    for (auto& b : builders) b.join();
    EXPECT_EQ(mismatches.load(), 0u);
}

// Keyed route rows (DESIGN §8): a row depends only on the announcement key
// (origin, scope, prepend, canonical suppressed set), so sites with equal
// keys share one row, and each site still reads exactly the routes a RIB
// holding its announcement alone would compute.

TEST_F(RoutingPolicy, EqualKeysShareARowAndDistinctKeysDoNot) {
    using route::announcement_scope;
    // AS 99 is not in the graph: like an ASN attached after the snapshot,
    // propagation skips it, so it must not split a key.
    const std::vector<route::announcement> anns{
        {0, 1, 0, announcement_scope::global, {6, 4}},
        {1, 1, 1, announcement_scope::global, {4, 6}},      // permutation
        {2, 1, 2, announcement_scope::global, {6, 4, 6}},   // duplicate
        {3, 1, 3, announcement_scope::global, {4, 6, 99}},  // outside the snapshot
        {4, 1, 0, announcement_scope::global, {4, 6}, 1},   // other prepend
        {5, 1, 0, announcement_scope::local, {4, 6}},       // other scope
        {6, 6, 0, announcement_scope::global, {4, 6}},      // other origin
    };
    const auto rows_before = rows_propagated();
    const auto reused_before = rows_reused();
    const auto rib = make_rib(anns);
    EXPECT_EQ(rows_propagated() - rows_before, 4u);
    EXPECT_EQ(rows_reused() - reused_before, 3u);

    for (route::site_id s = 1; s < 4; ++s) {
        EXPECT_TRUE(same_view(rib.site_routes(s), rib.site_routes(0))) << "site " << s;
    }
    for (route::site_id s = 4; s < anns.size(); ++s) {
        EXPECT_FALSE(same_view(rib.site_routes(s), rib.site_routes(0))) << "site " << s;
    }
    // Every site equals a RIB holding its announcement alone.
    for (const auto& a : anns) {
        auto alone = a;
        alone.site = 0;
        const auto oracle = make_rib({alone});
        EXPECT_TRUE(same_view(rib.site_routes(a.site), oracle.site_routes(0))) << a.site;
        EXPECT_EQ(routes_of(rib, a.site), routes_of(oracle, 0)) << "site " << a.site;
    }
}

TEST_F(RoutingPolicy, MutationUnderSharingKeepsTheOtherSite) {
    // Sites 0 and 1 are both hosted by AS 1: one key, one row.
    auto rib = make_rib({{0, 1, 0, route::announcement_scope::global, {}},
                         {1, 1, 3, route::announcement_scope::global, {}}});
    const auto other_routes = routes_of(rib, 1);
    std::vector<std::vector<route::site_id>> candidates;
    std::size_t routed = 0;
    for (const topo::asn_t asn : rib.known_asns()) {
        candidates.push_back(rib.best_candidates(asn));
        routed += rib.route_toward(asn, 0).has_value();
    }

    // Withdrawing site 0 leaves the shared row, and site 1, intact.
    const auto stats = rib.withdraw(0);
    EXPECT_EQ(stats.ases_touched, routed);
    EXPECT_EQ(routes_of(rib, 1), other_routes);
    const auto asns = rib.known_asns();
    for (std::size_t i = 0; i < asns.size(); ++i) {
        auto expected = candidates[i];
        std::erase(expected, route::site_id{0});
        EXPECT_EQ(rib.best_candidates(asns[i]), expected) << "asn " << asns[i];
        EXPECT_FALSE(rib.route_toward(asns[i], 0).has_value()) << "asn " << asns[i];
    }
    const auto view = rib.site_routes(0);
    ASSERT_EQ(view.cls.size(), asns.size());
    for (std::size_t i = 0; i < asns.size(); ++i) {
        EXPECT_EQ(static_cast<route::route_class>(view.cls[i]), route::route_class::none);
        EXPECT_EQ(view.path_len[i], 0u);
        EXPECT_EQ(view.next_index[i], route::anycast_rib::no_next_hop);
        EXPECT_EQ(view.link_index[i], 0u);
    }

    const auto expect_matches_rebuild = [&](const char* label) {
        const route::anycast_rib fresh{graph_, std::vector<route::announcement>(
                                                   rib.announcements().begin(),
                                                   rib.announcements().end())};
        for (const topo::asn_t asn : rib.known_asns()) {
            for (topo::region_id region = 0; region < regions_.size(); ++region) {
                ASSERT_EQ(rib.select(asn, region), fresh.select(asn, region))
                    << label << " asn " << asn << " region " << region;
            }
        }
    };

    // Re-announcing the same key reattaches the held row: nothing propagates.
    auto rows_before = rows_propagated();
    const auto reused_before = rows_reused();
    (void)rib.announce(rib.announcements()[0]);
    EXPECT_EQ(rows_propagated() - rows_before, 0u);
    EXPECT_EQ(rows_reused() - reused_before, 1u);
    EXPECT_EQ(routes_of(rib, 0), other_routes);
    expect_matches_rebuild("re-announced");

    // A new prepend is a new key: exactly one row propagates.
    auto prepended = rib.announcements()[0];
    prepended.prepend = 2;
    rows_before = rows_propagated();
    (void)rib.announce(prepended);
    EXPECT_EQ(rows_propagated() - rows_before, 1u);
    EXPECT_EQ(routes_of(rib, 1), other_routes);
    expect_matches_rebuild("prepended");
}

// The announcements of one world's 14 RIBs: 13 letters and the CDN.
std::vector<std::vector<route::announcement>> rib_announcements(const core::world& w) {
    std::vector<std::vector<route::announcement>> out;
    for (const auto& spec : w.roots().specs()) {
        const auto& anns = w.roots().deployment_of(spec.letter).rib().announcements();
        out.emplace_back(anns.begin(), anns.end());
    }
    const auto& cdn = w.cdn_net().pop_rib().announcements();
    out.emplace_back(cdn.begin(), cdn.end());
    return out;
}

// The RIBs are rebuilt over the world's final graph: the letter RIBs
// themselves hold earlier snapshots of it, which later deployments extend.
TEST(KeyedRows, EverySiteMatchesAOneAnnouncementRib) {
    const core::world w{core::world_config::small()};
    const auto ribs = rib_announcements(w);
    ASSERT_EQ(ribs.size(), 14u);
    std::size_t checked = 0;
    for (const auto& anns : ribs) {
        const route::anycast_rib rib{w.graph(), anns};
        for (const auto& a : anns) {
            if (a.withdrawn) continue;
            auto alone = a;
            alone.site = 0;
            const route::anycast_rib oracle{w.graph(), {alone}};
            ASSERT_TRUE(same_view(rib.site_routes(a.site), oracle.site_routes(0)))
                << "origin " << a.origin_asn << " site " << a.site;
            ASSERT_EQ(routes_of(rib, a.site), routes_of(oracle, 0))
                << "origin " << a.origin_asn << " site " << a.site;
            ++checked;
        }
    }
    EXPECT_GT(checked, 100u);
}

// Whole-prefix round trip on a medium world: withdraw every site of the
// letter with the most sites one at a time, then re-announce them in the
// reverse order, so repairs both empty candidate lists and insert at every
// position. The RIB is rebuilt over the final graph, as above.
TEST(DeltaRepair, MediumWholePrefixRoundTripMatchesRebuild) {
    const core::world w{core::world_config::medium()};
    std::vector<route::announcement> largest;
    for (const auto& anns : rib_announcements(w)) {
        if (anns.size() > largest.size()) largest = anns;
    }
    ASSERT_GT(largest.size(), 50u);
    route::anycast_rib rib{w.graph(), largest};

    using view_copy = std::tuple<std::vector<std::uint8_t>, std::vector<std::uint8_t>,
                                 std::vector<std::uint32_t>, std::vector<std::uint32_t>>;
    const auto copy_of = [&](route::site_id s) {
        const auto v = rib.site_routes(s);
        return view_copy{{v.cls.begin(), v.cls.end()},
                         {v.path_len.begin(), v.path_len.end()},
                         {v.next_index.begin(), v.next_index.end()},
                         {v.link_index.begin(), v.link_index.end()}};
    };
    std::vector<view_copy> views_before;
    for (route::site_id s = 0; s < rib.site_count(); ++s) views_before.push_back(copy_of(s));

    for (const auto& a : largest) {
        (void)rib.withdraw(a.site);
        if (a.site == largest.size() / 2) {
            expect_index_matches_rebuild(rib, w.graph(), nullptr, "half withdrawn", false);
        }
    }
    EXPECT_EQ(rib.active_site_count(), 0u);
    expect_index_matches_rebuild(rib, w.graph(), nullptr, "all withdrawn", false);
    for (auto it = largest.rbegin(); it != largest.rend(); ++it) {
        if (!it->withdrawn) (void)rib.announce(*it);
    }
    expect_index_matches_rebuild(rib, w.graph(), nullptr, "re-announced", false);
    for (route::site_id s = 0; s < rib.site_count(); ++s) {
        EXPECT_TRUE(copy_of(s) == views_before[s]) << "site " << s;
    }
}

TEST(KeyedRows, SmallWorldCountsRowsOncePerKeyAtAnyThreadCount) {
    for (const int threads : {1, 4}) {
        auto config = core::world_config::small();
        config.threads = threads;
        const auto rows_before = rows_propagated();
        const auto reused_before = rows_reused();
        const core::world w{config};
        const auto rows = rows_propagated() - rows_before;
        const auto reused = rows_reused() - reused_before;

        // Independent count: distinct (origin, scope) per RIB — a fresh
        // world announces no prepend and no suppression.
        std::size_t keys = 0;
        std::size_t sites = 0;
        for (const auto& anns : rib_announcements(w)) {
            std::vector<std::pair<topo::asn_t, route::announcement_scope>> distinct;
            for (const auto& a : anns) {
                ASSERT_EQ(a.prepend, 0u);
                ASSERT_TRUE(a.suppressed_neighbors.empty());
                distinct.emplace_back(a.origin_asn, a.scope);
            }
            std::ranges::sort(distinct);
            keys += static_cast<std::size_t>(
                std::distance(distinct.begin(), std::unique(distinct.begin(), distinct.end())));
            sites += anns.size();
        }
        EXPECT_EQ(rows, keys) << "threads " << threads;
        EXPECT_EQ(reused, sites - keys) << "threads " << threads;
        EXPECT_LT(rows, sites) << "threads " << threads;
    }
}

} // namespace
