#include "src/routing/bgp.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "src/netbase/geo.h"
#include "src/netbase/rng.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace ac::route {

namespace {

/// Process-wide select-cache counters, resolved once (the registry lookup
/// takes a lock; the per-call path must stay at one relaxed add).
obs::counter& select_hit_counter() {
    static obs::counter& c = obs::registry::global().get_counter("route.select_cache.hits");
    return c;
}
obs::counter& select_miss_counter() {
    static obs::counter& c = obs::registry::global().get_counter("route.select_cache.misses");
    return c;
}
obs::counter& select_invalidation_counter() {
    static obs::counter& c =
        obs::registry::global().get_counter("route.select_cache.invalidations");
    return c;
}

/// Frozen-table counters: post-freeze lookups are accounted separately from
/// the sharded cache so serving dashboards can see the wait-free hit rate.
obs::counter& frozen_hit_counter() {
    static obs::counter& c =
        obs::registry::global().get_counter("route.select_cache.frozen_hits");
    return c;
}
obs::counter& frozen_miss_counter() {
    static obs::counter& c =
        obs::registry::global().get_counter("route.select_cache.frozen_misses");
    return c;
}
obs::counter& freeze_counter() {
    static obs::counter& c = obs::registry::global().get_counter("route.select_cache.freezes");
    return c;
}

/// Slot hash for the frozen open-addressing table. Collision quality only
/// affects probe length, never results (lookups compare full keys).
[[nodiscard]] constexpr std::uint64_t frozen_mix(std::uint64_t key) noexcept {
    std::uint64_t mix = key * 0x9e3779b97f4a7c15ULL;
    mix ^= mix >> 29;
    return mix;
}

/// Incremental re-convergence work counters (DESIGN §11): how many events
/// ran, how many per-AS index slots they recomputed, and how many cache
/// shards they had to visit.
obs::counter& reconverge_event_counter() {
    static obs::counter& c = obs::registry::global().get_counter("route.reconverge.events");
    return c;
}
obs::counter& reconverge_ases_counter() {
    static obs::counter& c =
        obs::registry::global().get_counter("route.reconverge.ases_touched");
    return c;
}
obs::counter& reconverge_shards_counter() {
    static obs::counter& c =
        obs::registry::global().get_counter("route.reconverge.cache_shards_visited");
    return c;
}

bool better(route_class cls, std::uint8_t len, route_class incumbent_cls,
            std::uint8_t incumbent_len) {
    if (cls != incumbent_cls) return cls < incumbent_cls;
    return len < incumbent_len;
}

/// Reusable propagation buffers. One instance per worker thread, reused
/// across announcements and RIBs, so propagate() performs no per-call heap
/// allocation once the buffers are warm.
struct propagate_scratch {
    std::vector<std::uint8_t> suppressed;  // flag per dense AS index
    std::vector<std::uint32_t> marks;      // set flags, cleared after each call
    std::vector<std::uint32_t> frontier;   // phase-1 BFS queue (head walks it)
    struct pending_route {
        std::uint32_t index = 0;
        std::uint8_t len = 0;
        std::uint32_t next = 0;
        std::uint32_t link = 0;
    };
    std::vector<pending_route> pending;    // phase-2 staging
    std::vector<std::pair<std::uint8_t, std::uint32_t>> heap;  // phase-3 (len, index)
};

propagate_scratch& local_scratch(std::size_t as_count) {
    static thread_local propagate_scratch sc;
    if (sc.suppressed.size() < as_count) sc.suppressed.resize(as_count, 0);
    // Defensive: if a previous call unwound mid-propagation, clear its marks.
    for (const std::uint32_t i : sc.marks) sc.suppressed[i] = 0;
    sc.marks.clear();
    return sc;
}

} // namespace

anycast_rib::anycast_rib(const topo::as_graph& graph, std::vector<announcement> announcements,
                         engine::thread_pool* pool)
    : graph_(&graph), regions_(&graph.regions()), announcements_(std::move(announcements)) {
    asns_.reserve(graph.as_count());
    for (const auto& as : graph.all()) asns_.push_back(as.asn);
    as_count_ = asns_.size();
    link_count_ = graph.link_count();

    const std::size_t cells = announcements_.size() * as_count_;
    cls_.assign(cells, static_cast<std::uint8_t>(route_class::none));
    len_.assign(cells, 0);
    next_idx_.assign(cells, no_next_hop);
    link_.assign(cells, 0);

    bool unique_sites = true;
    std::vector<std::uint8_t> seen(announcements_.size(), 0);
    withdrawn_.assign(announcements_.size(), 0);
    for (const auto& a : announcements_) {
        if (!graph.has_as(a.origin_asn)) {
            throw std::invalid_argument("anycast_rib: announcement from unknown ASN");
        }
        if (a.site >= announcements_.size()) {
            throw std::invalid_argument("anycast_rib: site ids must be dense [0, n)");
        }
        if (seen[a.site]) unique_sites = false;
        seen[a.site] = 1;
        if (a.withdrawn) withdrawn_[a.site] = 1;
    }
    // Each site's propagation writes only its own matrix row, so sites are
    // independent work items — unless two announcements share a site id, in
    // which case only the serial order is well-defined. Per-site work is
    // heavy (a full graph traversal), so grain 1 keeps full fan-out despite
    // the pool's inline threshold for small auto-grain ranges.
    {
        obs::span propagation_span{"bgp/propagate_all"};
        propagation_span.set_items(announcements_.size());
        if (unique_sites) {
            engine::parallel_over(
                pool, announcements_.size(),
                [this](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                        if (!announcements_[i].withdrawn) propagate(announcements_[i]);
                    }
                },
                /*grain=*/1);
        } else {
            for (const auto& a : announcements_) {
                if (!a.withdrawn) propagate(a);
            }
        }
    }

    {
        obs::span index_span{"bgp/build_fast_path"};
        index_span.set_items(as_count_);
        build_fast_path(pool);
    }
}

void anycast_rib::propagate(const announcement& a) {
    obs::span propagate_span{"bgp/propagate_site"};
    propagate_span.set_items(as_count_);
    propagate_scratch& sc = local_scratch(as_count_);
    const std::size_t base = static_cast<std::size_t>(a.site) * as_count_;
    const std::size_t origin = graph_->dense_index(a.origin_asn);

    const auto cls_at = [&](std::size_t i) { return static_cast<route_class>(cls_[base + i]); };
    const auto is_better = [&](route_class c, std::uint8_t l, std::size_t i) {
        return better(c, l, cls_at(i), len_[base + i]);
    };
    const auto set = [&](std::size_t i, route_class c, std::uint8_t l, std::uint32_t next,
                         std::uint32_t link) {
        cls_[base + i] = static_cast<std::uint8_t>(c);
        len_[base + i] = l;
        next_idx_[base + i] = next;
        link_[base + i] = link;
    };

    // Guard for announce() after the underlying graph grew (later deployments
    // attach host networks): neighbors/links beyond this RIB's construction
    // snapshot do not exist in the matrix and must be skipped. At build time
    // every index is in range, so these tests never fire then.
    const auto in_snapshot = [&](const auto& nb) {
        return nb.neighbor_index < as_count_ && nb.link_index < link_count_;
    };

    // AS-path prepending seeds the origin row longer; every propagated length
    // below is relative to it, so the whole tree inherits the penalty.
    const auto origin_len = static_cast<std::uint8_t>(1 + a.prepend);
    set(origin, route_class::origin, origin_len, no_next_hop, 0);

    for (const topo::asn_t s : a.suppressed_neighbors) {
        const std::size_t i = graph_->find_index(s);
        if (i == topo::as_graph::npos || i >= as_count_) continue;
        if (!sc.suppressed[i]) {
            sc.suppressed[i] = 1;
            sc.marks.push_back(static_cast<std::uint32_t>(i));
        }
    }

    if (a.scope == announcement_scope::local) {
        // Local sites: announced to direct neighbors with no re-export.
        for (const auto& nb : graph_->neighbors_at(origin)) {
            if (!in_snapshot(nb)) continue;
            if (sc.suppressed[nb.neighbor_index]) continue;
            // Relationship seen from the *neighbor*: it learned the route
            // from `origin`, which is its customer/peer/provider.
            const route_class cls = [&] {
                switch (nb.relationship) {
                    // nb.relationship is from origin's perspective.
                    case topo::as_relationship::provider: return route_class::customer;
                    case topo::as_relationship::customer: return route_class::provider;
                    case topo::as_relationship::peer: return route_class::peer;
                }
                return route_class::none;
            }();
            const auto len = static_cast<std::uint8_t>(origin_len + 1);
            if (is_better(cls, len, nb.neighbor_index)) {
                set(nb.neighbor_index, cls, len, static_cast<std::uint32_t>(origin),
                    nb.link_index);
            }
        }
        for (const std::uint32_t i : sc.marks) sc.suppressed[i] = 0;
        sc.marks.clear();
        return;
    }

    // Phase 1: customer routes climb provider links (origin -> its providers
    // -> their providers ...). BFS by path length.
    {
        sc.frontier.clear();
        sc.frontier.push_back(static_cast<std::uint32_t>(origin));
        for (std::size_t head = 0; head < sc.frontier.size(); ++head) {
            const std::size_t cur = sc.frontier[head];
            const auto cur_len = len_[base + cur];
            for (const auto& nb : graph_->neighbors_at(cur)) {
                if (nb.relationship != topo::as_relationship::provider) continue;
                if (!in_snapshot(nb)) continue;
                if (cur == origin && sc.suppressed[nb.neighbor_index]) continue;
                const std::size_t i = nb.neighbor_index;
                const auto len = static_cast<std::uint8_t>(cur_len + 1);
                if (is_better(route_class::customer, len, i)) {
                    set(i, route_class::customer, len, static_cast<std::uint32_t>(cur),
                        nb.link_index);
                    sc.frontier.push_back(nb.neighbor_index);
                }
            }
        }
    }

    // Phase 2: one peer hop from any AS holding an origin/customer route.
    // Peer routes are not re-exported to peers or providers.
    {
        sc.pending.clear();
        for (std::size_t cur = 0; cur < as_count_; ++cur) {
            if (cls_at(cur) != route_class::origin && cls_at(cur) != route_class::customer) {
                continue;
            }
            for (const auto& nb : graph_->neighbors_at(cur)) {
                if (nb.relationship != topo::as_relationship::peer) continue;
                if (!in_snapshot(nb)) continue;
                if (cur == origin && sc.suppressed[nb.neighbor_index]) continue;
                const auto len = static_cast<std::uint8_t>(len_[base + cur] + 1);
                sc.pending.push_back(propagate_scratch::pending_route{
                    nb.neighbor_index, len, static_cast<std::uint32_t>(cur), nb.link_index});
            }
        }
        for (const auto& p : sc.pending) {
            if (is_better(route_class::peer, p.len, p.index)) {
                set(p.index, route_class::peer, p.len, p.next, p.link);
            }
        }
    }

    // Phase 3: provider routes descend customer links from any AS holding a
    // route. Dijkstra-style because lengths must stay minimal per class.
    // The scratch heap replays std::priority_queue's push/pop sequence
    // exactly, so pop order (and thus tie resolution) is unchanged.
    {
        sc.heap.clear();
        const auto heap_push = [&](std::uint8_t len, std::uint32_t index) {
            sc.heap.emplace_back(len, index);
            std::push_heap(sc.heap.begin(), sc.heap.end(), std::greater<>{});
        };
        for (std::size_t cur = 0; cur < as_count_; ++cur) {
            if (cls_at(cur) == route_class::none) continue;
            heap_push(static_cast<std::uint8_t>(len_[base + cur] + 1),
                      static_cast<std::uint32_t>(cur));
        }
        while (!sc.heap.empty()) {
            std::pop_heap(sc.heap.begin(), sc.heap.end(), std::greater<>{});
            const auto [len, cur] = sc.heap.back();
            sc.heap.pop_back();
            if (static_cast<std::uint8_t>(len_[base + cur] + 1) != len) continue;  // stale
            for (const auto& nb : graph_->neighbors_at(cur)) {
                if (nb.relationship != topo::as_relationship::customer) continue;
                if (!in_snapshot(nb)) continue;
                if (cur == origin && sc.suppressed[nb.neighbor_index]) continue;
                if (is_better(route_class::provider, len, nb.neighbor_index)) {
                    set(nb.neighbor_index, route_class::provider, len, cur, nb.link_index);
                    heap_push(static_cast<std::uint8_t>(len + 1), nb.neighbor_index);
                }
            }
        }
    }

    for (const std::uint32_t i : sc.marks) sc.suppressed[i] = 0;
    sc.marks.clear();
}

void anycast_rib::build_fast_path(engine::thread_pool* pool) {
    const std::size_t sites = announcements_.size();
    best_cls_.assign(as_count_, static_cast<std::uint8_t>(route_class::none));
    best_len_.assign(as_count_, std::numeric_limits<std::uint8_t>::max());
    direct_.assign(as_count_, 0);
    cand_begin_.assign(as_count_ + 1, 0);
    std::vector<std::uint32_t> counts(as_count_, 0);

    // Pass A: per-AS best (class, length), direct flag, candidate count.
    engine::parallel_over(pool, as_count_, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            route_class best = route_class::none;
            std::uint8_t best_len = std::numeric_limits<std::uint8_t>::max();
            std::uint8_t direct = 0;
            for (std::size_t s = 0; s < sites; ++s) {
                const auto c = static_cast<route_class>(cls_[cell(static_cast<site_id>(s), i)]);
                if (c == route_class::none) continue;
                const std::uint8_t l = len_[cell(static_cast<site_id>(s), i)];
                if (l <= 2) direct = 1;
                if (c < best || (c == best && l < best_len)) {
                    best = c;
                    best_len = l;
                }
            }
            std::uint32_t count = 0;
            if (best != route_class::none) {
                for (std::size_t s = 0; s < sites; ++s) {
                    const std::size_t c = cell(static_cast<site_id>(s), i);
                    if (static_cast<route_class>(cls_[c]) == best && len_[c] == best_len) {
                        ++count;
                    }
                }
            }
            best_cls_[i] = static_cast<std::uint8_t>(best);
            best_len_[i] = best_len;
            direct_[i] = direct;
            counts[i] = count;
        }
    });

    for (std::size_t i = 0; i < as_count_; ++i) cand_begin_[i + 1] = cand_begin_[i] + counts[i];
    cand_sites_.resize(cand_begin_[as_count_]);

    // Pass B: fill CSR candidate lists (sites ascending, as the pre-index
    // best_candidates scan produced them).
    engine::parallel_over(pool, as_count_, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const auto best = static_cast<route_class>(best_cls_[i]);
            if (best == route_class::none) continue;
            std::uint32_t k = cand_begin_[i];
            for (std::size_t s = 0; s < sites; ++s) {
                const std::size_t c = cell(static_cast<site_id>(s), i);
                if (static_cast<route_class>(cls_[c]) == best && len_[c] == best_len_[i]) {
                    cand_sites_[k++] = static_cast<site_id>(s);
                }
            }
        }
    });
}

std::vector<site_id> anycast_rib::best_candidates(topo::asn_t asn) const {
    std::shared_lock lock{topo_mutex_};
    const auto span = candidate_span(as_index(asn));
    return std::vector<site_id>(span.begin(), span.end());
}

std::optional<site_route> anycast_rib::route_toward(topo::asn_t asn, site_id site) const {
    std::shared_lock lock{topo_mutex_};
    if (site >= announcements_.size()) {
        throw std::out_of_range("anycast_rib: unknown site");
    }
    const std::size_t c = cell(site, as_index(asn));
    if (static_cast<route_class>(cls_[c]) == route_class::none) return std::nullopt;
    site_route r;
    r.cls = static_cast<route_class>(cls_[c]);
    r.path_len = len_[c];
    r.next_hop = next_idx_[c] == no_next_hop ? 0 : asns_[next_idx_[c]];
    r.link_index = link_[c];
    return r;
}

anycast_rib::site_route_view anycast_rib::site_routes(site_id site) const {
    std::shared_lock lock{topo_mutex_};
    if (site >= announcements_.size()) {
        throw std::out_of_range("anycast_rib: unknown site");
    }
    const std::size_t base = cell(site, 0);
    return site_route_view{
        std::span<const std::uint8_t>{cls_}.subspan(base, as_count_),
        std::span<const std::uint8_t>{len_}.subspan(base, as_count_),
        std::span<const std::uint32_t>{next_idx_}.subspan(base, as_count_),
        std::span<const std::uint32_t>{link_}.subspan(base, as_count_),
    };
}

std::optional<path_result> anycast_rib::evaluate(topo::asn_t asn, topo::region_id region,
                                                 site_id site) const {
    std::shared_lock lock{topo_mutex_};
    if (site >= announcements_.size()) {
        throw std::out_of_range("anycast_rib: unknown site");
    }
    return evaluate_indexed(as_index(asn), asn, region, site);
}

std::optional<path_result> anycast_rib::evaluate_indexed(std::size_t as, topo::asn_t asn,
                                                         topo::region_id region,
                                                         site_id site) const {
    std::size_t cur = as;
    if (static_cast<route_class>(cls_[cell(site, cur)]) == route_class::none) {
        return std::nullopt;
    }
    (void)regions_->at(region);  // bounds check, as the pre-table code had

    const auto& a = announcements_[site];
    path_result result;
    result.site = site;
    result.direct_km = regions_->distance_km(region, a.origin_region);

    topo::region_id here = region;
    double weighted_km = 0.0;  // distance already scaled by circuitousness
    int hops = 0;

    while (static_cast<route_class>(cls_[cell(site, cur)]) != route_class::origin) {
        result.as_path.push_back(asns_[cur]);
        const std::uint32_t l = link_[cell(site, cur)];
        // Early exit: cross to the next AS at the interconnection point
        // nearest our current position (precomputed per link by the graph).
        const topo::region_id best_region = graph_->nearest_interconnect(l, here);
        const double best_km = regions_->distance_km(here, best_region);
        result.path_km += best_km;
        weighted_km += best_km * graph_->link(l).circuitousness;
        here = best_region;
        ++hops;
        cur = next_idx_[cell(site, cur)];
    }
    result.as_path.push_back(asns_[cur]);

    // Final intra-origin segment to the site itself.
    const double tail_km = regions_->distance_km(here, a.origin_region);
    result.path_km += tail_km;
    weighted_km += tail_km * 1.2;

    const auto& source_as = graph_->at_index(as);
    double rtt = geo::round_trip_fiber_ms(weighted_km);
    rtt += source_as.last_mile_ms;
    rtt += per_hop_overhead_ms * static_cast<double>(hops + 1);
    // Small deterministic steady-state jitter keyed by (source, site): two
    // different <region, AS> sources never see byte-identical medians.
    rand::rng jitter{rand::mix_seed(0x777ee1ULL, (std::uint64_t{asn} << 20) ^ region,
                                    (std::uint64_t{a.origin_asn} << 16) ^ site)};
    rtt *= std::exp(jitter.normal(0.0, rtt_jitter_sigma));
    result.rtt_ms = rtt;
    return result;
}

std::optional<path_result> anycast_rib::select_indexed(std::size_t as, topo::asn_t asn,
                                                       topo::region_id region) const {
    const auto candidates = candidate_span(as);
    // Hot potato: among BGP-equal candidates, pick the one whose first
    // egress/interconnect is nearest the source region (lowest IGP cost).
    (void)regions_->at(region);  // bounds check, as the pre-table code had
    site_id best_site = candidates.front();
    double best_first_km = std::numeric_limits<double>::infinity();
    for (const site_id s : candidates) {
        const std::size_t c = cell(s, as);
        double first_km = 0.0;
        if (static_cast<route_class>(cls_[c]) == route_class::origin) {
            first_km = regions_->distance_km(region, announcements_[s].origin_region);
        } else {
            const std::uint32_t l = link_[c];
            first_km = regions_->distance_km(region, graph_->nearest_interconnect(l, region));
            // Among several direct routes into the origin AS, BGP then falls
            // to nearest egress; collocated sites make the egress also the
            // nearest site (§7.1). Approximate by adding the origin-internal
            // distance from that egress to the site.
            const topo::region_id site_region = announcements_[s].origin_region;
            const topo::region_id nearest_to_site = graph_->nearest_interconnect(l, site_region);
            const double egress_to_site = regions_->distance_km(nearest_to_site, site_region);
            first_km += 0.25 * egress_to_site;  // IGP cost beyond the edge is discounted
        }
        if (first_km < best_first_km) {
            best_first_km = first_km;
            best_site = s;
        }
    }
    return evaluate_indexed(as, asn, region, best_site);
}

std::optional<path_result> anycast_rib::select(topo::asn_t asn, topo::region_id region) const {
    // Wait-free fast path first: a sealed key is answered straight from the
    // frozen table — no shard mutex, no topo gate. Keys that were never
    // warmed (or an unfrozen RIB) fall through to the locked path below.
    if (const auto* sealed = select_frozen(asn, region)) {
        return *sealed;
    }
    if (frozen_.load(std::memory_order_acquire) != nullptr) {
        frozen_misses_.fetch_add(1, std::memory_order_relaxed);
        frozen_miss_counter().add(1);
    }

    // Shared (reader) side of the topology gate: any number of selects run
    // concurrently; announce/withdraw take the exclusive side, so a select
    // never observes a half-reconverged matrix. Lock order is topo gate →
    // cache shard, matching invalidate_cache under the writer.
    std::shared_lock lock{topo_mutex_};
    const std::size_t as = as_index(asn);
    if (candidate_span(as).empty()) return std::nullopt;

    const std::uint64_t key = (std::uint64_t{asn} << 32) | region;
    cache_shard& shard = cache_shards_[shard_of(asn)];
    {
        std::lock_guard lock{shard.mutex};
        if (const auto it = shard.entries.find(key); it != shard.entries.end()) {
            cache_hits_.fetch_add(1, std::memory_order_relaxed);
            select_hit_counter().add(1);
            return it->second;
        }
    }
    // Compute outside the lock: a racing thread may duplicate the work, but
    // selection is pure, so both compute identical bytes and the first
    // emplace wins — the cache never changes an output.
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    select_miss_counter().add(1);
    auto result = select_indexed(as, asn, region);
    {
        std::lock_guard lock{shard.mutex};
        shard.entries.emplace(key, result);
    }
    return result;
}

const std::optional<path_result>* anycast_rib::select_frozen(
    topo::asn_t asn, topo::region_id region) const noexcept {
    const frozen_cache* f = frozen_.load(std::memory_order_acquire);
    if (f == nullptr) return nullptr;
    const std::uint64_t key = (std::uint64_t{asn} << 32) | region;
    std::uint64_t slot = frozen_mix(key) & f->mask;
    while (f->occupied[slot] != 0) {
        if (f->keys[slot] == key) {
            frozen_hits_.fetch_add(1, std::memory_order_relaxed);
            frozen_hit_counter().add(1);
            return &f->values[slot];
        }
        slot = (slot + 1) & f->mask;
    }
    return nullptr;
}

std::size_t anycast_rib::freeze_select_cache() {
    obs::span freeze_span{"bgp/freeze_select_cache"};
    // Writer on the topo gate: no select can be mid-fill while the shards
    // are walked, and re-freezing retires the previously published table.
    std::unique_lock lock{topo_mutex_};
    unpublish_frozen();

    std::size_t entries = 0;
    for (auto& shard : cache_shards_) {
        std::lock_guard shard_lock{shard.mutex};
        entries += shard.entries.size();
    }
    auto table = std::make_unique<frozen_cache>();
    std::uint64_t capacity = 1;
    while (capacity < entries * 2 + 1) capacity <<= 1;
    table->keys.assign(capacity, 0);
    table->occupied.assign(capacity, 0);
    table->values.assign(capacity, std::nullopt);
    table->mask = capacity - 1;
    for (auto& shard : cache_shards_) {
        std::lock_guard shard_lock{shard.mutex};
        for (const auto& [key, value] : shard.entries) {
            std::uint64_t slot = frozen_mix(key) & table->mask;
            while (table->occupied[slot] != 0) slot = (slot + 1) & table->mask;
            table->keys[slot] = key;
            table->values[slot] = value;
            table->occupied[slot] = 1;
        }
    }
    const frozen_cache* published = table.get();
    retired_frozen_.push_back(std::move(table));
    frozen_.store(published, std::memory_order_release);
    freeze_counter().add(1);
    freeze_span.set_items(entries);
    return entries;
}

void anycast_rib::unpublish_frozen() {
    // The table stays owned by retired_frozen_ so in-flight wait-free
    // probes (which never take the topo gate) can finish against it.
    frozen_.store(nullptr, std::memory_order_release);
}

std::optional<path_result> anycast_rib::select_uncached(topo::asn_t asn,
                                                        topo::region_id region) const {
    std::shared_lock lock{topo_mutex_};
    const std::size_t as = as_index(asn);
    if (candidate_span(as).empty()) return std::nullopt;
    return select_indexed(as, asn, region);
}

std::optional<path_result> anycast_rib::select_reference(topo::asn_t asn,
                                                         topo::region_id region) const {
    std::shared_lock lock{topo_mutex_};
    // Pre-index candidate scan: walk every site's route row for this AS.
    const std::size_t i = as_index(asn);
    route_class best_cls = route_class::none;
    std::uint8_t best_len = std::numeric_limits<std::uint8_t>::max();
    for (std::size_t s = 0; s < announcements_.size(); ++s) {
        const std::size_t c = cell(static_cast<site_id>(s), i);
        const auto cls = static_cast<route_class>(cls_[c]);
        if (cls == route_class::none) continue;
        if (cls < best_cls || (cls == best_cls && len_[c] < best_len)) {
            best_cls = cls;
            best_len = len_[c];
        }
    }
    if (best_cls == route_class::none) return std::nullopt;
    std::vector<site_id> candidates;
    for (std::size_t s = 0; s < announcements_.size(); ++s) {
        const std::size_t c = cell(static_cast<site_id>(s), i);
        if (static_cast<route_class>(cls_[c]) == best_cls && len_[c] == best_len) {
            candidates.push_back(static_cast<site_id>(s));
        }
    }

    // Pre-table hot potato: on-the-fly haversine over interconnect points.
    const geo::point source_loc = regions_->at(region).location;
    site_id best_site = candidates.front();
    double best_first_km = std::numeric_limits<double>::infinity();
    for (const site_id s : candidates) {
        const std::size_t c = cell(s, i);
        double first_km = 0.0;
        if (static_cast<route_class>(cls_[c]) == route_class::origin) {
            first_km = geo::distance_km(
                source_loc, regions_->at(announcements_[s].origin_region).location);
        } else {
            const auto& link = graph_->link(link_[c]);
            first_km = std::numeric_limits<double>::infinity();
            for (const topo::region_id p : link.interconnect_regions) {
                first_km =
                    std::min(first_km, geo::distance_km(source_loc, regions_->at(p).location));
            }
            const auto& site_loc = regions_->at(announcements_[s].origin_region).location;
            double egress_to_site = std::numeric_limits<double>::infinity();
            for (const topo::region_id p : link.interconnect_regions) {
                egress_to_site = std::min(
                    egress_to_site, geo::distance_km(regions_->at(p).location, site_loc));
            }
            first_km += 0.25 * egress_to_site;
        }
        if (first_km < best_first_km) {
            best_first_km = first_km;
            best_site = s;
        }
    }
    return evaluate_indexed(i, asn, region, best_site);
}

std::vector<std::optional<path_result>> anycast_rib::select_many(
    std::span<const source_key> sources, engine::thread_pool* pool) const {
    obs::span many_span{"bgp/select_many"};
    many_span.set_items(sources.size());
    std::vector<std::optional<path_result>> out(sources.size());
    engine::parallel_over(pool, sources.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            out[i] = select(sources[i].asn, sources[i].region);
        }
    });
    return out;
}

bool anycast_rib::has_direct_route(topo::asn_t asn) const {
    std::shared_lock lock{topo_mutex_};
    return direct_[as_index(asn)] != 0;
}

std::size_t anycast_rib::as_index(topo::asn_t asn) const {
    const std::size_t i = graph_->find_index(asn);
    if (i == topo::as_graph::npos || i >= as_count_) {
        throw std::out_of_range("anycast_rib: unknown ASN");
    }
    return i;
}

// ---------------------------------------------------------------------------
// Mutation: per-source withdraw/announce with incremental re-convergence.
// ---------------------------------------------------------------------------

anycast_rib::reconverge_stats anycast_rib::withdraw(site_id site) {
    obs::span event_span{"bgp/withdraw"};
    reconverge_stats stats;
    std::unique_lock lock{topo_mutex_};
    unpublish_frozen();
    if (site >= announcements_.size()) {
        throw std::out_of_range("anycast_rib: unknown site");
    }
    if (withdrawn_[site]) return stats;  // idempotent: already out of the RIB

    // A site's routes live in exactly one matrix row, so a withdrawal never
    // needs re-propagation: clearing the row and repairing the per-AS index
    // for the ASes that held a route to it is the complete fix.
    std::vector<std::uint8_t> touched(as_count_, 0);
    clear_row(site, touched);
    withdrawn_[site] = 1;
    announcements_[site].withdrawn = true;
    reconverge_touched(touched, stats);
    event_span.set_items(stats.ases_touched);
    return stats;
}

anycast_rib::reconverge_stats anycast_rib::announce(announcement a) {
    obs::span event_span{"bgp/announce"};
    reconverge_stats stats;
    std::unique_lock lock{topo_mutex_};
    unpublish_frozen();
    const std::size_t origin = graph_->find_index(a.origin_asn);
    if (origin == topo::as_graph::npos || origin >= as_count_) {
        throw std::invalid_argument("anycast_rib: announcement from unknown ASN");
    }
    if (a.site > announcements_.size()) {
        throw std::invalid_argument("anycast_rib: site ids must be dense [0, n)");
    }
    a.withdrawn = false;

    std::vector<std::uint8_t> touched(as_count_, 0);
    if (a.site == announcements_.size()) {
        // New site: append a fresh matrix row.
        cls_.resize(cls_.size() + as_count_, static_cast<std::uint8_t>(route_class::none));
        len_.resize(len_.size() + as_count_, 0);
        next_idx_.resize(next_idx_.size() + as_count_, no_next_hop);
        link_.resize(link_.size() + as_count_, 0);
        announcements_.push_back(a);
        withdrawn_.push_back(0);
    } else {
        // Re-announce (possibly with new parameters): the old row's routes
        // are stale either way, so clear first and re-propagate from scratch.
        clear_row(a.site, touched);
        announcements_[a.site] = a;
        withdrawn_[a.site] = 0;
    }
    propagate(announcements_[a.site]);

    // Everything the new row reached joins the touched frontier.
    const std::size_t base = cell(a.site, 0);
    for (std::size_t i = 0; i < as_count_; ++i) {
        if (static_cast<route_class>(cls_[base + i]) != route_class::none) touched[i] = 1;
    }
    reconverge_touched(touched, stats);
    event_span.set_items(stats.ases_touched);
    return stats;
}

bool anycast_rib::is_withdrawn(site_id site) const {
    std::shared_lock lock{topo_mutex_};
    if (site >= announcements_.size()) {
        throw std::out_of_range("anycast_rib: unknown site");
    }
    return withdrawn_[site] != 0;
}

std::size_t anycast_rib::active_site_count() const {
    std::shared_lock lock{topo_mutex_};
    std::size_t n = 0;
    for (const std::uint8_t w : withdrawn_) n += (w == 0);
    return n;
}

void anycast_rib::clear_row(site_id site, std::vector<std::uint8_t>& touched) {
    const std::size_t base = cell(site, 0);
    for (std::size_t i = 0; i < as_count_; ++i) {
        if (static_cast<route_class>(cls_[base + i]) == route_class::none) continue;
        touched[i] = 1;
        cls_[base + i] = static_cast<std::uint8_t>(route_class::none);
        len_[base + i] = 0;
        next_idx_[base + i] = no_next_hop;
        link_[base + i] = 0;
    }
}

void anycast_rib::recompute_as_index(std::size_t as) {
    // Same scan order and comparisons as build_fast_path passes A and B, so
    // the recomputed candidate list is byte-identical to a full rebuild's.
    const std::size_t sites = announcements_.size();
    route_class best = route_class::none;
    std::uint8_t best_len = std::numeric_limits<std::uint8_t>::max();
    std::uint8_t direct = 0;
    for (std::size_t s = 0; s < sites; ++s) {
        const auto c = static_cast<route_class>(cls_[cell(static_cast<site_id>(s), as)]);
        if (c == route_class::none) continue;
        const std::uint8_t l = len_[cell(static_cast<site_id>(s), as)];
        if (l <= 2) direct = 1;
        if (c < best || (c == best && l < best_len)) {
            best = c;
            best_len = l;
        }
    }
    best_cls_[as] = static_cast<std::uint8_t>(best);
    best_len_[as] = best_len;
    direct_[as] = direct;

    overlay_[as].clear();
    overlaid_[as] = 1;
    if (best == route_class::none) return;
    for (std::size_t s = 0; s < sites; ++s) {
        const std::size_t c = cell(static_cast<site_id>(s), as);
        if (static_cast<route_class>(cls_[c]) == best && len_[c] == best_len) {
            overlay_[as].push_back(static_cast<site_id>(s));
        }
    }
}

void anycast_rib::clear_select_cache() {
    // Writer on the topo gate so no select can be filling a shard while it
    // drops (same lock order as invalidate_cache: topo gate, then shard).
    std::unique_lock lock{topo_mutex_};
    unpublish_frozen();
    for (auto& shard : cache_shards_) {
        std::lock_guard shard_lock{shard.mutex};
        shard.entries.clear();
    }
}

std::pair<std::size_t, std::size_t> anycast_rib::invalidate_cache(
    const std::vector<std::uint8_t>& touched) {
    static_assert(cache_shard_count == 64, "dirty mask below is a uint64");
    std::uint64_t dirty = 0;
    for (std::size_t i = 0; i < as_count_; ++i) {
        if (touched[i]) dirty |= std::uint64_t{1} << shard_of(asns_[i]);
    }
    std::size_t erased = 0;
    std::size_t visited = 0;
    for (std::size_t s = 0; s < cache_shard_count; ++s) {
        if (((dirty >> s) & 1) == 0) continue;
        ++visited;
        std::lock_guard shard_lock{cache_shards_[s].mutex};
        erased += std::erase_if(cache_shards_[s].entries, [&](const auto& kv) {
            const auto asn = static_cast<topo::asn_t>(kv.first >> 32);
            const std::size_t i = graph_->find_index(asn);
            return i != topo::as_graph::npos && i < as_count_ && touched[i] != 0;
        });
    }
    return {erased, visited};
}

void anycast_rib::reconverge_touched(const std::vector<std::uint8_t>& touched,
                                     reconverge_stats& out) {
    obs::span reconverge_span{"bgp/reconverge"};
    if (overlaid_.empty()) {
        // First mutation on this RIB: activate the overlay layer. The CSR
        // arrays stay frozen as the pristine-AS fallback.
        overlaid_.assign(as_count_, 0);
        overlay_.resize(as_count_);
    }
    for (std::size_t i = 0; i < as_count_; ++i) {
        if (!touched[i]) continue;
        recompute_as_index(i);
        ++out.ases_touched;
    }
    const auto [erased, visited] = invalidate_cache(touched);
    out.cache_entries_invalidated = erased;
    out.cache_shards_visited = visited;
    cache_invalidations_.fetch_add(erased, std::memory_order_relaxed);

    reconverge_span.set_items(out.ases_touched);
    reconverge_event_counter().add(1);
    reconverge_ases_counter().add(out.ases_touched);
    reconverge_shards_counter().add(visited);
    select_invalidation_counter().add(erased);
}

} // namespace ac::route
