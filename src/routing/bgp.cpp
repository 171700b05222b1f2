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

/// Sealed-memo counters: post-freeze lookups are accounted separately so
/// serving dashboards can see the lock-free hit rate.
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

/// Incremental re-convergence work counters (DESIGN §11): how many events
/// ran, how many per-AS index slots they repaired, how many of those fell
/// back to a full rescan, and how many cache shards they had to visit.
obs::counter& reconverge_event_counter() {
    static obs::counter& c = obs::registry::global().get_counter("route.reconverge.events");
    return c;
}
obs::counter& reconverge_ases_counter() {
    static obs::counter& c =
        obs::registry::global().get_counter("route.reconverge.ases_touched");
    return c;
}
obs::counter& reconverge_rescans_counter() {
    static obs::counter& c = obs::registry::global().get_counter("route.reconverge.rescans");
    return c;
}
obs::counter& reconverge_shards_counter() {
    static obs::counter& c =
        obs::registry::global().get_counter("route.reconverge.cache_shards_visited");
    return c;
}

/// Keyed-row counters (DESIGN §8): rows propagated, and site attachments
/// (construction or announce) that found their key's row already present.
obs::counter& rows_counter() {
    static obs::counter& c = obs::registry::global().get_counter("route.propagate.rows");
    return c;
}
obs::counter& rows_reused_counter() {
    static obs::counter& c =
        obs::registry::global().get_counter("route.propagate.rows_reused");
    return c;
}

bool better(route_class cls, std::uint8_t len, route_class incumbent_cls,
            std::uint8_t incumbent_len) {
    if (cls != incumbent_cls) return cls < incumbent_cls;
    return len < incumbent_len;
}

/// Reusable propagation buffers. One instance per worker thread, reused
/// across rows and RIBs, so propagate() performs no per-call heap
/// allocation once the buffers are warm.
struct propagate_scratch {
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

propagate_scratch& local_scratch() {
    static thread_local propagate_scratch sc;
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

    // Distinct keys in site order: the first site with a key gives it a row,
    // later sites with the same key attach to that row.
    std::vector<std::uint32_t> fresh;  // rows to propagate
    site_row_.reserve(announcements_.size());
    for (std::size_t i = 0; i < announcements_.size(); ++i) {
        if (!graph.has_as(announcements_[i].origin_asn)) {
            throw std::invalid_argument("anycast_rib: announcement from unknown ASN");
        }
        if (announcements_[i].site != i) {
            throw std::invalid_argument("anycast_rib: site ids must be dense [0, n), in order");
        }
        site_row_.push_back(attach(key_of(announcements_[i]), &fresh));
    }
    size_rows();
    // Each key's propagation writes only its own matrix row, so keys are
    // independent work items. Per-key work is heavy (a full graph
    // traversal), so grain 1 keeps full fan-out despite the pool's inline
    // threshold for small auto-grain ranges.
    {
        obs::span propagation_span{"bgp/propagate_all"};
        propagation_span.set_items(fresh.size());
        engine::parallel_over(
            pool, fresh.size(),
            [&](std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) propagate(fresh[i]);
            },
            /*grain=*/1);
    }

    {
        obs::span index_span{"bgp/build_fast_path"};
        index_span.set_items(as_count_);
        build_fast_path(pool);
    }
}

anycast_rib::row_key anycast_rib::key_of(const announcement& a) const {
    row_key key;
    if (a.withdrawn) return key;
    key.origin = static_cast<std::uint32_t>(graph_->dense_index(a.origin_asn));
    key.scope = a.scope;
    key.prepend = a.prepend;
    // An ASN propagation would skip (unknown, or attached after the
    // snapshot) never splits a key.
    for (const topo::asn_t s : a.suppressed_neighbors) {
        const std::size_t i = graph_->find_index(s);
        if (i != topo::as_graph::npos && i < as_count_) {
            key.suppressed.push_back(static_cast<std::uint32_t>(i));
        }
    }
    std::sort(key.suppressed.begin(), key.suppressed.end());
    key.suppressed.erase(std::unique(key.suppressed.begin(), key.suppressed.end()),
                         key.suppressed.end());
    return key;
}

std::uint32_t anycast_rib::attach(row_key key, std::vector<std::uint32_t>* deferred) {
    const bool routed = key.origin != no_next_hop;
    const auto found = std::find(row_keys_.begin(), row_keys_.end(), key);
    const auto row = static_cast<std::uint32_t>(found - row_keys_.begin());
    if (found != row_keys_.end()) {
        if (routed) rows_reused_counter().add(1);
        return row;
    }
    row_keys_.push_back(std::move(key));
    if (deferred != nullptr) {
        if (routed) deferred->push_back(row);
        return row;
    }
    size_rows();
    if (routed) propagate(row);
    return row;
}

void anycast_rib::size_rows() {
    const std::size_t cells = row_keys_.size() * as_count_;
    cls_.resize(cells, static_cast<std::uint8_t>(route_class::none));
    len_.resize(cells, 0);
    next_idx_.resize(cells, no_next_hop);
    link_.resize(cells, 0);
}

void anycast_rib::propagate(std::uint32_t row) {
    obs::span propagate_span{"bgp/propagate_site"};
    propagate_span.set_items(as_count_);
    rows_counter().add(1);
    propagate_scratch& sc = local_scratch();
    const row_key& a = row_keys_[row];
    const std::size_t base = static_cast<std::size_t>(row) * as_count_;
    const std::size_t origin = a.origin;

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

    // Suppression only filters the origin's own neighbors.
    const auto suppressed = [&](std::uint32_t i) {
        return std::binary_search(a.suppressed.begin(), a.suppressed.end(), i);
    };

    if (a.scope == announcement_scope::local) {
        // Local sites: announced to direct neighbors with no re-export.
        for (const auto& nb : graph_->neighbors_at(origin)) {
            if (!in_snapshot(nb)) continue;
            if (suppressed(nb.neighbor_index)) continue;
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
                if (cur == origin && suppressed(nb.neighbor_index)) continue;
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
                if (cur == origin && suppressed(nb.neighbor_index)) continue;
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
                if (cur == origin && suppressed(nb.neighbor_index)) continue;
                if (is_better(route_class::provider, len, nb.neighbor_index)) {
                    set(nb.neighbor_index, route_class::provider, len, cur, nb.link_index);
                    heap_push(static_cast<std::uint8_t>(len + 1), nb.neighbor_index);
                }
            }
        }
    }
}

void anycast_rib::set_best(std::size_t as) {
    route_class best = route_class::none;
    std::uint8_t best_len = std::numeric_limits<std::uint8_t>::max();
    std::uint8_t direct = 0;
    for (site_id s = 0; s < announcements_.size(); ++s) {
        const std::size_t c = cell(s, as);
        const auto cls = static_cast<route_class>(cls_[c]);
        if (cls == route_class::none) continue;
        if (len_[c] <= 2) direct = 1;
        if (better(cls, len_[c], best, best_len)) {
            best = cls;
            best_len = len_[c];
        }
    }
    best_cls_[as] = static_cast<std::uint8_t>(best);
    best_len_[as] = best_len;
    direct_[as] = direct;
}

template <class F>
void anycast_rib::for_each_candidate(std::size_t as, F&& visit) const {
    if (static_cast<route_class>(best_cls_[as]) == route_class::none) return;
    for (site_id s = 0; s < announcements_.size(); ++s) {
        const std::size_t c = cell(s, as);
        if (cls_[c] == best_cls_[as] && len_[c] == best_len_[as]) visit(s);
    }
}

void anycast_rib::build_fast_path(engine::thread_pool* pool) {
    best_cls_.assign(as_count_, static_cast<std::uint8_t>(route_class::none));
    best_len_.assign(as_count_, std::numeric_limits<std::uint8_t>::max());
    direct_.assign(as_count_, 0);
    cand_begin_.assign(as_count_ + 1, 0);
    std::vector<std::uint32_t> counts(as_count_, 0);

    // Pass A: per-AS best (class, length), direct flag, candidate count.
    engine::parallel_over(pool, as_count_, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            set_best(i);
            for_each_candidate(i, [&](site_id) { ++counts[i]; });
        }
    });

    for (std::size_t i = 0; i < as_count_; ++i) cand_begin_[i + 1] = cand_begin_[i] + counts[i];
    cand_sites_.resize(cand_begin_[as_count_]);

    // Pass B: fill CSR candidate lists (sites ascending, as the pre-index
    // best_candidates scan produced them).
    engine::parallel_over(pool, as_count_, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            std::uint32_t k = cand_begin_[i];
            for_each_candidate(i, [&](site_id s) { cand_sites_[k++] = s; });
        }
    });
}

std::vector<site_id> anycast_rib::best_candidates(topo::asn_t asn) const {
    const auto span = candidate_span(as_index(asn));
    return std::vector<site_id>(span.begin(), span.end());
}

std::optional<site_route> anycast_rib::route_toward(topo::asn_t asn, site_id site) const {
    check_site(site);
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
    check_site(site);
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
    check_site(site);
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
    if (sealed_) {
        if (const auto* hit = select_frozen(asn, region)) return *hit;
        frozen_misses_.fetch_add(1, std::memory_order_relaxed);
        frozen_miss_counter().add(1);
    }
    const std::size_t as = as_index(asn);
    if (candidate_span(as).empty()) return std::nullopt;

    cache_shard& shard = cache_shards_[shard_of(asn)];
    if (!sealed_) {
        std::lock_guard lock{shard.mutex};
        if (const auto it = shard.entries.find(cache_key(asn, region));
            it != shard.entries.end()) {
            cache_hits_.fetch_add(1, std::memory_order_relaxed);
            select_hit_counter().add(1);
            return it->second;
        }
    }
    // Compute outside the lock: a racing thread may duplicate the work, but
    // selection is pure, so both compute identical bytes and the first
    // emplace wins — the cache never changes an output. A sealed memo is
    // read-only, so a cold key is answered without being stored.
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    select_miss_counter().add(1);
    auto result = select_indexed(as, asn, region);
    if (!sealed_) {
        std::lock_guard lock{shard.mutex};
        shard.entries.emplace(cache_key(asn, region), result);
    }
    return result;
}

const std::optional<path_result>* anycast_rib::select_frozen(
    topo::asn_t asn, topo::region_id region) const noexcept {
    if (!sealed_) return nullptr;
    // No lock: while sealed nothing writes the shards (fills are off and
    // mutation needs exclusive access).
    const auto& entries = cache_shards_[shard_of(asn)].entries;
    const auto it = entries.find(cache_key(asn, region));
    if (it == entries.end()) return nullptr;
    frozen_hits_.fetch_add(1, std::memory_order_relaxed);
    frozen_hit_counter().add(1);
    return &it->second;
}

std::size_t anycast_rib::freeze_select_cache() {
    obs::span freeze_span{"bgp/freeze_select_cache"};
    std::size_t entries = 0;
    for (const auto& shard : cache_shards_) entries += shard.entries.size();
    sealed_ = true;
    freeze_counter().add(1);
    freeze_span.set_items(entries);
    return entries;
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
    return direct_[as_index(asn)] != 0;
}

void anycast_rib::check_site(site_id site) const {
    if (site >= announcements_.size()) throw std::out_of_range("anycast_rib: unknown site");
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
    sealed_ = false;
    check_site(site);
    if (announcements_[site].withdrawn) return stats;  // idempotent

    const std::uint32_t old_row = site_row_[site];
    std::vector<std::uint8_t> touched(as_count_, 0);
    mark_routed(old_row, touched);
    announcements_[site].withdrawn = true;
    site_row_[site] = attach(row_key{});
    reconverge_touched(touched, site, old_row, stats);
    event_span.set_items(stats.ases_touched);
    return stats;
}

anycast_rib::reconverge_stats anycast_rib::announce(announcement a) {
    obs::span event_span{"bgp/announce"};
    reconverge_stats stats;
    sealed_ = false;
    const std::size_t origin = graph_->find_index(a.origin_asn);
    if (origin == topo::as_graph::npos || origin >= as_count_) {
        throw std::invalid_argument("anycast_rib: announcement from unknown ASN");
    }
    if (a.site > announcements_.size()) {
        throw std::invalid_argument("anycast_rib: site ids must be dense [0, n)");
    }
    a.withdrawn = false;

    // The frontier is every AS the site's old row or new row routes.
    // A brand-new site has no old row.
    std::vector<std::uint8_t> touched(as_count_, 0);
    std::uint32_t old_row = no_next_hop;
    if (a.site == announcements_.size()) {
        announcements_.push_back(a);
        site_row_.push_back(0);
    } else {
        old_row = site_row_[a.site];
        mark_routed(old_row, touched);
        announcements_[a.site] = a;
    }
    site_row_[a.site] = attach(key_of(a));
    mark_routed(site_row_[a.site], touched);
    reconverge_touched(touched, a.site, old_row, stats);
    event_span.set_items(stats.ases_touched);
    return stats;
}

bool anycast_rib::is_withdrawn(site_id site) const {
    check_site(site);
    return announcements_[site].withdrawn;
}

std::size_t anycast_rib::active_site_count() const {
    return static_cast<std::size_t>(std::count_if(announcements_.begin(), announcements_.end(),
                                                  [](const auto& a) { return !a.withdrawn; }));
}

void anycast_rib::mark_routed(std::uint32_t row, std::vector<std::uint8_t>& touched) const {
    const std::size_t base = static_cast<std::size_t>(row) * as_count_;
    for (std::size_t i = 0; i < as_count_; ++i) {
        if (static_cast<route_class>(cls_[base + i]) != route_class::none) touched[i] = 1;
    }
}

bool anycast_rib::repair_as_index(std::size_t as, site_id site, std::uint32_t old_row) {
    const auto best = static_cast<route_class>(best_cls_[as]);
    const std::uint8_t best_len = best_len_[as];
    if (!overlaid_[as]) {
        const auto span = candidate_span(as);
        overlay_[as].assign(span.begin(), span.end());
        overlaid_[as] = 1;
    }
    std::vector<site_id>& list = overlay_[as];
    const auto rescan = [&] {
        set_best(as);
        list.clear();
        for_each_candidate(as, [&](site_id s) { list.push_back(s); });
        return true;
    };
    // Remove: the old cell leaves the candidate list if it held the best.
    // Only a rescan can tell whether another site keeps a direct route, or
    // which (class, len) is best once the list empties.
    if (old_row != no_next_hop) {
        const std::size_t o = static_cast<std::size_t>(old_row) * as_count_ + as;
        const auto cls = static_cast<route_class>(cls_[o]);
        if (cls != route_class::none && len_[o] <= 2) return rescan();
        if (cls != route_class::none && cls == best && len_[o] == best_len) {
            list.erase(std::lower_bound(list.begin(), list.end(), site));
            if (list.empty()) return rescan();
        }
    }
    // Add: the new cell beats, ties or loses to the (unchanged) best.
    const std::size_t n = cell(site, as);
    const auto cls = static_cast<route_class>(cls_[n]);
    if (cls == route_class::none) return false;
    if (len_[n] <= 2) direct_[as] = 1;
    if (better(cls, len_[n], best, best_len)) {
        best_cls_[as] = cls_[n];
        best_len_[as] = len_[n];
        list.assign(1, site);
    } else if (cls == best && len_[n] == best_len) {
        list.insert(std::lower_bound(list.begin(), list.end(), site), site);
    }
    return false;
}

void anycast_rib::clear_select_cache() {
    sealed_ = false;
    for (auto& shard : cache_shards_) shard.entries.clear();
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
        erased += std::erase_if(cache_shards_[s].entries, [&](const auto& kv) {
            const auto asn = static_cast<topo::asn_t>(kv.first >> 32);
            const std::size_t i = graph_->find_index(asn);
            return i != topo::as_graph::npos && i < as_count_ && touched[i] != 0;
        });
    }
    return {erased, visited};
}

void anycast_rib::reconverge_touched(const std::vector<std::uint8_t>& touched, site_id site,
                                     std::uint32_t old_row, reconverge_stats& out) {
    obs::span reconverge_span{"bgp/reconverge"};
    if (overlaid_.empty()) {
        // First mutation on this RIB: activate the overlay layer. The CSR
        // arrays stay frozen as the pristine-AS fallback.
        overlaid_.assign(as_count_, 0);
        overlay_.resize(as_count_);
    }
    for (std::size_t i = 0; i < as_count_; ++i) {
        if (!touched[i]) continue;
        out.rescans += repair_as_index(i, site, old_row) ? 1 : 0;
        ++out.ases_touched;
    }
    const auto [erased, visited] = invalidate_cache(touched);
    out.cache_entries_invalidated = erased;
    out.cache_shards_visited = visited;
    cache_invalidations_.fetch_add(erased, std::memory_order_relaxed);

    reconverge_span.set_items(out.ases_touched);
    reconverge_event_counter().add(1);
    reconverge_ases_counter().add(out.ases_touched);
    reconverge_rescans_counter().add(out.rescans);
    reconverge_shards_counter().add(visited);
    select_invalidation_counter().add(erased);
}

} // namespace ac::route
