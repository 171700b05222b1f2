// BGP-style anycast route computation.
//
// For each anycast site (an announcement from a host AS at a region), routes
// propagate through the AS graph under standard Gao-Rexford policy:
//
//   * export: customer-learned routes go to everyone; peer- and
//     provider-learned routes go only to customers (valley-free);
//     `local` scope announcements reach direct neighbors only (§2.1's
//     local root sites, implemented by limiting BGP propagation).
//   * selection: local-preference by relationship (customer > peer >
//     provider), then shortest AS path — BGP's top criteria as discussed in
//     §7.1 — then, among equal candidates, hot-potato/early-exit chosen at
//     evaluation time per source region (lowest IGP cost, §7.1).
//
// Latency is *derived from the chosen path's geography*: the evaluator walks
// the AS path hop by hop, picking at each inter-AS link the interconnection
// point nearest the current position (early exit) and accumulating
// great-circle distance scaled by the link's circuitousness. Inflation is
// therefore an emergent property of policy routing over the synthetic graph,
// never an injected quantity.
//
// A selection answer (`path_result`) is flat: site, AS count and latency
// terms, no AS list. The AS path itself depends only on the source AS and
// the site (next hops are per row, not per region), so the few callers that
// need it (Fig. 6a's organization path lengths) walk it on demand with
// `as_path`.
//
// Route selection is the fast path of the whole system (every figure funnels
// through `select`), so the RIB is built for O(1)-amortized queries
// (DESIGN §8):
//
//   * the route matrix is a flat struct-of-arrays (one row per key), not a
//     vector-of-vectors;
//   * a per-AS best-route index (best class, best length, CSR candidate
//     lists) is precomputed once after propagation, so `best_candidates`
//     never rescans site tables;
//   * all geographic terms come from precomputed tables — the region-pair
//     distance matrix (`topo::region_table::distance_km`) and the graph's
//     per-link nearest-interconnect table (`topo::as_graph::
//     nearest_interconnect`, shared by every RIB over the graph) — no
//     haversine trig at query time;
//   * `select` results are memoized in one sharded, lazily-filled cache of
//     flat answers, so a fill or a hit copies a few words and allocates
//     nothing. Selection is a pure function of (asn, region), so a memoized
//     answer is bit-identical to a fresh one, and concurrent fills are race-safe:
//     any thread that computes a key computes the same bytes, and the first
//     insert wins. For serving, `freeze_select_cache` seals that same memo:
//     sealed reads take no lock and store nothing.
//
// Routes are stored per announcement key, not per site (DESIGN §8): a row
// depends only on origin AS, scope, prepend and suppressed set, so sites with
// equal keys (a CDN's PoPs, a letter's sites in one host AS) share one
// immutable row, propagated once, and differ only at evaluation (region).
//
// The RIB is *mutable* (DESIGN §11): `withdraw` points the site at the
// all-`none` row, and `announce` reuses the row of a key the RIB holds,
// propagating only a key it has never seen; no row is ever rewritten. The
// per-AS best-route index is then repaired for exactly the ASes routed by
// the site's old or new row, each from the one cell that changed (a full
// site rescan only when that cell was the sole best), and
// only the select-cache shards holding them are invalidated. The post-event
// state is byte-identical to a from-scratch rebuild.
//
// Concurrency is the standard-container contract: const members may run
// concurrently with each other, and the four non-const members (`withdraw`,
// `announce`, `clear_select_cache`, `freeze_select_cache`) need exclusive
// access. The RIB takes no lock for mutation; the only locks are the memo's
// shard mutexes, which let concurrent const `select`s fill it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/engine/thread_pool.h"
#include "src/topology/addressing.h"
#include "src/topology/as_graph.h"
#include "src/topology/region.h"

namespace ac::route {

using site_id = std::uint32_t;

enum class announcement_scope : std::uint8_t {
    global,  // normal propagation
    local,   // direct neighbors only (no re-export)
};

/// One anycast site's BGP announcement.
struct announcement {
    site_id site = 0;
    topo::asn_t origin_asn = 0;
    topo::region_id origin_region = 0;
    announcement_scope scope = announcement_scope::global;
    /// Traffic engineering (§7.1): neighbors the origin does NOT announce
    /// this site to — "not announcing to particular ASes at particular
    /// peering points" when they make poor routing decisions. Those
    /// neighbors can still learn the site transitively through others.
    std::vector<topo::asn_t> suppressed_neighbors;
    /// AS-path prepending (§7.1's other TE lever): the origin announces an
    /// artificially lengthened path, making this site lose path-length
    /// tie-breaks everywhere without withdrawing it.
    std::uint8_t prepend = 0;
    /// A withdrawn announcement defines the site (it keeps its dense id and
    /// its RTT-jitter identity) but contributes no routes until `announce`
    /// re-activates it. This is how scenario timelines express drained
    /// sites without renumbering — renumbering would change output bytes.
    bool withdrawn = false;
};

/// Route class in local-preference order (smaller value = more preferred).
enum class route_class : std::uint8_t {
    origin = 0,    // the AS itself originates the prefix
    customer = 1,  // learned from a customer
    peer = 2,      // learned from a peer
    provider = 3,  // learned from a provider
    none = 4,
};

/// The best route an AS holds toward one specific site.
struct site_route {
    route_class cls = route_class::none;
    std::uint8_t path_len = 0;          // number of ASes on the path, incl. both ends
    topo::asn_t next_hop = 0;           // 0 at the origin
    std::uint32_t link_index = 0;       // link to next_hop (valid unless origin)

    friend bool operator==(const site_route&, const site_route&) = default;
};

/// A fully evaluated path from a source <region, AS> to a site. Flat, so
/// the select memo stores and returns it without allocating; the ASes on
/// the path come from `anycast_rib::as_path(asn, site)`.
struct path_result {
    site_id site = 0;
    std::uint32_t path_ases = 0;        // ASes on the path, source and origin included
    double rtt_ms = 0.0;                // steady-state (median) round-trip time
    double path_km = 0.0;               // one-way geographic distance travelled
    double direct_km = 0.0;             // great-circle source-to-site distance

    friend bool operator==(const path_result&, const path_result&) = default;
};
static_assert(std::is_trivially_copyable_v<path_result>);

/// One <AS, region> traffic source, for bulk route evaluation.
struct source_key {
    topo::asn_t asn = 0;
    topo::region_id region = 0;
};

/// Routing state for one anycast prefix (one deployment or ring).
class anycast_rib {
public:
    /// Routes over `graph` and its region table (`graph.regions()`), both of
    /// which must outlive the RIB. Construction only reads the graph. Site
    /// ids must be dense and in order (`announcements[i].site == i`), so
    /// duplicates are rejected with std::invalid_argument. With a non-serial
    /// `pool`, per-key propagation and the fast-path index build run in
    /// parallel (each key owns a disjoint matrix row and each AS owns its
    /// index slot, so the result is schedule-free).
    anycast_rib(const topo::as_graph& graph, std::vector<announcement> announcements,
                engine::thread_pool* pool = nullptr);

    /// Work done by one incremental re-convergence (announce or withdraw).
    struct reconverge_stats {
        std::size_t ases_touched = 0;              // index slots repaired
        std::size_t rescans = 0;                   // of those, rebuilt by a full site scan
        std::size_t cache_entries_invalidated = 0; // memoized selects dropped
        std::size_t cache_shards_visited = 0;      // shards that held them
    };

    /// Withdraws `site`'s announcement and re-converges incrementally:
    /// points the site at the all-`none` row (its old row is kept, other
    /// sites may share it), repairs the best-route index for exactly the
    /// ASes that held a route to it, and invalidates only the select-cache
    /// shards containing those ASes. No row is rewritten. No-op on an already
    /// withdrawn site. Afterwards `select` is byte-identical to a
    /// from-scratch rebuild without the site. Throws std::out_of_range on an
    /// unknown site.
    reconverge_stats withdraw(site_id site);

    /// (Re-)announces a site and re-converges incrementally. `a.site` must
    /// be an existing site id (re-announce: scope/prepend/suppression/origin
    /// may all change) or exactly `site_count()` (a brand-new site). A key
    /// the RIB already holds reuses its row; only a new key is propagated,
    /// into an appended row. The index/cache is fixed up for the union of
    /// ASes that held the old route or hold the new one. Throws
    /// std::invalid_argument on an unknown origin ASN or a non-dense site id.
    reconverge_stats announce(announcement a);

    /// True if `site` is currently withdrawn (no routes).
    [[nodiscard]] bool is_withdrawn(site_id site) const;

    /// Total sites this RIB knows (withdrawn ones included).
    [[nodiscard]] std::size_t site_count() const noexcept { return announcements_.size(); }

    /// Sites currently announced.
    [[nodiscard]] std::size_t active_site_count() const;

    /// Sites for which `asn` holds any route, restricted to the best
    /// (class, path length) — BGP's deterministic criteria. Hot-potato
    /// resolution among these happens per region in `select`. O(1) lookup
    /// into the precomputed best-route index.
    [[nodiscard]] std::vector<site_id> best_candidates(topo::asn_t asn) const;

    /// The route `asn` holds toward `site`, if any.
    [[nodiscard]] std::optional<site_route> route_toward(topo::asn_t asn, site_id site) const;

    /// Evaluates the concrete path from <asn, region> to `site`, walking the
    /// AS path geographically. Returns nullopt if the AS has no route.
    [[nodiscard]] std::optional<path_result> evaluate(topo::asn_t asn, topo::region_id region,
                                                      site_id site) const;

    /// The AS path from `asn` to `site`, source AS first and the site's
    /// origin AS last (`path_ases` entries, prepending not repeated); empty
    /// when `asn` holds no route toward `site`. The path follows the route
    /// row's next hops, so it is the same from every region of `asn`.
    /// Throws std::out_of_range on an unknown ASN or site.
    [[nodiscard]] std::vector<topo::asn_t> as_path(topo::asn_t asn, site_id site) const;

    /// Full selection for a source <region, AS>: picks among best_candidates
    /// by lowest first-segment IGP distance (early exit), returning the
    /// evaluated path. Returns nullopt if the AS has no route at all.
    /// Memoized: repeat queries for the same (asn, region) are cache hits.
    /// Safe to call concurrently, and byte-identical at any thread count
    /// (selection is pure, so every fill of a key stores the same value).
    /// While sealed, a key warmed before the freeze is read without locking
    /// and a cold key is computed but not stored.
    [[nodiscard]] std::optional<path_result> select(topo::asn_t asn, topo::region_id region) const;

    /// Bulk `select` over many sources, chunked across the pool (inline when
    /// `pool` is null or serial). Result i corresponds to sources[i];
    /// evaluation is stateless per source, so output is thread-count
    /// independent.
    [[nodiscard]] std::vector<std::optional<path_result>> select_many(
        std::span<const source_key> sources, engine::thread_pool* pool = nullptr) const;

    [[nodiscard]] const std::vector<announcement>& announcements() const noexcept {
        return announcements_;
    }

    /// ASNs this RIB holds routes for (the graph snapshot at construction;
    /// ASes attached to the graph later are unknown to this RIB).
    [[nodiscard]] std::span<const topo::asn_t> known_asns() const noexcept { return asns_; }

    /// Read-only spans over the route row `site` reads (shared by its key's
    /// sites; all `none` while withdrawn), aligned with known_asns() and
    /// valid until the next announce/withdraw. `next_index` is the next
    /// hop's dense index, or `no_next_hop` at the origin and if absent.
    struct site_route_view {
        std::span<const std::uint8_t> cls;        // route_class values
        std::span<const std::uint8_t> path_len;
        std::span<const std::uint32_t> next_index;
        std::span<const std::uint32_t> link_index;
    };
    static constexpr std::uint32_t no_next_hop = std::numeric_limits<std::uint32_t>::max();
    [[nodiscard]] site_route_view site_routes(site_id site) const;

    /// Memoization counters (monotone; relaxed atomics). `misses` counts
    /// computations: under concurrent fills it can slightly exceed the
    /// number of distinct keys when two threads race on the same key.
    /// Lookups while sealed are also counted as `frozen_hits` (a key warmed
    /// before the freeze) or `frozen_misses` (a cold key, which is then
    /// computed and so counted in `misses` too).
    struct cache_stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t invalidations = 0;  // entries dropped by announce/withdraw
        bool frozen = false;              // the memo is currently sealed
        std::uint64_t frozen_hits = 0;    // sealed lookups of a warmed key
        std::uint64_t frozen_misses = 0;  // sealed lookups of a cold key

        /// Hit fraction over all lookups; 0.0 before the first lookup (the
        /// zero-query case must not divide by zero).
        [[nodiscard]] double hit_rate() const noexcept {
            const std::uint64_t lookups = hits + misses;
            return lookups == 0 ? 0.0
                                : static_cast<double>(hits) / static_cast<double>(lookups);
        }
    };
    [[nodiscard]] cache_stats select_cache_stats() const noexcept {
        return {cache_hits_.load(std::memory_order_relaxed),
                cache_misses_.load(std::memory_order_relaxed),
                cache_invalidations_.load(std::memory_order_relaxed),
                sealed_,
                frozen_hits_.load(std::memory_order_relaxed),
                frozen_misses_.load(std::memory_order_relaxed)};
    }

    /// Seals the select memo for read-only serving (`acctx serve`): warm it
    /// with `select_many` over the query population, then freeze. While
    /// sealed, `select` and `select_frozen` read the memo without locking,
    /// and keys that were never warmed are computed but not stored, so the
    /// sealed contents stay exactly the warmed set. Returns the number of
    /// memoized entries. Any later `announce`/`withdraw`/
    /// `clear_select_cache` unseals (stats report frozen = false again);
    /// calling it again re-seals the current contents.
    std::size_t freeze_select_cache();

    /// Lock-free lookup in the sealed memo: returns a pointer to the
    /// memoized result (valid until the next non-const call on the RIB), or
    /// nullptr when the memo is not sealed or the key was not warmed. Never
    /// locks, never allocates, never copies. Counts frozen_hits only (a
    /// nullptr return is not counted; use `select` for fall-through).
    [[nodiscard]] const std::optional<path_result>* select_frozen(
        topo::asn_t asn, topo::region_id region) const noexcept;

    /// Empties the select memo and unseals it (counters are left alone).
    /// Makes subsequent invalidation work counts a pure function of the
    /// queries run since, independent of prior process history — the
    /// scenario driver calls this so its per-step work accounting is
    /// reproducible whether the world came from a live build or a snapshot.
    void clear_select_cache();

private:
    /// What propagation reads from an announcement; the suppressed set is
    /// sorted, unique dense indices inside the snapshot. The default key is
    /// the all-`none` row of withdrawn sites, never propagated.
    struct row_key {
        std::uint32_t origin = no_next_hop;
        announcement_scope scope = announcement_scope::global;
        std::uint8_t prepend = 0;
        std::vector<std::uint32_t> suppressed;
        friend bool operator==(const row_key&, const row_key&) = default;
    };
    [[nodiscard]] row_key key_of(const announcement& a) const;
    /// The row holding `key`. A key the RIB has never seen gets a new row,
    /// sized and propagated now, or listed in `deferred` for the caller.
    std::uint32_t attach(row_key key, std::vector<std::uint32_t>* deferred = nullptr);
    void size_rows();  // grows the columns to row_keys_.size() rows
    void propagate(std::uint32_t row);
    void build_fast_path(engine::thread_pool* pool);
    /// The bulk build and the repair's fallback share these two scans, so a
    /// rescanned index slot is byte-identical to a from-scratch one:
    /// `set_best` stores one AS's best (class, len),
    /// `for_each_candidate` visits its best-route sites in ascending order.
    void set_best(std::size_t as);
    template <class F>
    void for_each_candidate(std::size_t as, F&& visit) const;
    /// Repairs one AS's slot, in the overlay, from the one cell that
    /// changed: `site`'s cell in `old_row` (`no_next_hop` for a brand-new
    /// site) against its cell now (DESIGN §11). Falls back to the bulk
    /// build's scans over every site, returning true, when the old cell was
    /// the sole best candidate.
    bool repair_as_index(std::size_t as, site_id site, std::uint32_t old_row);
    /// Marks every AS that `row` routes in `touched` (bitmap by dense index).
    void mark_routed(std::uint32_t row, std::vector<std::uint8_t>& touched) const;
    /// Drops memoized selects for the touched ASes, visiting only the cache
    /// shards that can hold them. Returns (entries erased, shards visited).
    std::pair<std::size_t, std::size_t> invalidate_cache(
        const std::vector<std::uint8_t>& touched);
    /// Index repair + cache invalidation for a touched set after `site`
    /// moved off `old_row`; fills `out`.
    void reconverge_touched(const std::vector<std::uint8_t>& touched, site_id site,
                            std::uint32_t old_row, reconverge_stats& out);
    [[nodiscard]] std::size_t as_index(topo::asn_t asn) const;
    void check_site(site_id site) const;  // throws std::out_of_range
    [[nodiscard]] std::size_t cell(site_id site, std::size_t as) const noexcept {
        return static_cast<std::size_t>(site_row_[site]) * as_count_ + as;
    }
    [[nodiscard]] std::span<const site_id> candidate_span(std::size_t as) const noexcept {
        if (!overlaid_.empty() && overlaid_[as]) {
            return std::span<const site_id>{overlay_[as]};
        }
        return std::span<const site_id>{cand_sites_}.subspan(
            cand_begin_[as], cand_begin_[as + 1] - cand_begin_[as]);
    }
    [[nodiscard]] std::optional<path_result> select_indexed(std::size_t as, topo::asn_t asn,
                                                            topo::region_id region) const;
    [[nodiscard]] std::optional<path_result> evaluate_indexed(std::size_t as, topo::asn_t asn,
                                                              topo::region_id region,
                                                              site_id site) const;

    const topo::as_graph* graph_;
    const topo::region_table* regions_;
    std::vector<announcement> announcements_;
    std::vector<topo::asn_t> asns_;  // dense index -> asn (graph snapshot)
    std::size_t as_count_ = 0;
    std::size_t link_count_ = 0;  // graph link snapshot at construction

    // Route matrix, struct-of-arrays, one immutable row per key: entry for
    // (row, as) lives at row * as_count_ + as in each column, and site s
    // reads row site_row_[s]. Rows are never freed, so their count is
    // bounded by the distinct keys ever announced (plus the all-`none` row).
    std::vector<row_key> row_keys_;        // row -> key
    std::vector<std::uint32_t> site_row_;  // site -> row
    std::vector<std::uint8_t> cls_;        // route_class
    std::vector<std::uint8_t> len_;        // AS-path length
    std::vector<std::uint32_t> next_idx_;  // dense index of next hop (no_next_hop at origin)
    std::vector<std::uint32_t> link_;      // link to next hop

    // Per-AS best-route index, precomputed once after propagation.
    std::vector<std::uint8_t> best_cls_;
    std::vector<std::uint8_t> best_len_;
    std::vector<std::uint32_t> cand_begin_;  // CSR offsets into cand_sites_, size as_count_+1
    std::vector<site_id> cand_sites_;        // candidate sites, ascending per AS

    // Mutation overlay: a touched AS's candidate list moves out of the CSR
    // (whose offsets cannot shrink or grow in place) into its own vector.
    // Empty until the first announce/withdraw, so the static fast path pays
    // one vector-empty test. candidate_span prefers the overlay when set.
    std::vector<std::uint8_t> overlaid_;         // per dense AS index
    std::vector<std::vector<site_id>> overlay_;  // valid where overlaid_[i]

    // Sharded select memoization, keyed by (asn << 32) | region. Mutable:
    // the cache is an observably-pure accelerator of const queries. The
    // shard is picked from the ASN alone so that invalidating one AS visits
    // exactly one shard (region-mixed sharding would smear an AS's entries
    // across every shard and force full-cache scans on every event). Shard
    // mutexes guard concurrent fills only; while `sealed_` nothing fills,
    // so readers skip them.
    static constexpr std::size_t cache_shard_count = 64;  // power of two
    [[nodiscard]] static constexpr std::size_t shard_of(topo::asn_t asn) noexcept {
        return (std::uint64_t{asn} * 0x9e3779b97f4a7c15ULL) >> 58;
    }
    [[nodiscard]] static constexpr std::uint64_t cache_key(topo::asn_t asn,
                                                           topo::region_id region) noexcept {
        return (std::uint64_t{asn} << 32) | region;
    }
    struct cache_shard {
        std::mutex mutex;
        std::unordered_map<std::uint64_t, std::optional<path_result>> entries;
    };
    mutable std::array<cache_shard, cache_shard_count> cache_shards_;
    bool sealed_ = false;  // set by freeze_select_cache, cleared by any mutation
    mutable std::atomic<std::uint64_t> cache_hits_{0};
    mutable std::atomic<std::uint64_t> cache_misses_{0};
    mutable std::atomic<std::uint64_t> cache_invalidations_{0};
    mutable std::atomic<std::uint64_t> frozen_hits_{0};
    mutable std::atomic<std::uint64_t> frozen_misses_{0};
};

/// Per-hop router processing added to the propagation delay, ms (round trip).
inline constexpr double per_hop_overhead_ms = 0.25;

/// Deterministic steady-state RTT jitter bound applied per (source, site).
inline constexpr double rtt_jitter_sigma = 0.04;

} // namespace ac::route
