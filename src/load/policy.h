// Latency-only vs load-aware anycast assignment (the two policies).
//
// `route_plan` freezes what BGP + the WAN decide for every user location:
// which front-end serves it on each ring and at what RTT. On top of that,
// `assign_bucket` computes where one time bucket's offered connections
// actually land under either policy:
//
//   * latency_only — the paper's CDN: every connection is served by its
//     outermost-ring front-end regardless of load. Overload shows up as
//     connections served by a front-end past its capacity.
//   * load_aware — FastRoute-style overflow: rings are tried outermost
//     (lowest latency) first; a saturated front-end sheds its excess
//     proportionally across the locations feeding it, and the shed
//     connections ride the next ring inward. What ring 0 cannot take is
//     unserved. This is a deterministic fixed-point: each ring pass is a
//     sweep over front-ends in index order with integer largest-remainder
//     apportionment. `assign_bucket` is serial; callers parallelize across
//     buckets (analysis::compute_load_frontier fans out over its points).
//
// Connection counts are int64 throughout; every bucket satisfies
// shed + served_first == offered exactly (tests/load_test.cpp pins it).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/cdn/cdn.h"
#include "src/engine/thread_pool.h"
#include "src/population/population.h"

namespace ac::load {

enum class policy_kind : std::uint8_t {
    latency_only,
    load_aware,
};

[[nodiscard]] std::string_view policy_name(policy_kind kind) noexcept;

/// Per-location routing state, fixed for a converged world: front-end and
/// RTT per (location, ring), plus the inverse mapping (which locations feed
/// each front-end on each ring) in CSR form for the per-front-end sweeps,
/// and every reachable (location, ring) cell ordered by RTT for quantiles.
class route_plan {
public:
    /// Evaluates every <asn, region> location against every ring. A
    /// non-serial pool chunks locations; outputs are per-slot writes.
    route_plan(const cdn::cdn_network& cdn, const pop::user_base& base,
               engine::thread_pool* pool = nullptr);

    [[nodiscard]] int rings() const noexcept { return rings_; }
    [[nodiscard]] int front_ends() const noexcept { return front_ends_; }
    [[nodiscard]] std::size_t locations() const noexcept { return locations_; }
    [[nodiscard]] std::size_t reachable_locations() const noexcept { return reachable_; }

    /// Reachability is ring-independent (all rings share PoP announcements).
    [[nodiscard]] bool reachable(std::size_t loc) const noexcept {
        return fe_[loc * static_cast<std::size_t>(rings_)] >= 0;
    }
    /// Front-end serving `loc` on `ring` (-1 if unreachable).
    [[nodiscard]] int front_end(std::size_t loc, int ring) const noexcept {
        return fe_[loc * static_cast<std::size_t>(rings_) + static_cast<std::size_t>(ring)];
    }
    [[nodiscard]] double rtt_ms(std::size_t loc, int ring) const noexcept {
        return rtt_[loc * static_cast<std::size_t>(rings_) + static_cast<std::size_t>(ring)];
    }
    /// RTT per cell `loc * rings() + ring` (the `bucket_result::kept`
    /// layout); unreachable cells read +infinity.
    [[nodiscard]] std::span<const double> cell_rtt_ms() const noexcept { return rtt_; }
    /// Every reachable cell, ascending by RTT (ties by cell index). RTT is
    /// fixed by the plan, so a weighted quantile over any bucket's `kept`
    /// is one pass over this order instead of a sort per bucket.
    [[nodiscard]] std::span<const std::uint32_t> rtt_order() const noexcept { return rtt_order_; }
    /// The outermost ring's cells of rtt_order(), in the same order: all a
    /// latency-only quantile needs, since that policy keeps nothing else.
    [[nodiscard]] std::span<const std::uint32_t> top_ring_rtt_order() const noexcept {
        return top_ring_rtt_order_;
    }
    /// Locations served by front-end `fe` on `ring`, ascending location id.
    [[nodiscard]] std::span<const std::uint32_t> members(int fe, int ring) const noexcept;

private:
    std::vector<int> fe_;        // location-major [locations x rings], -1 = unreachable
    std::vector<double> rtt_;    // same layout
    std::vector<std::uint32_t> members_;  // ring-major CSR payload
    std::vector<std::uint32_t> offsets_;  // rings x (front_ends + 1)
    std::vector<std::uint32_t> rtt_order_;  // reachable cells by (RTT, cell)
    std::vector<std::uint32_t> top_ring_rtt_order_;  // its outermost-ring cells
    std::size_t locations_ = 0;
    std::size_t reachable_ = 0;
    int rings_ = 0;
    int front_ends_ = 0;
};

/// Where one bucket's connections landed. `kept` is location-major
/// [locations x rings]: connections from a location served on each ring
/// (latency_only uses only the outermost ring).
struct bucket_result {
    std::int64_t offered = 0;       // connections from reachable locations
    std::int64_t unreachable = 0;   // connections with no route to the CDN
    std::int64_t served_first = 0;  // served on their first-choice ring
    std::int64_t shed = 0;          // shed off the first-choice ring
    std::int64_t unserved = 0;      // latency_only: served past capacity;
                                    // load_aware: no front-end could take them
    std::int64_t overflow_hop_conn = 0;  // sum of connections x rings traversed
    std::vector<std::int64_t> kept;      // [locations x rings]
    std::vector<std::int64_t> fe_load;   // connections landed per front-end
};

/// Assigns one bucket's offered connections (per location, as from
/// `demand_series::offered_bucket`) under `kind`. `capacity` is the
/// per-front-end limit (capacity_model::per_front_end()).
[[nodiscard]] bucket_result assign_bucket(const route_plan& plan,
                                          std::span<const std::int64_t> offered,
                                          std::span<const std::int64_t> capacity,
                                          policy_kind kind);

} // namespace ac::load
