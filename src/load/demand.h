// Time-bucketed offered-load demand model.
//
// Turns the ground-truth <region, AS> user populations and the telemetry
// `connections_per_user` seed into an integer series of offered connections
// per location per time bucket. The shape of the series is driven by the
// scenario timeline's demand-* events (src/scenario/event.h): a global
// demand level, a deterministic diurnal triangle wave, transient regional
// flash crowds, and persistent regional hot spots. Everything is integer
// arithmetic — percentages and per-mille factors applied with floor
// division — so offered load is exact, byte-stable, and conservation checks
// against the assignment policies (shed + served == offered) can use ==.
//
// The multiplier chain for location `l` (region r) at bucket `t`, swept at
// frontier level `level_pct`:
//
//   base      = llround(users_l * connections_per_user)
//   c         = base * level_pct / 100            (frontier x-axis)
//   c         = c * demand_level_pct[t] / 100     (demand-level events)
//   c         = c * diurnal_pm[t] / 1000          (demand-diurnal wave)
//   c         = c * region_factor[t][r] / 100     (flash crowds x hot spots)
//
// Each step floors; intermediate products go through 128-bit arithmetic so
// the chain cannot overflow within the parser-enforced event bounds
// (scenario::max_demand_pct and friends).
#pragma once

#include <cstdint>
#include <vector>

#include "src/population/population.h"
#include "src/scenario/event.h"

namespace ac::load {

struct demand_plan {
    /// Connections per user per bucket; callers seed this from
    /// `cdn::telemetry_options::connections_per_user` so the demand model
    /// and the server-log generator describe the same traffic.
    double connections_per_user = 2.0;
    /// Number of time buckets; 0 derives it from the timeline (last demand
    /// step + 1, minimum 1).
    int buckets = 0;
};

/// Precomputed offered-load series. Non-demand events in the timeline are
/// ignored here (the scenario driver replays them against routing state).
class demand_series {
public:
    /// Throws scenario::timeline_error when a demand event names a region
    /// outside [0, region_count).
    demand_series(const pop::user_base& base, const scenario::timeline& tl,
                  const demand_plan& plan, topo::region_id region_count);

    [[nodiscard]] int buckets() const noexcept { return buckets_; }
    [[nodiscard]] std::size_t locations() const noexcept { return base_conn_.size(); }
    /// Sum of per-location base connections: the nominal fleet demand the
    /// capacity model provisions against.
    [[nodiscard]] std::int64_t nominal_total() const noexcept { return nominal_total_; }

    [[nodiscard]] std::int64_t base_conn(std::size_t loc) const noexcept {
        return base_conn_[loc];
    }
    [[nodiscard]] topo::region_id region(std::size_t loc) const noexcept {
        return region_[loc];
    }

    /// Offered connections from location `loc` at bucket `t`, with the whole
    /// series additionally scaled by `level_pct` percent (the frontier sweep).
    [[nodiscard]] std::int64_t offered(std::size_t loc, int t, int level_pct) const noexcept;
    /// `offered(loc, t, level_pct)` for every location, in location order.
    [[nodiscard]] std::vector<std::int64_t> offered_bucket(int t, int level_pct) const;

    // Per-bucket state, exposed for tests and summaries.
    [[nodiscard]] int level_pct(int t) const noexcept {
        return level_pct_[static_cast<std::size_t>(t)];
    }
    [[nodiscard]] int diurnal_pm(int t) const noexcept {
        return diurnal_pm_[static_cast<std::size_t>(t)];
    }
    /// Regional multiplier in percent (100 = neutral).
    [[nodiscard]] std::int64_t region_factor(int t, topo::region_id r) const noexcept {
        return region_factor_[static_cast<std::size_t>(t) * regions_ + r];
    }

private:
    std::vector<std::int64_t> base_conn_;      // per location
    std::vector<topo::region_id> region_;      // per location
    std::vector<int> level_pct_;               // per bucket
    std::vector<int> diurnal_pm_;              // per bucket, 1000 = neutral
    std::vector<std::int64_t> region_factor_;  // bucket-major [buckets x regions]
    std::size_t regions_ = 0;
    int buckets_ = 1;
    std::int64_t nominal_total_ = 0;
};

} // namespace ac::load
