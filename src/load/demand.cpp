#include "src/load/demand.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ac::load {

namespace {

/// floor(v * num / den) for non-negative operands. A product that fits in
/// 64 bits divides there; a larger one goes through 128-bit so it cannot
/// overflow. Both paths truncate the same exact product, so they agree.
[[nodiscard]] std::int64_t scale(std::int64_t v, std::int64_t num, std::int64_t den) noexcept {
    std::int64_t product = 0;
    if (!__builtin_mul_overflow(v, num, &product)) return product / den;
    return static_cast<std::int64_t>(static_cast<__int128>(v) * num / den);
}

/// Regional multipliers compound (hot spot x overlapping flash crowds) but
/// are clamped so the offered-load chain stays within its overflow audit.
inline constexpr std::int64_t max_region_factor_pct = 1'000'000;

} // namespace

demand_series::demand_series(const pop::user_base& base, const scenario::timeline& tl,
                             const demand_plan& plan, topo::region_id region_count) {
    if (!(plan.connections_per_user >= 0.0)) {
        throw std::invalid_argument("demand_series: negative connections_per_user");
    }
    regions_ = static_cast<std::size_t>(region_count);

    const auto& locs = base.locations();
    base_conn_.reserve(locs.size());
    region_.reserve(locs.size());
    for (const auto& loc : locs) {
        const auto conn =
            static_cast<std::int64_t>(std::llround(loc.users * plan.connections_per_user));
        base_conn_.push_back(conn);
        region_.push_back(loc.region);
        nominal_total_ += conn;
    }

    // Demand events are state-setting; walk buckets and events in lockstep
    // (the timeline is sorted by step).
    struct flash_window {
        topo::region_id region;
        int pct;
        int last_bucket;  // inclusive
    };
    int last_demand_step = 0;
    for (const auto& e : tl.events) {
        if (!scenario::is_demand_event(e.type)) continue;
        if ((e.type == scenario::event_type::demand_flash ||
             e.type == scenario::event_type::demand_hotspot) &&
            e.region >= region_count) {
            throw scenario::timeline_error("timeline: unknown region " +
                                           std::to_string(e.region));
        }
        last_demand_step = std::max(last_demand_step, e.step);
    }
    buckets_ = plan.buckets > 0 ? plan.buckets : last_demand_step + 1;

    level_pct_.assign(static_cast<std::size_t>(buckets_), 100);
    diurnal_pm_.assign(static_cast<std::size_t>(buckets_), 1000);
    region_factor_.assign(static_cast<std::size_t>(buckets_) * regions_, 100);

    int level = 100;
    int diurnal_amp = 0;
    int diurnal_period = 0;
    int diurnal_start = 0;
    std::vector<std::int64_t> hotspot_pct(regions_, 100);
    std::vector<flash_window> flashes;
    std::size_t next_event = 0;
    for (int t = 0; t < buckets_; ++t) {
        while (next_event < tl.events.size() && tl.events[next_event].step == t) {
            const auto& e = tl.events[next_event++];
            switch (e.type) {
                case scenario::event_type::demand_level:
                    level = e.pct;
                    break;
                case scenario::event_type::demand_diurnal:
                    diurnal_amp = e.pct;
                    diurnal_period = e.window;
                    diurnal_start = t;
                    break;
                case scenario::event_type::demand_flash:
                    flashes.push_back(flash_window{e.region, e.pct, t + e.window - 1});
                    break;
                case scenario::event_type::demand_hotspot:
                    hotspot_pct[e.region] = e.pct;
                    break;
                default:
                    break;  // routing events: the scenario driver's business
            }
        }

        level_pct_[static_cast<std::size_t>(t)] = level;
        if (diurnal_amp > 0 && diurnal_period >= 2) {
            // Integer triangle wave in per-mille: trough (-amp%) at the
            // firing bucket, peak (+amp%) half a period later.
            const int p = (t - diurnal_start) % diurnal_period;
            const int half = diurnal_period / 2;
            const int pos = p <= half ? p : diurnal_period - p;
            const int dev_pm = diurnal_amp * 10 * (2 * pos - half) / half;
            diurnal_pm_[static_cast<std::size_t>(t)] = 1000 + dev_pm;
        }
        std::int64_t* row = region_factor_.data() + static_cast<std::size_t>(t) * regions_;
        for (std::size_t r = 0; r < regions_; ++r) row[r] = hotspot_pct[r];
        for (const auto& fw : flashes) {
            if (t > fw.last_bucket) continue;
            auto& f = row[fw.region];
            f = std::min(f * fw.pct / 100, max_region_factor_pct);
        }
    }
}

std::int64_t demand_series::offered(std::size_t loc, int t, int level_pct) const noexcept {
    const auto bucket = static_cast<std::size_t>(t);
    std::int64_t c = base_conn_[loc];
    c = scale(c, level_pct, 100);
    c = scale(c, level_pct_[bucket], 100);
    c = scale(c, diurnal_pm_[bucket], 1000);
    c = scale(c, region_factor_[bucket * regions_ + region_[loc]], 100);
    return c;
}

std::vector<std::int64_t> demand_series::offered_bucket(int t, int level_pct) const {
    std::vector<std::int64_t> out(base_conn_.size());
    for (std::size_t l = 0; l < out.size(); ++l) out[l] = offered(l, t, level_pct);
    return out;
}

} // namespace ac::load
