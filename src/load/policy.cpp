#include "src/load/policy.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace ac::load {

namespace {

obs::counter& shed_counter() {
    static obs::counter& c = obs::registry::global().get_counter("load.shed_conn");
    return c;
}

obs::counter& overflow_hop_counter() {
    static obs::counter& c = obs::registry::global().get_counter("load.overflow_hop_conn");
    return c;
}

} // namespace

std::string_view policy_name(policy_kind kind) noexcept {
    switch (kind) {
        case policy_kind::latency_only: return "latency";
        case policy_kind::load_aware: return "load-aware";
    }
    return "?";
}

route_plan::route_plan(const cdn::cdn_network& cdn, const pop::user_base& base,
                       engine::thread_pool* pool) {
    const auto& locs = base.locations();
    locations_ = locs.size();
    rings_ = cdn.ring_count();
    front_ends_ = static_cast<int>(cdn.front_end_regions().size());

    obs::span plan_span{"load/route_plan"};
    plan_span.set_items(locations_);

    const auto rings = static_cast<std::size_t>(rings_);
    fe_.assign(locations_ * rings, -1);
    rtt_.assign(locations_ * rings, std::numeric_limits<double>::infinity());
    engine::parallel_over(pool, locations_, [&](std::size_t begin, std::size_t end) {
        for (std::size_t l = begin; l < end; ++l) {
            for (int r = 0; r < rings_; ++r) {
                const auto path = cdn.evaluate(locs[l].asn, locs[l].region, r);
                if (!path) break;  // reachability is ring-independent
                fe_[l * rings + static_cast<std::size_t>(r)] = path->front_end;
                rtt_[l * rings + static_cast<std::size_t>(r)] = path->rtt_ms;
            }
        }
    });

    for (std::size_t l = 0; l < locations_; ++l) {
        if (reachable(l)) ++reachable_;
    }

    // Inverse mapping, one CSR segment per ring. Each reachable location
    // appears under exactly one front-end per ring, in ascending location
    // order — the order every per-front-end reduction accumulates in.
    const auto fe_count = static_cast<std::size_t>(front_ends_);
    offsets_.assign(rings * (fe_count + 1), 0);
    members_.resize(rings * reachable_);
    for (std::size_t r = 0; r < rings; ++r) {
        std::uint32_t* row = offsets_.data() + r * (fe_count + 1);
        for (std::size_t l = 0; l < locations_; ++l) {
            const int f = fe_[l * rings + r];
            if (f >= 0) ++row[static_cast<std::size_t>(f) + 1];
        }
        for (std::size_t f = 0; f < fe_count; ++f) row[f + 1] += row[f];
        std::vector<std::uint32_t> cursor(row, row + fe_count);
        std::uint32_t* seg = members_.data() + r * reachable_;
        for (std::size_t l = 0; l < locations_; ++l) {
            const int f = fe_[l * rings + r];
            if (f >= 0) seg[cursor[static_cast<std::size_t>(f)]++] = static_cast<std::uint32_t>(l);
        }
    }

    rtt_order_.reserve(rings * reachable_);
    for (std::size_t cell = 0; cell < fe_.size(); ++cell) {
        if (fe_[cell] >= 0) rtt_order_.push_back(static_cast<std::uint32_t>(cell));
    }
    std::sort(rtt_order_.begin(), rtt_order_.end(), [&](std::uint32_t a, std::uint32_t b) {
        return rtt_[a] != rtt_[b] ? rtt_[a] < rtt_[b] : a < b;
    });
}

std::span<const std::uint32_t> route_plan::members(int fe, int ring) const noexcept {
    const auto fe_count = static_cast<std::size_t>(front_ends_);
    const std::uint32_t* row = offsets_.data() + static_cast<std::size_t>(ring) * (fe_count + 1);
    const auto f = static_cast<std::size_t>(fe);
    return std::span<const std::uint32_t>{
        members_.data() + static_cast<std::size_t>(ring) * reachable_ + row[f],
        static_cast<std::size_t>(row[f + 1] - row[f])};
}

namespace {

/// Proportional shed of `excess` out of `arrived` across `mem`'s pending
/// connections: floor(cur * excess / arrived) each, then the remainder
/// distributed by largest fractional part (ties to the lowest member
/// position) so the shed sums to the excess exactly. Writes each member's
/// shed amount to `next`.
void apportion_shed(std::span<const std::uint32_t> mem, const std::int64_t* cur,
                    std::int64_t excess, std::int64_t arrived, std::int64_t* next,
                    std::vector<std::pair<std::uint64_t, std::uint32_t>>& scratch) {
    scratch.clear();
    std::int64_t floor_sum = 0;
    for (std::uint32_t i = 0; i < mem.size(); ++i) {
        const std::int64_t pending = cur[mem[i]];
        if (pending == 0) continue;
        const auto prod =
            static_cast<unsigned __int128>(pending) * static_cast<unsigned __int128>(excess);
        const auto q = static_cast<std::int64_t>(prod / static_cast<unsigned __int128>(arrived));
        const auto rem = static_cast<std::uint64_t>(prod % static_cast<unsigned __int128>(arrived));
        next[mem[i]] = q;
        floor_sum += q;
        if (rem != 0) scratch.emplace_back(rem, i);
    }
    std::int64_t deficit = excess - floor_sum;
    if (deficit == 0) return;
    std::sort(scratch.begin(), scratch.end(), [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    for (std::size_t k = 0; deficit > 0; ++k, --deficit) {
        next[mem[scratch[k].second]] += 1;
    }
}

} // namespace

bucket_result assign_bucket(const route_plan& plan, std::span<const std::int64_t> offered,
                            std::span<const std::int64_t> capacity, policy_kind kind) {
    obs::span assign_span{"load/assign"};
    assign_span.set_items(plan.locations());

    const auto locations = plan.locations();
    const auto rings = static_cast<std::size_t>(plan.rings());
    const auto fe_count = static_cast<std::size_t>(plan.front_ends());

    bucket_result out;
    out.kept.assign(locations * rings, 0);
    out.fe_load.assign(fe_count, 0);

    std::vector<std::int64_t> cur(locations, 0);
    for (std::size_t l = 0; l < locations; ++l) {
        if (!plan.reachable(l)) {
            out.unreachable += offered[l];
        } else {
            cur[l] = offered[l];
            out.offered += offered[l];
        }
    }

    const int top = plan.rings() - 1;
    if (kind == policy_kind::latency_only) {
        // Everyone is served by their outermost-ring front-end.
        for (std::size_t f = 0; f < fe_count; ++f) {
            std::int64_t arrived = 0;
            for (const std::uint32_t l : plan.members(static_cast<int>(f), top)) {
                arrived += cur[l];
                out.kept[l * rings + static_cast<std::size_t>(top)] = cur[l];
            }
            out.fe_load[f] = arrived;
            out.unserved += std::max<std::int64_t>(0, arrived - capacity[f]);
        }
        out.served_first = out.offered;
        return out;
    }

    // Load-aware waterfall: outermost ring first, shed excess rides the next
    // ring inward. A front-end touches only its own members' slots in
    // `next`/`kept`, so the order of front-ends within a pass is immaterial.
    std::vector<std::int64_t> next(locations, 0);
    std::vector<std::pair<std::uint64_t, std::uint32_t>> scratch;
    for (int r = top; r >= 0; --r) {
        std::fill(next.begin(), next.end(), 0);
        std::int64_t ring_shed = 0;
        for (std::size_t f = 0; f < fe_count; ++f) {
            const auto mem = plan.members(static_cast<int>(f), r);
            std::int64_t arrived = 0;
            for (const std::uint32_t l : mem) arrived += cur[l];
            if (arrived == 0) continue;
            const std::int64_t avail = std::max<std::int64_t>(0, capacity[f] - out.fe_load[f]);
            const std::int64_t excess = std::max<std::int64_t>(0, arrived - avail);
            if (excess > 0) {
                apportion_shed(mem, cur.data(), excess, arrived, next.data(), scratch);
            }
            for (const std::uint32_t l : mem) {
                out.kept[l * rings + static_cast<std::size_t>(r)] = cur[l] - next[l];
            }
            ring_shed += excess;
            out.fe_load[f] += arrived - excess;
        }
        if (r == top) out.shed = ring_shed;
        if (r > 0) {
            out.overflow_hop_conn += ring_shed;
        } else {
            out.unserved = ring_shed;
        }
        cur.swap(next);
    }
    out.served_first = out.offered - out.shed;

    shed_counter().add(static_cast<std::uint64_t>(out.shed));
    overflow_hop_counter().add(static_cast<std::uint64_t>(out.overflow_hop_conn));
    return out;
}

} // namespace ac::load
