#include "src/anycast/placement.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "src/netbase/rng.h"

namespace ac::anycast {

namespace {

struct user_point {
    topo::region_id region;
    double users;
};

std::vector<user_point> collect_users(const pop::user_base& users,
                                      const topo::region_table& regions) {
    // Aggregate user mass per region (AS identity is irrelevant to distance).
    std::vector<double> mass(regions.size(), 0.0);
    for (const auto& loc : users.locations()) mass[loc.region] += loc.users;
    std::vector<user_point> out;
    out.reserve(regions.size());
    for (std::size_t r = 0; r < regions.size(); ++r) {
        if (mass[r] > 0.0) out.push_back(user_point{regions.all()[r].id, mass[r]});
    }
    return out;
}

} // namespace

std::vector<topo::region_id> greedy_placement(const pop::user_base& users,
                                              const topo::region_table& regions, int count) {
    if (count <= 0) return {};
    const auto points = collect_users(users, regions);
    if (points.empty()) throw std::invalid_argument("greedy_placement: no users");

    std::vector<topo::region_id> chosen;
    std::vector<bool> used(regions.size(), false);
    // Current distance from each user point to its nearest chosen site.
    std::vector<double> nearest(points.size(), std::numeric_limits<double>::infinity());

    // Distances are region-to-region, so every pair is a lookup in the
    // region distance table.
    for (int k = 0; k < count && static_cast<std::size_t>(k) < regions.size(); ++k) {
        topo::region_id best_region = 0;
        double best_objective = std::numeric_limits<double>::infinity();
        for (const auto& candidate : regions.all()) {
            if (used[candidate.id]) continue;
            if (candidate.cont == topo::continent::antarctica) continue;
            double objective = 0.0;
            for (std::size_t i = 0; i < points.size(); ++i) {
                const double d =
                    std::min(nearest[i], regions.distance_km(points[i].region, candidate.id));
                objective += d * points[i].users;
            }
            if (objective < best_objective) {
                best_objective = objective;
                best_region = candidate.id;
            }
        }
        used[best_region] = true;
        chosen.push_back(best_region);
        for (std::size_t i = 0; i < points.size(); ++i) {
            nearest[i] = std::min(nearest[i], regions.distance_km(points[i].region, best_region));
        }
    }
    return chosen;
}

std::vector<topo::region_id> random_placement(const topo::region_table& regions, int count,
                                              std::uint64_t seed) {
    rand::rng gen{rand::mix_seed(seed, 0x91aceull)};
    std::vector<topo::region_id> pool;
    for (const auto& r : regions.all()) {
        if (r.cont != topo::continent::antarctica) pool.push_back(r.id);
    }
    gen.shuffle(pool);
    pool.resize(std::min<std::size_t>(static_cast<std::size_t>(std::max(count, 0)), pool.size()));
    return pool;
}

double mean_user_distance_km(const pop::user_base& users, const topo::region_table& regions,
                             std::span<const topo::region_id> sites) {
    if (sites.empty()) throw std::invalid_argument("mean_user_distance_km: no sites");
    for (topo::region_id s : sites) {
        if (s >= regions.size()) throw std::out_of_range("mean_user_distance_km: unknown region");
    }
    double weighted = 0.0;
    double total = 0.0;
    for (const auto& loc : users.locations()) {
        double nearest = std::numeric_limits<double>::infinity();
        for (topo::region_id s : sites) {
            nearest = std::min(nearest, regions.distance_km(loc.region, s));
        }
        weighted += nearest * loc.users;
        total += loc.users;
    }
    return total > 0.0 ? weighted / total : 0.0;
}

} // namespace ac::anycast
