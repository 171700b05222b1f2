#include "src/analysis/cdn_latency.h"

#include <algorithm>
#include <map>
#include <utility>

namespace ac::analysis {

user_proximity compute_user_proximity(const cdn::cdn_network& cdn, const pop::user_base& base,
                                      const topo::region_table& regions) {
    user_proximity out;
    for (const topo::region_id id : cdn.front_end_regions()) {
        ++out.front_ends_by_continent[static_cast<std::size_t>(regions.at(id).cont)];
    }
    for (int ring = 0; ring < cdn.ring_count(); ++ring) {
        double within_500 = 0.0;
        double within_1000 = 0.0;
        double total = 0.0;
        for (const auto& loc : base.locations()) {
            const double d = cdn.nearest_front_end_km(loc.region, ring);
            total += loc.users;
            if (d <= 500.0) within_500 += loc.users;
            if (d <= 1000.0) within_1000 += loc.users;
        }
        out.within_500km.push_back(within_500 / total);
        out.within_1000km.push_back(within_1000 / total);
    }
    return out;
}

std::vector<weighted_cdf> probe_ring_latency(const atlas::probe_fleet& fleet,
                                             const cdn::cdn_network& cdn, int probes,
                                             std::uint64_t seed) {
    const auto sampled = fleet.sample(probes, seed);
    std::vector<weighted_cdf> out(static_cast<std::size_t>(cdn.ring_count()));
    for (int ring = 0; ring < cdn.ring_count(); ++ring) {
        for (const auto& p : sampled) {
            const auto result = atlas::ping_ring(p, cdn, ring, /*attempts=*/3, seed);
            if (result.reachable) out[static_cast<std::size_t>(ring)].add(result.rtt_ms, 1.0);
        }
    }
    return out;
}

std::vector<weighted_cdf> ring_step_delta(std::span<const cdn::client_measurement_row> rows,
                                          int ring_count, double fetch_rtt_multiple) {
    // (asn, region) -> per-ring median fetch, -1 where the ring is unmeasured.
    std::map<std::pair<topo::asn_t, topo::region_id>, std::vector<double>> by_location;
    for (const auto& row : rows) {
        auto& fetch = by_location[{row.asn, row.region}];
        fetch.resize(static_cast<std::size_t>(ring_count), -1.0);
        fetch[static_cast<std::size_t>(row.ring)] = row.median_fetch_ms;
    }
    std::vector<weighted_cdf> out(static_cast<std::size_t>(std::max(ring_count - 1, 0)));
    for (std::size_t step = 0; step < out.size(); ++step) {
        for (const auto& [location, fetch] : by_location) {
            const double smaller = fetch[step];
            const double larger = fetch[step + 1];
            if (smaller < 0.0 || larger < 0.0) continue;
            out[step].add((smaller - larger) / fetch_rtt_multiple, 1.0);
        }
    }
    return out;
}

latency_map compute_latency_map(const cdn::server_log_table& logs, const cdn::cdn_network& cdn,
                                const topo::region_table& regions) {
    const int largest = cdn.ring_count() - 1;
    double slowest = 1.0;
    for (std::size_t i = 0; i < logs.rows(); ++i) {
        if (logs.ring[i] == largest) slowest = std::max(slowest, logs.median_rtt_ms[i]);
    }
    latency_map out;
    for (std::size_t i = 0; i < logs.rows(); ++i) {
        if (logs.ring[i] != largest) continue;
        const auto& region = regions.at(logs.region[i]);
        const double median = logs.median_rtt_ms[i];
        const double users = logs.users[i];
        out.relative_by_continent[static_cast<std::size_t>(region.cont)].add(median / slowest,
                                                                              users);
        const double d = cdn.nearest_front_end_km(region.id, largest);
        if (d < 500.0) out.near_users.add(median, users);
        if (d > 2000.0) out.far_users.add(median, users);
    }
    return out;
}

} // namespace ac::analysis
