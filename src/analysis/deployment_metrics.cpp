#include "src/analysis/deployment_metrics.h"

#include <algorithm>
#include <limits>

#include "src/netbase/geo.h"
#include "src/table/table.h"

namespace ac::analysis {

namespace {

coverage_curve curve_from_distances(std::string name, int global_sites,
                                    const weighted_cdf& distances,
                                    std::span<const double> radii_km) {
    coverage_curve curve;
    curve.name = std::move(name);
    curve.global_sites = global_sites;
    curve.radii_km.assign(radii_km.begin(), radii_km.end());
    curve.covered_fraction.reserve(radii_km.size());
    for (double r : radii_km) curve.covered_fraction.push_back(distances.fraction_leq(r));
    return curve;
}

} // namespace

coverage_curve compute_coverage(const anycast::deployment& dep, const pop::user_base& base,
                                const topo::region_table& /*regions*/,
                                std::span<const double> radii_km) {
    weighted_cdf distances;
    for (const auto& loc : base.locations()) {
        distances.add(dep.nearest_global_site_km(loc.region), loc.users);
    }
    return curve_from_distances(dep.name(), dep.global_site_count(), distances, radii_km);
}

coverage_curve compute_ring_coverage(const cdn::cdn_network& cdn, int ring,
                                     const pop::user_base& base,
                                     const topo::region_table& /*regions*/,
                                     std::span<const double> radii_km) {
    weighted_cdf distances;
    for (const auto& loc : base.locations()) {
        distances.add(cdn.nearest_front_end_km(loc.region, ring), loc.users);
    }
    return curve_from_distances(cdn.ring_name(ring), cdn.ring_size(ring), distances, radii_km);
}

coverage_curve compute_all_roots_coverage(const dns::root_system& roots,
                                          const pop::user_base& base,
                                          const topo::region_table& /*regions*/,
                                          std::span<const double> radii_km) {
    weighted_cdf distances;
    int total_sites = 0;
    for (char letter : roots.all_letters()) {
        total_sites += roots.deployment_of(letter).global_site_count();
    }
    for (const auto& loc : base.locations()) {
        double best = std::numeric_limits<double>::infinity();
        for (char letter : roots.all_letters()) {
            best = std::min(best, roots.deployment_of(letter).nearest_global_site_km(loc.region));
        }
        distances.add(best, loc.users);
    }
    return curve_from_distances("All Roots", total_sites, distances, radii_km);
}

double median_probe_latency(const atlas::probe_fleet& fleet, const anycast::deployment& dep,
                            std::uint64_t seed) {
    std::vector<double> rtts;
    rtts.reserve(fleet.probes().size());
    for (const auto& p : fleet.probes()) {
        const auto result = atlas::ping(p, dep, /*attempts=*/3, seed);
        if (result.reachable) rtts.push_back(result.rtt_ms);
    }
    return median_of(std::move(rtts));
}

double median_probe_latency_to_ring(const atlas::probe_fleet& fleet,
                                    const cdn::cdn_network& cdn, int ring,
                                    std::uint64_t seed) {
    std::vector<double> rtts;
    rtts.reserve(fleet.probes().size());
    for (const auto& p : fleet.probes()) {
        const auto result = atlas::ping_ring(p, cdn, ring, /*attempts=*/3, seed);
        if (result.reachable) rtts.push_back(result.rtt_ms);
    }
    return median_of(std::move(rtts));
}

namespace {

constexpr std::size_t length_bucket(int length) {
    if (length <= 2) return 0;
    if (length == 3) return 1;
    if (length == 4) return 2;
    return 3;
}

constexpr std::size_t inflation_bucket(int length) {
    if (length <= 2) return 0;
    if (length == 3) return 1;
    return 2;  // 4+
}

struct destination_acc {
    std::array<double, 4> length_weight{};
    std::array<weighted_cdf, 3> inflation;
    double total_weight = 0.0;

    void record(int length, double gi_ms) {
        length_weight[length_bucket(length)] += 1.0;
        total_weight += 1.0;
        inflation[inflation_bucket(length)].add(gi_ms, 1.0);
    }
};

} // namespace

aspath_study_result run_aspath_study(const atlas::probe_fleet& fleet,
                                     const dns::root_system& roots,
                                     const cdn::cdn_network& cdn,
                                     const topo::as_graph& graph) {
    // Deduplicate probes to <region, AS> locations (the paper weights
    // locations, not probes): one grouping over packed keys, keeping each
    // group's first row, visited in ascending key order.
    const auto& probes = fleet.probes();
    table::column<std::uint64_t> loc_keys;
    loc_keys.reserve(probes.size());
    for (const auto& p : probes) {
        loc_keys.push_back((std::uint64_t{p.asn} << 32) | p.region);
    }
    const auto locations = table::make_grouping(loc_keys.view());

    // Samples as columns, tagged by destination id; grouped once at the end.
    constexpr std::uint32_t dest_cdn = 0;
    constexpr std::uint32_t dest_all_roots = 1;
    constexpr std::uint32_t dest_letter0 = 2;
    const auto letters = roots.geographic_analysis_letters();

    const auto& regions = cdn.regions();
    table::column<std::uint32_t> dest;
    table::column<int> length_col;
    table::column<double> gi_col;

    for (std::size_t g = 0; g < locations.groups(); ++g) {
        const auto& probe = probes[locations.rows(g).front()];

        // CDN: external path is ring-independent; inflation uses R110.
        if (const auto path = cdn.evaluate(probe.asn, probe.region, cdn.ring_count() - 1)) {
            const int length = atlas::organization_path_length(
                cdn.pop_rib().as_path(probe.asn, path->site), graph);
            const double min_km = cdn.nearest_front_end_km(probe.region, cdn.ring_count() - 1);
            const double gi = std::max(0.0, geo::round_trip_fiber_ms(path->front_end_km) -
                                                geo::round_trip_fiber_ms(min_km));
            dest.push_back(dest_cdn);
            length_col.push_back(length);
            gi_col.push_back(gi);
        }

        // Letters, individually and pooled as "All Roots" (grouped by
        // <region, AS, root>, so each letter contributes one sample).
        for (std::size_t li = 0; li < letters.size(); ++li) {
            const auto& dep = roots.deployment_of(letters[li]);
            const auto path = dep.rib().select(probe.asn, probe.region);
            if (!path) continue;
            const int length =
                atlas::organization_path_length(dep.rib().as_path(probe.asn, path->site), graph);
            const double site_km =
                regions.distance_km(probe.region, dep.site_at(path->site).region);
            const double min_km = dep.nearest_global_site_km(probe.region);
            const double gi = std::max(0.0, geo::round_trip_fiber_ms(site_km) -
                                                geo::round_trip_fiber_ms(min_km));
            dest.push_back(dest_letter0 + static_cast<std::uint32_t>(li));
            length_col.push_back(length);
            gi_col.push_back(gi);
            dest.push_back(dest_all_roots);
            length_col.push_back(length);
            gi_col.push_back(gi);
        }
    }

    // Per-destination accumulators over the grouped sample columns, rows in
    // original append order.
    const auto by_dest = table::make_grouping(dest.view());
    std::vector<destination_acc> accs(by_dest.groups());
    for (std::size_t g = 0; g < by_dest.groups(); ++g) {
        for (const auto row : by_dest.rows(g)) {
            accs[g].record(length_col[row], gi_col[row]);
        }
    }
    const auto acc_of = [&](std::uint32_t id) -> const destination_acc* {
        const auto it = std::lower_bound(by_dest.keys.begin(), by_dest.keys.end(), id);
        if (it == by_dest.keys.end() || *it != id) return nullptr;
        return &accs[static_cast<std::size_t>(it - by_dest.keys.begin())];
    };

    aspath_study_result result;
    // Stable presentation order: CDN, All Roots, then letters by size desc.
    std::vector<std::pair<std::string, std::uint32_t>> order{{"CDN", dest_cdn},
                                                             {"All Roots", dest_all_roots}};
    std::vector<std::pair<int, std::size_t>> sized;
    for (std::size_t li = 0; li < letters.size(); ++li) {
        sized.emplace_back(roots.deployment_of(letters[li]).global_site_count(), li);
    }
    std::sort(sized.begin(), sized.end(), [&](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return letters[a.second] > letters[b.second];  // ties: letter desc
    });
    for (const auto& [_, li] : sized) {
        order.emplace_back(std::string{letters[li]},
                           dest_letter0 + static_cast<std::uint32_t>(li));
    }

    for (const auto& [name, id] : order) {
        const auto* acc = acc_of(id);
        if (acc == nullptr || acc->total_weight <= 0.0) continue;
        path_length_distribution dist;
        dist.destination = name;
        for (std::size_t b = 0; b < 4; ++b) {
            dist.share[b] = acc->length_weight[b] / acc->total_weight;
        }
        result.lengths.push_back(dist);

        inflation_by_path_length infl;
        infl.destination = name;
        for (std::size_t b = 0; b < 3; ++b) {
            infl.boxes[b] = summarize(acc->inflation[b]);
        }
        result.inflation.push_back(infl);
    }
    return result;
}

} // namespace ac::analysis
