#include "src/analysis/inflation.h"

#include <algorithm>
#include <cmath>

#include "src/netbase/geo.h"
#include "src/table/table.h"

namespace ac::analysis {

namespace {

/// Row-major accumulator columns for the All-Roots expectation: one row per
/// (letter, /24) contribution, grouped by /24 key at the end so per-key sums
/// accumulate in letter-encounter order.
struct all_roots_rows {
    table::column<std::uint32_t> key;
    table::column<double> weighted_inflation;  // per-letter inflation * volume
    table::column<double> volume;
    table::column<double> users;

    void push(std::uint32_t k, double inflation, double vol, double w) {
        key.push_back(k);
        weighted_inflation.push_back(inflation * vol);
        volume.push_back(vol);
        users.push_back(w);
    }

    void finalize_into(weighted_cdf& cdf) const {
        const auto grouping = table::make_grouping(key.view());
        const auto inflation_sums = table::sum_by(grouping, weighted_inflation.view());
        const auto volume_sums = table::sum_by(grouping, volume.view());
        for (std::size_t g = 0; g < grouping.groups(); ++g) {
            if (volume_sums[g] > 0.0) {
                // A /24's user weight is the same in every letter; take the
                // last row's, matching assignment semantics.
                cdf.add(inflation_sums[g] / volume_sums[g], users[grouping.rows(g).back()]);
            }
        }
    }
};

} // namespace

double root_inflation_result::efficiency(char letter) const {
    auto it = geographic.find(letter);
    if (it == geographic.end() || it->second.empty()) return 0.0;
    return it->second.fraction_leq(zero_inflation_epsilon_ms);
}

std::vector<slash24_inflation> letter_inflation_slices(const capture::letter_table& letter,
                                                       const anycast::deployment& dep,
                                                       bool include_latency,
                                                       const topo::geo_database& geodb,
                                                       const pop::cdn_user_counts& users,
                                                       const root_inflation_options& options,
                                                       engine::thread_pool* pool) {
    /// Reduction output; has_gi marks /24s that survive the filters so they
    /// can be committed serially in key order after the parallel reduce.
    struct slash24_slice {
        slash24_inflation value;
        bool has_gi = false;
    };

    // Median TCP RTT per packed (source /24 key << 32) | site.
    table::sorted_lookup<std::uint64_t, double> tcp_median;
    if (include_latency) {
        tcp_median = table::sorted_lookup<std::uint64_t, double>(
            letter.tcp_key.view(), letter.tcp_median_rtt_ms.view());
    }

    table::column<std::uint32_t> s24;
    s24.reserve(letter.rows());
    for (const std::uint32_t ip : letter.source_ip.view()) s24.push_back(ip >> 8);
    const auto grouping = table::make_grouping(s24.view());

    const auto slices = table::group_reduce<slash24_slice>(
        pool, grouping,
        [&](std::uint32_t key, std::span<const table::row_index> rows) {
            slash24_slice slice;
            const net::slash24 block{net::ipv4_addr{key << 8}};
            const auto located = geodb.locate(block);
            if (!located) return slice;  // unallocated (e.g. scrambled) source

            double weight = 1.0;
            if (options.weight_by_users) {
                const auto count = users.count(block);
                if (!count) return slice;  // outside the DITL∩CDN join
                weight = *count;
            }

            // Per-site volume runs: rows stably sorted by site keep the
            // original row order inside each site, so each site's sum is
            // bitwise what the row-order aggregation produced.
            std::vector<table::row_index> by_site(rows.begin(), rows.end());
            std::stable_sort(by_site.begin(), by_site.end(),
                             [&](table::row_index a, table::row_index b) {
                                 return letter.site[a] < letter.site[b];
                             });

            // Per-site aggregation over *global* sites only.
            double vol_total = 0.0;
            double dist_weighted = 0.0;  // sum of volume * distance
            double lat_vol = 0.0;
            double lat_weighted = 0.0;   // sum of volume * median RTT
            std::size_t i = 0;
            while (i < by_site.size()) {
                const std::uint32_t site_id = letter.site[by_site[i]];
                double site_volume = 0.0;
                for (; i < by_site.size() && letter.site[by_site[i]] == site_id; ++i) {
                    site_volume += letter.queries_per_day[by_site[i]];
                }
                const auto& site = dep.site_at(site_id);
                if (site.scope != route::announcement_scope::global) continue;
                const auto site_loc = dep.regions().at(site.region).location;
                const double d = geo::distance_km(*located, site_loc);
                vol_total += site_volume;
                dist_weighted += site_volume * d;
                if (include_latency) {
                    const auto* rtt = tcp_median.find((std::uint64_t{key} << 32) | site_id);
                    if (rtt) {
                        lat_vol += site_volume;
                        lat_weighted += site_volume * *rtt;
                    }
                }
            }
            if (vol_total <= 0.0) return slice;

            const double min_km = dep.nearest_global_site_km(*located);
            const double avg_km = dist_weighted / vol_total;
            slice.value.key = key;
            slice.value.gi_ms = std::max(
                0.0, geo::round_trip_fiber_ms(avg_km) - geo::round_trip_fiber_ms(min_km));
            slice.value.weight = weight;
            slice.value.vol_total = vol_total;
            slice.has_gi = true;

            if (include_latency && lat_vol > 0.0) {
                const double avg_rtt = lat_weighted / lat_vol;
                slice.value.li_ms = std::max(0.0, avg_rtt - geo::best_case_rtt_ms(min_km));
                slice.value.lat_vol = lat_vol;
                slice.value.has_li = true;
            }
            return slice;
        });

    std::vector<slash24_inflation> out;
    out.reserve(slices.size());
    for (const auto& slice : slices) {
        if (slice.has_gi) out.push_back(slice.value);
    }
    return out;
}

root_inflation_result compute_root_inflation(std::span<const capture::letter_table> letters,
                                             const dns::root_system& roots,
                                             const topo::geo_database& geodb,
                                             const pop::cdn_user_counts& users,
                                             const root_inflation_options& options,
                                             engine::thread_pool* pool) {
    root_inflation_result result;
    const auto geo_letters = roots.geographic_analysis_letters();
    const auto lat_letters = roots.latency_analysis_letters();

    all_roots_rows gi_all;
    all_roots_rows li_all;

    for (const auto& letter : letters) {
        const bool in_geo = std::find(geo_letters.begin(), geo_letters.end(), letter.letter) !=
                            geo_letters.end();
        if (!in_geo) continue;
        const bool in_lat = std::find(lat_letters.begin(), lat_letters.end(), letter.letter) !=
                            lat_letters.end();
        const auto& dep = roots.deployment_of(letter.letter);

        const auto slices =
            letter_inflation_slices(letter, dep, in_lat, geodb, users, options, pool);

        auto& gi_cdf = result.geographic[letter.letter];
        weighted_cdf* li_cdf = in_lat ? &result.latency[letter.letter] : nullptr;
        for (const auto& slice : slices) {
            gi_cdf.add(slice.gi_ms, slice.weight);
            gi_all.push(slice.key, slice.gi_ms, slice.vol_total, slice.weight);
            if (slice.has_li) {
                li_cdf->add(slice.li_ms, slice.weight);
                li_all.push(slice.key, slice.li_ms, slice.lat_vol, slice.weight);
            }
        }
    }

    gi_all.finalize_into(result.geographic_all_roots);
    li_all.finalize_into(result.latency_all_roots);
    return result;
}

double cdn_inflation_result::efficiency(int ring) const {
    const auto& cdf = geographic_by_ring.at(static_cast<std::size_t>(ring));
    return cdf.empty() ? 0.0 : cdf.fraction_leq(zero_inflation_epsilon_ms);
}

cdn_inflation_result compute_cdn_inflation(const cdn::server_log_table& logs,
                                           const cdn::cdn_network& cdn) {
    cdn_inflation_result result;
    result.geographic_by_ring.resize(static_cast<std::size_t>(cdn.ring_count()));
    result.latency_by_ring.resize(static_cast<std::size_t>(cdn.ring_count()));

    for (std::size_t i = 0; i < logs.rows(); ++i) {
        const auto ring = static_cast<std::size_t>(logs.ring[i]);
        const double min_km = cdn.nearest_front_end_km(logs.region[i], logs.ring[i]);
        const double gi_ms =
            std::max(0.0, geo::round_trip_fiber_ms(logs.front_end_km[i]) -
                              geo::round_trip_fiber_ms(min_km));
        const double li_ms =
            std::max(0.0, logs.median_rtt_ms[i] - geo::best_case_rtt_ms(min_km));
        result.geographic_by_ring[ring].add(gi_ms, logs.users[i]);
        result.latency_by_ring[ring].add(li_ms, logs.users[i]);
    }
    return result;
}

} // namespace ac::analysis
