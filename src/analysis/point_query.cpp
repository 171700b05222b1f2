#include "src/analysis/point_query.h"

#include <algorithm>

#include "src/table/table.h"

namespace ac::analysis {

namespace {

/// Per-(letter, /24) contribution rows for the All-Roots expectation, the
/// same shape compute_root_inflation accumulates: grouped by /24 key so each
/// key's sums accumulate in letter-encounter order.
struct expectation_rows {
    table::column<std::uint32_t> key;
    table::column<double> gi_weighted;  // gi_ms * global-site volume
    table::column<double> volume;
    table::column<double> li_weighted;  // li_ms * TCP-covered volume
    table::column<double> lat_volume;
    table::column<double> users;
};

} // namespace

point_query_index point_query_index::build(std::span<const capture::letter_table> letters,
                                           const dns::root_system& roots,
                                           const topo::geo_database& geodb,
                                           const pop::cdn_user_counts& users,
                                           const topo::ip_to_asn& as_mapper,
                                           engine::thread_pool* pool) {
    point_query_index index;

    // Amortized points: the Fig. 3 CDN-line join, keyed instead of
    // accumulated into a CDF. Same volume aggregation, same quotient.
    const auto volumes = ditl_volumes_by_slash24(letters);
    index.slash24_keys_.reserve(volumes.size());
    index.amortized_.reserve(volumes.size());
    for (std::size_t i = 0; i < volumes.size(); ++i) {
        const net::slash24 block{net::ipv4_addr{volumes.keys[i] << 8}};
        const auto count = users.count(block);
        if (!count || *count <= 0.0) continue;  // outside the DITL∩CDN join
        amortized_point point;
        point.queries_per_day = volumes.volumes[i];
        point.users = *count;
        point.queries_per_user_day = volumes.volumes[i] / *count;
        index.slash24_keys_.push_back(volumes.keys[i]);
        index.amortized_.push_back(point);
    }

    // Inflation rollups: per-/24 All-Roots expectations from the shared
    // letter slices, then a user-weighted mean per origin AS.
    const auto geo_letters = roots.geographic_analysis_letters();
    const auto lat_letters = roots.latency_analysis_letters();
    expectation_rows rows;
    for (const auto& letter : letters) {
        const bool in_geo = std::find(geo_letters.begin(), geo_letters.end(), letter.letter) !=
                            geo_letters.end();
        if (!in_geo) continue;
        const bool in_lat = std::find(lat_letters.begin(), lat_letters.end(), letter.letter) !=
                            lat_letters.end();
        const auto slices = letter_inflation_slices(
            letter, roots.deployment_of(letter.letter), in_lat, geodb, users, {}, pool);
        for (const auto& slice : slices) {
            rows.key.push_back(slice.key);
            rows.gi_weighted.push_back(slice.gi_ms * slice.vol_total);
            rows.volume.push_back(slice.vol_total);
            rows.li_weighted.push_back(slice.has_li ? slice.li_ms * slice.lat_vol : 0.0);
            rows.lat_volume.push_back(slice.has_li ? slice.lat_vol : 0.0);
            rows.users.push_back(slice.weight);
        }
    }

    const auto grouping = table::make_grouping(rows.key.view());
    const auto gi_sums = table::sum_by(grouping, rows.gi_weighted.view());
    const auto vol_sums = table::sum_by(grouping, rows.volume.view());
    const auto li_sums = table::sum_by(grouping, rows.li_weighted.view());
    const auto lat_sums = table::sum_by(grouping, rows.lat_volume.view());

    // Map each /24 expectation to its origin AS; /24 keys ascend, so each
    // AS's accumulation order is fixed by construction.
    table::column<topo::asn_t> as_keys;
    table::column<double> as_gi;   // weight * E[gi]
    table::column<double> as_li;   // weight * E[li] over latency-covered /24s
    table::column<double> as_w;    // user weight
    table::column<double> as_lw;   // user weight behind the latency mean
    for (std::size_t g = 0; g < grouping.groups(); ++g) {
        if (vol_sums[g] <= 0.0) continue;
        const net::slash24 block{net::ipv4_addr{grouping.keys[g] << 8}};
        const auto asn = as_mapper.lookup(block);
        if (!asn) continue;
        const double weight = rows.users[grouping.rows(g).back()];
        as_keys.push_back(*asn);
        as_gi.push_back(weight * (gi_sums[g] / vol_sums[g]));
        as_w.push_back(weight);
        if (lat_sums[g] > 0.0) {
            as_li.push_back(weight * (li_sums[g] / lat_sums[g]));
            as_lw.push_back(weight);
        } else {
            as_li.push_back(0.0);
            as_lw.push_back(0.0);
        }
    }

    const auto as_grouping = table::make_grouping(as_keys.view());
    const auto gi_by_as = table::sum_by(as_grouping, as_gi.view());
    const auto w_by_as = table::sum_by(as_grouping, as_w.view());
    const auto li_by_as = table::sum_by(as_grouping, as_li.view());
    const auto lw_by_as = table::sum_by(as_grouping, as_lw.view());
    index.asns_.reserve(as_grouping.groups());
    index.inflation_.reserve(as_grouping.groups());
    for (std::size_t g = 0; g < as_grouping.groups(); ++g) {
        if (w_by_as[g] <= 0.0) continue;
        as_inflation_point point;
        point.gi_ms = gi_by_as[g] / w_by_as[g];
        point.users = w_by_as[g];
        point.slash24s = static_cast<std::uint32_t>(as_grouping.rows(g).size());
        if (lw_by_as[g] > 0.0) {
            point.li_ms = li_by_as[g] / lw_by_as[g];
            point.has_latency = true;
        }
        index.asns_.push_back(as_grouping.keys[g]);
        index.inflation_.push_back(point);
    }
    return index;
}

const amortized_point* point_query_index::amortized(std::uint32_t slash24_key) const noexcept {
    const auto it = std::lower_bound(slash24_keys_.begin(), slash24_keys_.end(), slash24_key);
    if (it == slash24_keys_.end() || *it != slash24_key) return nullptr;
    return &amortized_[static_cast<std::size_t>(it - slash24_keys_.begin())];
}

const as_inflation_point* point_query_index::inflation(topo::asn_t asn) const noexcept {
    const auto it = std::lower_bound(asns_.begin(), asns_.end(), asn);
    if (it == asns_.end() || *it != asn) return nullptr;
    return &inflation_[static_cast<std::size_t>(it - asns_.begin())];
}

std::optional<as_inflation_point> inflation_for_as(const point_query_index& index,
                                                   topo::asn_t asn) {
    const auto* point = index.inflation(asn);
    if (point == nullptr) return std::nullopt;
    return *point;
}

std::optional<amortized_point> amortized_for_slash24(const point_query_index& index,
                                                     net::slash24 block) {
    const auto* point = index.amortized(block.key());
    if (point == nullptr) return std::nullopt;
    return *point;
}

} // namespace ac::analysis
