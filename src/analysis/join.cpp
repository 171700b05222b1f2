#include "src/analysis/join.h"

#include <algorithm>

#include "src/table/table.h"

namespace ac::analysis {

namespace {

/// Per-source daily query volume summed across letters, keyed either by /24
/// or by exact IP. Keys ascend; volumes are aligned with keys.
struct keyed_volumes {
    std::vector<std::uint32_t> keys;
    std::vector<double> volumes;

    [[nodiscard]] std::size_t size() const noexcept { return keys.size(); }
};

keyed_volumes volumes_by_key(std::span<const capture::letter_table> letters,
                             bool by_slash24) {
    std::size_t rows = 0;
    for (const auto& letter : letters) rows += letter.rows();

    table::column<std::uint32_t> keys;
    table::column<double> qpd;
    keys.reserve(rows);
    qpd.reserve(rows);
    for (const auto& letter : letters) {
        for (const std::uint32_t ip : letter.source_ip.view()) {
            keys.push_back(by_slash24 ? ip >> 8 : ip);
        }
        for (const double q : letter.queries_per_day.view()) qpd.push_back(q);
    }

    auto grouping = table::make_grouping(keys.view());
    keyed_volumes out;
    out.volumes = table::sum_by(grouping, qpd.view());
    out.keys = std::move(grouping.keys);
    return out;
}

/// The CDN-side universe at one granularity, as sorted parallel columns:
/// observed keys ascending with user counts as the CDN's volume proxy.
keyed_volumes cdn_universe(const pop::cdn_user_counts& cdn_users, bool by_slash24) {
    table::column<std::uint32_t> keys;
    table::column<double> users;
    if (by_slash24) {
        for (const auto block : cdn_users.observed_blocks()) {
            keys.push_back(block.key());
            users.push_back(cdn_users.count(block).value_or(0.0));
        }
    } else {
        for (const auto ip : cdn_users.observed_ips()) {
            keys.push_back(ip.value());
            users.push_back(cdn_users.count(ip).value_or(0.0));
        }
    }
    const auto perm = table::sort_permutation(keys.view());
    keyed_volumes out;
    out.keys = table::gather(keys.view(), perm);
    out.volumes = table::gather(users.view(), perm);
    return out;
}

} // namespace

slash24_volumes ditl_volumes_by_slash24(std::span<const capture::letter_table> letters) {
    auto keyed = volumes_by_key(letters, /*by_slash24=*/true);
    slash24_volumes out;
    out.keys = std::move(keyed.keys);
    out.volumes = std::move(keyed.volumes);
    return out;
}

amortization_result compute_amortization(std::span<const capture::letter_table> letters,
                                         const pop::user_base& base,
                                         const pop::cdn_user_counts& cdn_users,
                                         const pop::apnic_user_counts& apnic_users,
                                         const topo::ip_to_asn& as_mapper,
                                         const dns::query_model_options& model_options,
                                         const amortization_options& options,
                                         engine::thread_pool* /*pool*/) {
    amortization_result result;
    const auto volumes = volumes_by_key(letters, options.join_by_slash24);

    double total_volume = 0.0;
    double attributed_volume = 0.0;
    table::column<topo::asn_t> as_keys;
    table::column<double> as_volume_rows;

    for (std::size_t i = 0; i < volumes.size(); ++i) {
        const std::uint32_t key = volumes.keys[i];
        const double volume = volumes.volumes[i];
        total_volume += volume;
        const net::slash24 block =
            options.join_by_slash24 ? net::slash24{net::ipv4_addr{key << 8}}
                                    : net::slash24{net::ipv4_addr{key}};

        // CDN line: join with Microsoft user counts at the same granularity.
        std::optional<double> users;
        if (options.join_by_slash24) {
            users = cdn_users.count(block);
        } else {
            users = cdn_users.count(net::ipv4_addr{key});
        }
        if (users && *users > 0.0) {
            result.cdn.add(volume / *users, *users);
            attributed_volume += volume;
        }

        // APNIC accumulates by origin AS regardless of the join mode (§2.1).
        if (const auto asn = as_mapper.lookup(block)) {
            as_keys.push_back(*asn);
            as_volume_rows.push_back(volume);
        }
    }

    const auto as_grouping = table::make_grouping(as_keys.view());
    const auto volume_by_as = table::sum_by(as_grouping, as_volume_rows.view());
    for (std::size_t g = 0; g < as_grouping.groups(); ++g) {
        const auto users = apnic_users.count(as_grouping.keys[g]);
        if (users && *users > 0.0) {
            result.apnic.add(volume_by_as[g] / *users, *users);
        }
    }

    // Ideal: one query per TLD record per TTL, amortized over Microsoft user
    // counts (§4.3). The whole zone is refreshed, not just active TLDs.
    const double ideal_rate = model_options.max_tlds / model_options.ttl_days;
    for (const auto& rec : base.recursives()) {
        const auto users = cdn_users.count(rec.block);
        if (users && *users > 0.0) {
            result.ideal.add(ideal_rate / *users, *users);
        }
    }

    result.attributed_volume_fraction =
        total_volume > 0.0 ? attributed_volume / total_volume : 0.0;
    return result;
}

overlap_comparison compute_overlap(std::span<const capture::letter_table> letters,
                                   const pop::cdn_user_counts& cdn_users) {
    overlap_comparison comparison;

    for (const bool by_slash24 : {false, true}) {
        const auto ditl = volumes_by_key(letters, by_slash24);
        const auto cdn = cdn_universe(cdn_users, by_slash24);

        // One merge pass over the two sorted key columns.
        double ditl_total_volume = 0.0;
        double ditl_matched_volume = 0.0;
        std::size_t ditl_matched_sources = 0;
        double cdn_total_users = 0.0;
        double cdn_matched_users = 0.0;
        std::size_t cdn_matched_sources = 0;

        for (const double volume : ditl.volumes) ditl_total_volume += volume;
        for (const double users : cdn.volumes) cdn_total_users += users;

        std::size_t d = 0;
        std::size_t c = 0;
        while (d < ditl.size() && c < cdn.size()) {
            if (ditl.keys[d] < cdn.keys[c]) {
                ++d;
            } else if (cdn.keys[c] < ditl.keys[d]) {
                ++c;
            } else {
                ditl_matched_volume += ditl.volumes[d];
                ++ditl_matched_sources;
                cdn_matched_users += cdn.volumes[c];
                ++cdn_matched_sources;
                ++d;
                ++c;
            }
        }

        overlap_stats stats;
        stats.ditl_recursives = ditl.size() == 0
                                    ? 0.0
                                    : static_cast<double>(ditl_matched_sources) /
                                          static_cast<double>(ditl.size());
        stats.ditl_volume =
            ditl_total_volume > 0.0 ? ditl_matched_volume / ditl_total_volume : 0.0;
        stats.cdn_recursives = cdn.size() == 0
                                   ? 0.0
                                   : static_cast<double>(cdn_matched_sources) /
                                         static_cast<double>(cdn.size());
        stats.cdn_volume = cdn_total_users > 0.0 ? cdn_matched_users / cdn_total_users : 0.0;

        (by_slash24 ? comparison.by_slash24 : comparison.by_ip) = stats;
    }
    return comparison;
}

favorite_site_result compute_favorite_site(std::span<const capture::letter_table> captures,
                                           engine::thread_pool* pool) {
    favorite_site_result result;
    for (const auto& capture : captures) {
        if (capture.spec.anon == dns::anonymization::full) continue;

        table::column<std::uint32_t> s24;
        s24.reserve(capture.rows());
        for (std::size_t i = 0; i < capture.rows(); ++i) {
            s24.push_back(capture.source_ip[i] >> 8);
        }
        const auto grouping = table::make_grouping(s24.view());

        struct sample {
            double value = 0.0;
            bool keep = false;
        };
        const auto samples = table::group_reduce<sample>(
            pool, grouping,
            [&](std::uint32_t, std::span<const table::row_index> rows) {
                sample s;
                // Paper: skip /24s where only one IP queried this letter.
                std::vector<std::uint32_t> ips;
                ips.reserve(rows.size());
                for (const auto row : rows) ips.push_back(capture.source_ip[row]);
                std::sort(ips.begin(), ips.end());
                ips.erase(std::unique(ips.begin(), ips.end()), ips.end());
                if (ips.size() < 2) return s;

                // Block total accumulates in original row order (bitwise
                // reproducibility of the float sum); the favorite comes from
                // per-site runs, stably sorted so each site's sum also
                // accumulates in row order.
                double total = 0.0;
                for (const auto row : rows) total += capture.queries_per_day[row];

                std::vector<table::row_index> by_site(rows.begin(), rows.end());
                std::stable_sort(by_site.begin(), by_site.end(),
                                 [&](table::row_index a, table::row_index b) {
                                     return capture.site[a] < capture.site[b];
                                 });
                double favorite = 0.0;
                std::size_t i = 0;
                while (i < by_site.size()) {
                    const std::uint32_t site = capture.site[by_site[i]];
                    double site_volume = 0.0;
                    for (; i < by_site.size() && capture.site[by_site[i]] == site; ++i) {
                        site_volume += capture.queries_per_day[by_site[i]];
                    }
                    favorite = std::max(favorite, site_volume);
                }
                if (total <= 0.0) return s;
                s.value = 1.0 - favorite / total;
                s.keep = true;
                return s;
            });

        auto& cdf = result.fraction_not_favorite[capture.letter];
        for (const auto& s : samples) {
            if (s.keep) cdf.add(s.value, 1.0);
        }
    }
    return result;
}

} // namespace ac::analysis
