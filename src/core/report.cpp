#include "src/core/report.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "src/analysis/cdn_latency.h"
#include "src/analysis/deployment_metrics.h"
#include "src/analysis/inflation.h"
#include "src/analysis/join.h"
#include "src/netbase/strfmt.h"
#include "src/obs/trace.h"

namespace ac::core {

namespace {

constexpr int cdf_points = 200;  // samples per CDF curve

std::ofstream open_csv(const std::filesystem::path& path, const std::string& header) {
    std::ofstream out{path};
    if (!out) {
        throw std::runtime_error("report: cannot open " + path.string() + " for writing");
    }
    out << header << "\n";
    out.precision(10);
    return out;
}

void write_cdf(std::ofstream& out, const std::string& series,
               const analysis::weighted_cdf& cdf) {
    for (const auto& [value, q] : cdf.curve(cdf_points)) {
        out << series << "," << value << "," << q << "\n";
    }
}

void write_amortization(std::ofstream& out, const analysis::amortization_result& r) {
    write_cdf(out, "ideal", r.ideal);
    write_cdf(out, "cdn", r.cdn);
    write_cdf(out, "apnic", r.apnic);
}

} // namespace

std::vector<std::string> write_figure_csvs(const world& w, const std::string& directory) {
    const std::filesystem::path dir{directory};
    std::filesystem::create_directories(dir);
    std::vector<std::string> written;
    auto record = [&](const std::filesystem::path& p) { written.push_back(p.string()); };
    const auto& cdn = w.cdn_net();

    // The scalars EXPERIMENTS.md quotes, one row each, added by the figure
    // blocks below. A quantile or a ratio of quantiles is left out when its
    // series is empty: a sweep cell may measure nothing there.
    const auto headline_path = dir / "headline_numbers.csv";
    auto headline = open_csv(headline_path, "artifact,statistic,value");
    const auto note = [&](const char* artifact, const std::string& statistic, double value) {
        headline << artifact << "," << statistic << "," << value << "\n";
    };
    const auto note_quantile = [&](const char* artifact, const std::string& statistic,
                                   const analysis::weighted_cdf& cdf, double q,
                                   double scale = 1.0) {
        if (!cdf.empty()) note(artifact, statistic, cdf.quantile(q) * scale);
    };
    const auto note_median_ratio = [&](const char* artifact, const std::string& statistic,
                                       const analysis::weighted_cdf& numerator,
                                       const analysis::weighted_cdf& denominator) {
        if (numerator.empty() || denominator.empty()) return;
        note(artifact, statistic, numerator.median() / denominator.median());
    };

    // Root and CDN inflation feed several figures, so each gets its own
    // span ahead of the per-figure ones.
    const auto root_inflation = [&] {
        obs::span span{"report/root_inflation"};
        return analysis::compute_root_inflation(w.filtered_tables(), w.roots(), w.geodb(),
                                                w.cdn_user_counts(), {}, w.pool());
    }();
    const auto cdn_inflation = [&] {
        obs::span span{"report/cdn_inflation"};
        return analysis::compute_cdn_inflation(w.server_log_table(), cdn);
    }();

    {
        obs::span span{"report/fig01"};
        const auto proximity = analysis::compute_user_proximity(cdn, w.users(), w.regions());
        for (std::size_t c = 0; c < analysis::continent_count; ++c) {
            if (proximity.front_ends_by_continent[c] == 0) continue;
            note("fig01",
                 "front_ends." + std::string{topo::to_string(static_cast<topo::continent>(c))},
                 proximity.front_ends_by_continent[c]);
        }
        for (int ring = 0; ring < cdn.ring_count(); ++ring) {
            const auto r = static_cast<std::size_t>(ring);
            note("fig01", cdn.ring_name(ring) + ".users_within_500km", proximity.within_500km[r]);
            note("fig01", cdn.ring_name(ring) + ".users_within_1000km",
                 proximity.within_1000km[r]);
        }
    }
    {
        obs::span span{"report/fig02a"};
        const auto path = dir / "fig02a_root_geographic_inflation.csv";
        auto out = open_csv(path, "series,inflation_ms,cdf");
        for (const auto& [letter, cdf] : root_inflation.geographic) {
            write_cdf(out, std::string{letter}, cdf);
        }
        const auto& all_roots = root_inflation.geographic_all_roots;
        write_cdf(out, "all-roots", all_roots);
        for (const double ms : {0.5, 10.0, 20.0, 50.0}) {
            note("fig02a", "all-roots.share_leq_" + strfmt::fixed(ms, ms < 1.0 ? 1 : 0) + "ms",
                 all_roots.fraction_leq(ms));
        }
        record(path);
    }
    {
        obs::span span{"report/fig02b"};
        const auto path = dir / "fig02b_root_latency_inflation.csv";
        auto out = open_csv(path, "series,inflation_ms,cdf");
        for (const auto& [letter, cdf] : root_inflation.latency) {
            write_cdf(out, std::string{letter}, cdf);
            note("fig02b", std::string{letter} + ".share_above_100ms", cdf.fraction_above(100.0));
        }
        write_cdf(out, "all-roots", root_inflation.latency_all_roots);
        note("fig02b", "all-roots.share_above_100ms",
             root_inflation.latency_all_roots.fraction_above(100.0));
        record(path);
    }
    // Figs. 8 and 9 compare their variants against this one.
    analysis::amortization_result amortized;
    {
        obs::span span{"report/fig03"};
        amortized = analysis::compute_amortization(
            w.filtered_tables(), w.users(), w.cdn_user_counts(), w.apnic_user_counts(),
            w.as_mapper(), w.config().query_model, {}, w.pool());
        const auto path = dir / "fig03_queries_per_user.csv";
        auto out = open_csv(path, "series,queries_per_user_day,cdf");
        write_amortization(out, amortized);
        for (const auto& [series, cdf] :
             {std::pair{"ideal", &amortized.ideal}, std::pair{"cdn", &amortized.cdn},
              std::pair{"apnic", &amortized.apnic}}) {
            note_quantile("fig03", std::string{series} + ".median", *cdf, 0.5);
        }
        note("fig03", "cdn.share_leq_1_per_day", amortized.cdn.fraction_leq(1.0));
        note_median_ratio("fig03", "cdn_over_ideal_median", amortized.cdn, amortized.ideal);
        note("fig03", "attributed_volume_fraction", amortized.attributed_volume_fraction);
        record(path);
    }
    {
        obs::span span{"report/fig04a"};
        // §5.1: ~1,000 probes, three pings per ring; a page load is at
        // least ten RTTs.
        constexpr int rtts_per_page = 10;
        const auto latency = analysis::probe_ring_latency(w.fleet(), cdn, 1000, 404);
        const auto path = dir / "fig04a_probe_ring_latency.csv";
        auto out = open_csv(path, "ring,rtt_ms,cdf");
        for (int ring = 0; ring < cdn.ring_count(); ++ring) {
            const auto& cdf = latency[static_cast<std::size_t>(ring)];
            write_cdf(out, cdn.ring_name(ring), cdf);
            note_quantile("fig04a", cdn.ring_name(ring) + ".median_ms_per_page", cdf, 0.5,
                          rtts_per_page);
            note_quantile("fig04a", cdn.ring_name(ring) + ".p90_ms_per_page", cdf, 0.9,
                          rtts_per_page);
        }
        record(path);
    }
    {
        obs::span span{"report/fig04b"};
        const auto deltas = analysis::ring_step_delta(w.client_measurements(), cdn.ring_count(),
                                                      w.config().telemetry.fetch_rtt_multiple);
        const auto path = dir / "fig04b_ring_step_delta.csv";
        auto out = open_csv(path, "step,delta_ms,cdf");
        for (std::size_t step = 0; step < deltas.size(); ++step) {
            const auto& cdf = deltas[step];
            const int ring = static_cast<int>(step);
            const auto name = cdn.ring_name(ring) + "-" + cdn.ring_name(ring + 1);
            write_cdf(out, name, cdf);
            if (cdf.empty()) continue;
            note("fig04b", name + ".median_ms_per_rtt", cdf.median());
            note("fig04b", name + ".improved_or_equal", cdf.fraction_above(-0.01));
            note("fig04b", name + ".share_regressed_over_10ms", cdf.fraction_leq(-10.0));
        }
        record(path);
    }
    {
        obs::span span{"report/fig05a"};
        const auto path = dir / "fig05a_cdn_geographic_inflation.csv";
        auto out = open_csv(path, "series,inflation_ms,cdf");
        double mean_inflated = 0.0;
        for (int ring = 0; ring < cdn.ring_count(); ++ring) {
            const auto& cdf = cdn_inflation.geographic_by_ring[static_cast<std::size_t>(ring)];
            write_cdf(out, cdn.ring_name(ring), cdf);
            note("fig05a", cdn.ring_name(ring) + ".share_leq_10ms", cdf.fraction_leq(10.0));
            mean_inflated += (1.0 - cdn_inflation.efficiency(ring)) / cdn.ring_count();
        }
        const auto& roots = root_inflation.geographic_all_roots;
        write_cdf(out, "root-dns", roots);
        note("fig05a", "cdn.mean_share_inflated", mean_inflated);
        note("fig05a", "root-dns.share_inflated",
             roots.fraction_above(analysis::zero_inflation_epsilon_ms));
        note("fig05a", "root-dns.share_above_10ms", roots.fraction_above(10.0));
        record(path);
    }
    {
        obs::span span{"report/fig05b"};
        const auto path = dir / "fig05b_cdn_latency_inflation.csv";
        auto out = open_csv(path, "series,inflation_ms,cdf");
        for (int ring = 0; ring < cdn.ring_count(); ++ring) {
            const auto& cdf = cdn_inflation.latency_by_ring[static_cast<std::size_t>(ring)];
            write_cdf(out, cdn.ring_name(ring), cdf);
            for (const double ms : {30.0, 60.0, 100.0}) {
                note("fig05b", cdn.ring_name(ring) + ".share_leq_" + strfmt::fixed(ms, 0) + "ms",
                     cdf.fraction_leq(ms));
            }
        }
        write_cdf(out, "root-dns", root_inflation.latency_all_roots);
        note("fig05b", "root-dns.share_above_100ms",
             root_inflation.latency_all_roots.fraction_above(100.0));
        record(path);
    }
    // Fig. 6b reads the same study.
    analysis::aspath_study_result aspath;
    {
        obs::span span{"report/fig06a"};
        aspath = analysis::run_aspath_study(w.fleet(), w.roots(), cdn, w.graph());
        const auto path = dir / "fig06a_as_path_lengths.csv";
        auto out = open_csv(path, "destination,bucket,share");
        static constexpr const char* buckets[] = {"2", "3", "4", "5+"};
        for (const auto& d : aspath.lengths) {
            for (std::size_t b = 0; b < 4; ++b) {
                out << d.destination << "," << buckets[b] << "," << d.share[b] << "\n";
            }
        }
        record(path);
    }
    {
        obs::span span{"report/fig06b"};
        const auto path = dir / "fig06b_inflation_by_path_length.csv";
        auto out = open_csv(path, "destination,bucket,min,q1,median,q3,max,weight");
        static constexpr const char* buckets[] = {"2", "3", "4+"};
        for (const auto& d : aspath.inflation) {
            for (std::size_t b = 0; b < 3; ++b) {
                const auto& box = d.boxes[b];
                if (box.weight <= 0.0) continue;
                out << d.destination << "," << buckets[b] << "," << box.minimum << ","
                    << box.q1 << "," << box.median << "," << box.q3 << "," << box.maximum
                    << "," << box.weight << "\n";
            }
        }
        record(path);
    }
    {
        obs::span span{"report/fig07a"};
        const auto path = dir / "fig07a_size_latency_efficiency.csv";
        auto out = open_csv(path, "deployment,sites,median_ms,efficiency");
        for (char letter : w.roots().geographic_analysis_letters()) {
            const auto& dep = w.roots().deployment_of(letter);
            out << letter << "," << dep.global_site_count() << ","
                << analysis::median_probe_latency(w.fleet(), dep, 7) << ","
                << root_inflation.efficiency(letter) << "\n";
        }
        for (int ring = 0; ring < cdn.ring_count(); ++ring) {
            out << cdn.ring_name(ring) << "," << cdn.ring_size(ring) << ","
                << analysis::median_probe_latency_to_ring(w.fleet(), cdn, ring, 7) << ","
                << cdn_inflation.efficiency(ring) << "\n";
        }
        record(path);
    }
    {
        obs::span span{"report/fig07b"};
        const std::vector<double> radii{100, 250,  500,  750,  1000,
                                        1250, 1500, 1750, 2000, 3000};
        const auto path = dir / "fig07b_coverage.csv";
        auto out = open_csv(path, "deployment,radius_km,covered_fraction");
        auto emit = [&](const analysis::coverage_curve& curve) {
            for (std::size_t i = 0; i < curve.radii_km.size(); ++i) {
                out << curve.name << "," << curve.radii_km[i] << ","
                    << curve.covered_fraction[i] << "\n";
            }
        };
        emit(analysis::compute_all_roots_coverage(w.roots(), w.users(), w.regions(), radii));
        for (int ring = 0; ring < cdn.ring_count(); ++ring) {
            emit(analysis::compute_ring_coverage(cdn, ring, w.users(), w.regions(), radii));
        }
        for (char letter : w.roots().geographic_analysis_letters()) {
            emit(analysis::compute_coverage(w.roots().deployment_of(letter), w.users(),
                                            w.regions(), radii));
        }
        record(path);
    }
    // Figs. 8 and 10 read the captures before the §2.1 filter: each raw
    // capture becomes a table once, for both.
    const auto raw_tables = [&] {
        obs::span span{"report/raw_tables"};
        std::vector<capture::letter_table> tables;
        tables.reserve(w.ditl().letters.size());
        for (const auto& capture : w.ditl().letters) tables.push_back(capture::to_table(capture));
        return tables;
    }();
    {
        obs::span span{"report/fig08"};
        // Fig. 3 again, on captures that keep invalid-TLD and PTR queries.
        capture::filter_options keep_junk;
        keep_junk.drop_invalid_tld = false;
        keep_junk.drop_ptr = false;
        std::vector<capture::letter_table> with_junk;
        with_junk.reserve(raw_tables.size());
        for (const auto& raw : raw_tables) {
            with_junk.push_back(capture::filter_table(raw, keep_junk));
        }
        const auto unfiltered = analysis::compute_amortization(
            with_junk, w.users(), w.cdn_user_counts(), w.apnic_user_counts(), w.as_mapper(),
            w.config().query_model, {}, w.pool());
        const auto path = dir / "fig08_queries_per_user_unfiltered.csv";
        auto out = open_csv(path, "series,queries_per_user_day,cdf");
        write_amortization(out, unfiltered);
        note_quantile("fig08", "cdn.median_unfiltered", unfiltered.cdn, 0.5);
        note_quantile("fig08", "apnic.median_unfiltered", unfiltered.apnic, 0.5);
        note_median_ratio("fig08", "cdn.junk_factor", unfiltered.cdn, amortized.cdn);
        note_median_ratio("fig08", "apnic.junk_factor", unfiltered.apnic, amortized.apnic);
        record(path);
    }
    {
        obs::span span{"report/fig09"};
        // Fig. 3 again, joining DITL sources to user counts by exact IP.
        const auto by_ip = analysis::compute_amortization(
            w.filtered_tables(), w.users(), w.cdn_user_counts(), w.apnic_user_counts(),
            w.as_mapper(), w.config().query_model, {.join_by_slash24 = false}, w.pool());
        const auto path = dir / "fig09_queries_per_user_by_ip.csv";
        auto out = open_csv(path, "series,queries_per_user_day,cdf");
        write_amortization(out, by_ip);
        note_quantile("fig09", "cdn.median_by_ip", by_ip.cdn, 0.5);
        note("fig09", "attributed_volume_fraction_by_ip", by_ip.attributed_volume_fraction);
        note_median_ratio("fig09", "slash24_over_ip_median", amortized.cdn, by_ip.cdn);
        note_quantile("fig09", "apnic.median", by_ip.apnic, 0.5);
        record(path);
    }
    {
        obs::span span{"report/fig10"};
        const auto favorite = analysis::compute_favorite_site(raw_tables, w.pool());
        const auto path = dir / "fig10_favorite_site.csv";
        auto out = open_csv(path, "letter,fraction_not_favorite,cdf");
        for (const auto& [letter, cdf] : favorite.fraction_not_favorite) {
            if (cdf.empty()) continue;
            write_cdf(out, std::string{letter}, cdf);
            // Coherent: every query of the /24 reaches one site.
            note("fig10", std::string{letter} + ".coherent", cdf.fraction_leq(1e-9));
        }
        record(path);
    }
    {
        obs::span span{"report/fig14"};
        const auto map = analysis::compute_latency_map(w.server_log_table(), cdn, w.regions());
        for (std::size_t c = 0; c < analysis::continent_count; ++c) {
            const auto name = std::string{topo::to_string(static_cast<topo::continent>(c))};
            note_quantile("fig14", name + ".median_relative_latency",
                          map.relative_by_continent[c], 0.5);
            note_quantile("fig14", name + ".p90_relative_latency", map.relative_by_continent[c],
                          0.9);
        }
        note_quantile("fig14", "within_500km.median_ms", map.near_users, 0.5);
        note_quantile("fig14", "beyond_2000km.median_ms", map.far_users, 0.5);
    }
    {
        obs::span span{"report/tab04"};
        const auto overlap = analysis::compute_overlap(w.filtered_tables(), w.cdn_user_counts());
        for (const auto& [join, stats] :
             {std::pair{"by_ip", &overlap.by_ip}, std::pair{"by_slash24", &overlap.by_slash24}}) {
            const std::string suffix = std::string{"."} + join;
            note("tab04", "ditl_recursives" + suffix, stats->ditl_recursives);
            note("tab04", "ditl_volume" + suffix, stats->ditl_volume);
            note("tab04", "cdn_recursives" + suffix, stats->cdn_recursives);
            note("tab04", "cdn_volume" + suffix, stats->cdn_volume);
        }
    }
    record(headline_path);
    return written;
}

} // namespace ac::core
