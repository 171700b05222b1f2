#include "src/core/report.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "src/analysis/deployment_metrics.h"
#include "src/analysis/inflation.h"
#include "src/analysis/join.h"
#include "src/netbase/strfmt.h"
#include "src/obs/trace.h"

namespace ac::core {

namespace {

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
               const analysis::weighted_cdf& cdf, int points) {
    for (const auto& [value, q] : cdf.curve(points)) {
        out << series << "," << value << "," << q << "\n";
    }
}

} // namespace

std::vector<std::string> write_figure_csvs(const world& w, const std::string& directory,
                                           const report_options& options) {
    const std::filesystem::path dir{directory};
    std::filesystem::create_directories(dir);
    std::vector<std::string> written;
    auto record = [&](const std::filesystem::path& p) { written.push_back(p.string()); };

    // Root and CDN inflation feed several figures, so each gets its own
    // span ahead of the per-figure ones.
    const auto root_inflation = [&] {
        obs::span span{"report/root_inflation"};
        return analysis::compute_root_inflation(w.filtered_tables(), w.roots(), w.geodb(),
                                                w.cdn_user_counts(), {}, w.pool());
    }();
    const auto cdn_inflation = [&] {
        obs::span span{"report/cdn_inflation"};
        return analysis::compute_cdn_inflation(w.server_log_table(), w.cdn_net());
    }();

    {
        obs::span span{"report/fig02a"};
        const auto path = dir / "fig02a_root_geographic_inflation.csv";
        auto out = open_csv(path, "series,inflation_ms,cdf");
        for (const auto& [letter, cdf] : root_inflation.geographic) {
            write_cdf(out, std::string{letter}, cdf, options.cdf_points);
        }
        write_cdf(out, "all-roots", root_inflation.geographic_all_roots, options.cdf_points);
        record(path);
    }
    {
        obs::span span{"report/fig02b"};
        const auto path = dir / "fig02b_root_latency_inflation.csv";
        auto out = open_csv(path, "series,inflation_ms,cdf");
        for (const auto& [letter, cdf] : root_inflation.latency) {
            write_cdf(out, std::string{letter}, cdf, options.cdf_points);
        }
        write_cdf(out, "all-roots", root_inflation.latency_all_roots, options.cdf_points);
        record(path);
    }
    {
        obs::span span{"report/fig03"};
        const auto amortized = analysis::compute_amortization(
            w.filtered_tables(), w.users(), w.cdn_user_counts(), w.apnic_user_counts(),
            w.as_mapper(), w.config().query_model, {}, w.pool());
        const auto path = dir / "fig03_queries_per_user.csv";
        auto out = open_csv(path, "series,queries_per_user_day,cdf");
        write_cdf(out, "ideal", amortized.ideal, options.cdf_points);
        write_cdf(out, "cdn", amortized.cdn, options.cdf_points);
        write_cdf(out, "apnic", amortized.apnic, options.cdf_points);
        record(path);
    }
    {
        obs::span span{"report/fig05a"};
        const auto path = dir / "fig05a_cdn_geographic_inflation.csv";
        auto out = open_csv(path, "series,inflation_ms,cdf");
        for (int ring = 0; ring < w.cdn_net().ring_count(); ++ring) {
            write_cdf(out, w.cdn_net().ring_name(ring),
                      cdn_inflation.geographic_by_ring[static_cast<std::size_t>(ring)],
                      options.cdf_points);
        }
        write_cdf(out, "root-dns", root_inflation.geographic_all_roots, options.cdf_points);
        record(path);
    }
    {
        obs::span span{"report/fig05b"};
        const auto path = dir / "fig05b_cdn_latency_inflation.csv";
        auto out = open_csv(path, "series,inflation_ms,cdf");
        for (int ring = 0; ring < w.cdn_net().ring_count(); ++ring) {
            write_cdf(out, w.cdn_net().ring_name(ring),
                      cdn_inflation.latency_by_ring[static_cast<std::size_t>(ring)],
                      options.cdf_points);
        }
        write_cdf(out, "root-dns", root_inflation.latency_all_roots, options.cdf_points);
        record(path);
    }
    {
        obs::span span{"report/fig06a"};
        const auto aspath =
            analysis::run_aspath_study(w.fleet(), w.roots(), w.cdn_net(), w.graph());
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
        obs::span span{"report/fig07a"};
        const auto path = dir / "fig07a_size_latency_efficiency.csv";
        auto out = open_csv(path, "deployment,sites,median_ms,efficiency");
        for (char letter : w.roots().geographic_analysis_letters()) {
            const auto& dep = w.roots().deployment_of(letter);
            out << letter << "," << dep.global_site_count() << ","
                << analysis::median_probe_latency(w.fleet(), dep, 7) << ","
                << root_inflation.efficiency(letter) << "\n";
        }
        for (int ring = 0; ring < w.cdn_net().ring_count(); ++ring) {
            out << w.cdn_net().ring_name(ring) << "," << w.cdn_net().ring_size(ring) << ","
                << analysis::median_probe_latency_to_ring(w.fleet(), w.cdn_net(), ring, 7)
                << "," << cdn_inflation.efficiency(ring) << "\n";
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
        for (int ring = 0; ring < w.cdn_net().ring_count(); ++ring) {
            emit(analysis::compute_ring_coverage(w.cdn_net(), ring, w.users(), w.regions(),
                                                 radii));
        }
        for (char letter : w.roots().geographic_analysis_letters()) {
            emit(analysis::compute_coverage(w.roots().deployment_of(letter), w.users(),
                                            w.regions(), radii));
        }
        record(path);
    }
    return written;
}

} // namespace ac::core
