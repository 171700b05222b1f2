// Ablation: diagnosing the residual inflation ([43]-style tooling).
//
// Fig. 5 shows the CDN's inflation is small but not zero. This bench
// classifies where the residual comes from (missing peering, far ingress,
// small-ring front-end distance, or genuine coverage gaps) per ring, and
// shows the traffic-engineering counterfactual from §7.1: withholding the
// announcement from the worst-routing neighbor and seeing whether its users
// land somewhere better.
#include "bench/bench_common.h"
#include "src/analysis/diagnosis.h"
#include "src/netbase/strfmt.h"
#include "src/routing/bgp.h"

namespace {

using namespace ac;

void print_figure(std::ostream& os) {
    const auto& w = bench::world_2018();
    const auto& cdn = w.cdn_net();

    os << "=== Diagnosis: where the CDN's residual inflation lives ===\n";
    os << "  ring   healthy  no-peering  far-ingress  far-front-end  isolated\n";
    for (int ring = 0; ring < cdn.ring_count(); ++ring) {
        analysis::diagnosis_options options;
        options.ring = ring;
        const auto report = analysis::diagnose_cdn_paths(cdn, w.users(), options);
        os << "  " << cdn.ring_name(ring);
        for (std::size_t pad = cdn.ring_name(ring).size(); pad < 6; ++pad) os << ' ';
        for (double share : report.user_share_by_problem) {
            os << " " << strfmt::fixed(share, 3) << "     ";
        }
        os << "\n";
    }

    // Engineer's worklist for the largest ring.
    const auto report = analysis::diagnose_cdn_paths(cdn, w.users());
    os << "  top offenders (user-weighted excess, R"
       << cdn.ring_size(cdn.ring_count() - 1) << "):\n";
    for (const auto& d : report.worst(5)) {
        os << "    <" << w.regions().at(d.region).name << ", AS" << d.asn << ">: "
           << strfmt::fixed(d.rtt_ms, 1) << " ms vs optimal "
           << strfmt::fixed(d.optimal_ms, 1) << " ms -> "
           << analysis::to_string(d.problem) << " ("
           << strfmt::fixed(d.users / 1e6, 2) << "M users)\n";
    }

    // §7.1's TE counterfactual: the CDN can decline to announce to an AS
    // that routes poorly. Take the worst no-peering offender's first-hop
    // transit and suppress the announcement toward it.
    int tried = 0;
    int helped = 0;
    double best_gain_ms = 0.0;
    std::string best_line;
    for (const auto& d : report.worst(50)) {
        if (d.problem != analysis::path_problem::no_peering) continue;
        const auto before = cdn.evaluate(d.asn, d.region, cdn.ring_count() - 1);
        if (!before || before->as_path.size() < 2) continue;
        if (++tried > 8) break;
        // Rebuild the PoP rib with that first-hop neighbor suppressed.
        const topo::asn_t bad_neighbor = before->as_path[before->as_path.size() - 2];
        std::vector<route::announcement> announcements;
        for (std::size_t i = 0; i < cdn.front_end_regions().size(); ++i) {
            route::announcement a{static_cast<route::site_id>(i), cdn.asn(),
                                  cdn.front_end_regions()[i],
                                  route::announcement_scope::global,
                                  {bad_neighbor}};
            announcements.push_back(std::move(a));
        }
        const route::anycast_rib engineered{w.graph(), std::move(announcements)};
        const auto after = engineered.select(d.asn, d.region);
        if (!after) continue;
        const double gain = before->rtt_ms - after->rtt_ms;
        if (gain > 0.0) ++helped;
        if (gain > best_gain_ms) {
            best_gain_ms = gain;
            best_line = "  best TE move: stop announcing to AS" +
                        std::to_string(bad_neighbor) + "; <" +
                        w.regions().at(d.region).name + ", AS" + std::to_string(d.asn) +
                        "> improves " + ac::strfmt::fixed(before->rtt_ms, 1) + " -> " +
                        ac::strfmt::fixed(after->rtt_ms, 1) + " ms";
        }
    }
    os << "  TE counterfactuals tried: " << tried << ", improved: " << helped << "\n";
    if (!best_line.empty()) {
        os << best_line << "\n";
    } else {
        os << "  no single-neighbor suppression helped (TE can backfire; the\n"
              "     paper notes it is used selectively at smaller ring sizes)\n";
    }
}

void BM_Diagnose(benchmark::State& state) {
    const auto& w = bench::world_2018();
    for (auto _ : state) {
        auto report = analysis::diagnose_cdn_paths(w.cdn_net(), w.users());
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_Diagnose)->Unit(benchmark::kMillisecond);

} // namespace

AC_BENCH_MAIN(print_figure)
