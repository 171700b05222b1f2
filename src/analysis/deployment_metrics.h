// Deployment-level metrics: size vs latency vs efficiency (Fig. 7) and
// AS-path structure vs inflation (Fig. 6).
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/analysis/stats.h"
#include "src/anycast/deployment.h"
#include "src/atlas/atlas.h"
#include "src/cdn/cdn.h"
#include "src/dns/root_letters.h"
#include "src/population/population.h"

namespace ac::analysis {

/// Fig. 7b: coverage curves — the share of users whose nearest (global)
/// site is within a radius.
struct coverage_curve {
    std::string name;
    int global_sites = 0;
    std::vector<double> radii_km;
    std::vector<double> covered_fraction;  // aligned with radii_km
};

/// `regions` is the table the user locations index. Distances are read from
/// that same table through the deployment or CDN built on it
/// (`nearest_global_site_km(region_id)`, `nearest_front_end_km`).
[[nodiscard]] coverage_curve compute_coverage(const anycast::deployment& dep,
                                              const pop::user_base& base,
                                              const topo::region_table& regions,
                                              std::span<const double> radii_km);

[[nodiscard]] coverage_curve compute_ring_coverage(const cdn::cdn_network& cdn, int ring,
                                                   const pop::user_base& base,
                                                   const topo::region_table& regions,
                                                   std::span<const double> radii_km);

/// "All Roots" coverage: nearest global site of *any* letter.
[[nodiscard]] coverage_curve compute_all_roots_coverage(const dns::root_system& roots,
                                                        const pop::user_base& base,
                                                        const topo::region_table& regions,
                                                        std::span<const double> radii_km);

/// Fig. 7a-left: median Atlas-probe latency to a deployment or ring.
[[nodiscard]] double median_probe_latency(const atlas::probe_fleet& fleet,
                                          const anycast::deployment& dep, std::uint64_t seed);
[[nodiscard]] double median_probe_latency_to_ring(const atlas::probe_fleet& fleet,
                                                  const cdn::cdn_network& cdn, int ring,
                                                  std::uint64_t seed);

/// Fig. 6a: distribution of organization-level path lengths from probe
/// locations, bucketed 2 / 3 / 4 / 5+ ASes; each <region, AS> location gets
/// equal weight, split across observed lengths.
struct path_length_distribution {
    std::string destination;            // "CDN", "All Roots", or a letter
    std::array<double, 4> share{};      // buckets: 2, 3, 4, 5+
};

/// Fig. 6b: geographic inflation grouped by AS-path length toward one
/// destination (buckets 2, 3, 4+).
struct inflation_by_path_length {
    std::string destination;
    std::array<box_summary, 3> boxes{};  // buckets: 2, 3, 4+
};

struct aspath_study_result {
    std::vector<path_length_distribution> lengths;        // CDN, All Roots, letters
    std::vector<inflation_by_path_length> inflation;      // CDN, All Roots, letters
};

/// Runs the §7.1 analysis over the probe fleet: traceroute-derived org-path
/// lengths to every letter and to the CDN, paired with the probe location's
/// geographic inflation toward that destination.
[[nodiscard]] aspath_study_result run_aspath_study(const atlas::probe_fleet& fleet,
                                                   const dns::root_system& roots,
                                                   const cdn::cdn_network& cdn,
                                                   const topo::as_graph& graph);

} // namespace ac::analysis
