// A RIPE-Atlas-like probe platform.
//
// The paper uses Atlas for three things: pings to CDN rings (Fig. 4a — the
// only latency numbers Microsoft allows to be published), traceroute-derived
// AS path lengths (Fig. 6), and letter-level median latencies (Fig. 7a).
// Atlas coverage is explicitly *not representative* [10] — probes
// over-represent Europe and well-connected networks — and the paper leans on
// that caveat, so the synthetic fleet reproduces the bias.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/anycast/deployment.h"
#include "src/cdn/cdn.h"
#include "src/routing/bgp.h"
#include "src/topology/as_graph.h"

namespace ac::atlas {

struct probe {
    int id = 0;
    topo::asn_t asn = 0;
    topo::region_id region = 0;
};

struct fleet_plan {
    int probe_count = 7200;
    /// Multiplier on the chance a European AS hosts probes (coverage bias).
    double europe_bias = 3.0;
    /// Extra weight for well-connected (multi-homed / multi-region) ASes.
    double connectivity_bias = 1.5;
    std::uint64_t seed = 1;
};

/// Every <AS, region> that may host a probe, with its draw weight: each
/// eyeball and enterprise AS at each region it is present in, weighted by the
/// fleet's known biases (Europe-heavy, better-connected networks more likely).
struct probe_hosts {
    std::vector<probe> locations;  // ids unset
    std::vector<double> weights;   // aligned with `locations`
};

[[nodiscard]] probe_hosts probe_host_candidates(const topo::as_graph& graph,
                                                const topo::region_table& regions,
                                                const fleet_plan& plan);

class probe_fleet {
public:
    /// Draws `plan.probe_count` probes from `probe_host_candidates`.
    probe_fleet(const topo::as_graph& graph, const topo::region_table& regions,
                const fleet_plan& plan);

    [[nodiscard]] const std::vector<probe>& probes() const noexcept { return probes_; }
    [[nodiscard]] std::size_t as_coverage() const;

    /// A random sub-fleet (e.g. Fig. 4a uses ~1,000 probes).
    [[nodiscard]] std::vector<probe> sample(int count, std::uint64_t seed) const;

private:
    std::vector<probe> probes_;
};

/// One ping burst (minimum over `attempts` echoes, as the paper measures
/// three times per target and takes representative values).
struct ping_result {
    bool reachable = false;
    double rtt_ms = 0.0;
};

/// Pings an anycast deployment (root letter).
[[nodiscard]] ping_result ping(const probe& p, const anycast::deployment& dep, int attempts,
                               std::uint64_t seed);

/// Pings a CDN ring.
[[nodiscard]] ping_result ping_ring(const probe& p, const cdn::cdn_network& cdn, int ring,
                                    int attempts, std::uint64_t seed);

/// AS path length after the paper's §7.1 cleanup: IP->AS mapping, dropping
/// IXP/private hops (our synthetic traceroutes never surface those), and
/// merging sibling ASes into organizations. Returns nullopt when the probe
/// has no route.
[[nodiscard]] std::optional<int> as_path_length(const probe& p, const anycast::deployment& dep,
                                                const topo::as_graph& graph);
[[nodiscard]] std::optional<int> as_path_length_to_cdn(const probe& p,
                                                       const cdn::cdn_network& cdn,
                                                       const topo::as_graph& graph);

/// Merges consecutive same-organization hops (CAIDA sibling merge).
[[nodiscard]] int organization_path_length(std::span<const topo::asn_t> as_path,
                                           const topo::as_graph& graph);

} // namespace ac::atlas
