#include "src/atlas/atlas.h"

#include <algorithm>
#include <unordered_set>

#include "src/netbase/rng.h"

namespace ac::atlas {

probe_hosts probe_host_candidates(const topo::as_graph& graph, const topo::region_table& regions,
                                  const fleet_plan& plan) {
    probe_hosts hosts;
    for (const auto& as : graph.all()) {
        if (as.role != topo::as_role::eyeball && as.role != topo::as_role::enterprise) continue;
        for (topo::region_id r : as.presence) {
            double w = 1.0;
            if (regions.at(r).cont == topo::continent::europe) w *= plan.europe_bias;
            if (as.presence.size() > 1) w *= plan.connectivity_bias;
            hosts.locations.push_back(probe{0, as.asn, r});
            hosts.weights.push_back(w);
        }
    }
    return hosts;
}

probe_fleet::probe_fleet(const topo::as_graph& graph, const topo::region_table& regions,
                         const fleet_plan& plan) {
    rand::rng gen{rand::mix_seed(plan.seed, 0xa71a5ull)};
    auto hosts = probe_host_candidates(graph, regions, plan);
    if (hosts.locations.empty() || plan.probe_count <= 0) return;

    const rand::weighted_table table{std::move(hosts.weights)};
    probes_.reserve(static_cast<std::size_t>(plan.probe_count));
    for (int i = 0; i < plan.probe_count; ++i) {
        probe p = hosts.locations[table.draw(gen)];
        p.id = i;
        probes_.push_back(p);
    }
}

std::size_t probe_fleet::as_coverage() const {
    std::unordered_set<topo::asn_t> ases;
    for (const auto& p : probes_) ases.insert(p.asn);
    return ases.size();
}

std::vector<probe> probe_fleet::sample(int count, std::uint64_t seed) const {
    rand::rng gen{rand::mix_seed(seed, 0x5a3b1eull)};
    std::vector<probe> pool = probes_;
    gen.shuffle(pool);
    if (static_cast<std::size_t>(count) < pool.size()) {
        pool.resize(static_cast<std::size_t>(count));
    }
    return pool;
}

namespace {

ping_result ping_path(const std::optional<route::path_result>& path, int attempts,
                      std::uint64_t seed) {
    if (!path) return ping_result{};
    rand::rng gen{rand::mix_seed(seed, 0x9113ull)};
    double best = 0.0;
    for (int i = 0; i < attempts; ++i) {
        const double rtt = path->rtt_ms * gen.lognormal(0.0, 0.06);
        best = (i == 0) ? rtt : std::min(best, rtt);
    }
    return ping_result{true, best};
}

} // namespace

ping_result ping(const probe& p, const anycast::deployment& dep, int attempts,
                 std::uint64_t seed) {
    return ping_path(dep.rib().select(p.asn, p.region), attempts,
                     rand::mix_seed(seed, static_cast<std::uint64_t>(p.id)));
}

ping_result ping_ring(const probe& p, const cdn::cdn_network& cdn, int ring, int attempts,
                      std::uint64_t seed) {
    const auto path = cdn.evaluate(p.asn, p.region, ring);
    if (!path) return ping_result{};
    rand::rng gen{rand::mix_seed(seed, static_cast<std::uint64_t>(p.id),
                                 static_cast<std::uint64_t>(ring))};
    double best = 0.0;
    for (int i = 0; i < attempts; ++i) {
        const double rtt = path->rtt_ms * gen.lognormal(0.0, 0.06);
        best = (i == 0) ? rtt : std::min(best, rtt);
    }
    return ping_result{true, best};
}

std::optional<int> as_path_length(const probe& p, const anycast::deployment& dep,
                                  const topo::as_graph& graph) {
    const auto path = dep.rib().select(p.asn, p.region);
    if (!path) return std::nullopt;
    return organization_path_length(dep.rib().as_path(p.asn, path->site), graph);
}

std::optional<int> as_path_length_to_cdn(const probe& p, const cdn::cdn_network& cdn,
                                         const topo::as_graph& graph) {
    const auto path = cdn.evaluate(p.asn, p.region, /*ring=*/0);
    if (!path) return std::nullopt;
    return organization_path_length(cdn.pop_rib().as_path(p.asn, path->site), graph);
}

int organization_path_length(std::span<const topo::asn_t> as_path,
                             const topo::as_graph& graph) {
    int length = 0;
    const std::string* previous = nullptr;
    for (topo::asn_t asn : as_path) {
        const auto& org = graph.at(asn).organization;
        if (previous == nullptr || org != *previous) {
            ++length;
            previous = &org;
        }
    }
    return length;
}

} // namespace ac::atlas
