#include "src/cdn/cdn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/netbase/geo.h"
#include "src/netbase/rng.h"

namespace ac::cdn {

cdn_network::cdn_network(const cdn_plan& plan, topo::as_graph& graph,
                         const topo::region_table& regions, engine::thread_pool* pool)
    : plan_(plan), regions_(&regions) {
    if (plan_.ring_sizes.empty() ||
        !std::is_sorted(plan_.ring_sizes.begin(), plan_.ring_sizes.end())) {
        throw std::invalid_argument("cdn_network: ring sizes must be ascending");
    }
    rand::rng gen{rand::mix_seed(plan_.seed, 0xcd9011ull)};

    // Front-end placement: population-weighted without replacement, then
    // importance-ordered by population so ring prefixes nest naturally
    // (Fig. 1: front-ends concentrate where users are).
    const int total = plan_.ring_sizes.back();
    std::vector<double> weights;
    weights.reserve(regions.size());
    for (const auto& r : regions.all()) {
        weights.push_back(r.cont == topo::continent::antarctica ? 0.0 : r.population_weight);
    }
    std::vector<std::pair<double, topo::region_id>> picked;
    int eligible = 0;
    for (double w : weights) {
        if (w > 0.0) ++eligible;
    }
    const int cap = std::min(total, eligible);
    while (static_cast<int>(picked.size()) < cap) {
        const std::size_t i = gen.weighted_index(weights);
        weights[i] = 0.0;
        picked.emplace_back(regions.all()[i].population_weight, regions.all()[i].id);
    }
    std::sort(picked.begin(), picked.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    front_ends_.reserve(picked.size());
    for (const auto& [_, id] : picked) front_ends_.push_back(id);
    // Small worlds may not have enough regions for the requested rings.
    for (auto& size : plan_.ring_sizes) {
        size = std::min(size, static_cast<int>(front_ends_.size()));
    }

    // One heavily peered content AS with PoPs at every front-end region.
    topo::content_attachment attach;
    attach.asn = plan_.asn;
    attach.name = plan_.name;
    attach.organization = plan_.name;
    attach.presence = front_ends_;
    attach.tier1_providers = 3;
    attach.transit_peering_fraction = plan_.transit_peering_fraction;
    attach.eyeball_peering_fraction = plan_.eyeball_peering_fraction;
    attach.peer_circuitousness = 1.12;
    attach.seed = gen.fork(3).seed();
    topo::attach_content_as(graph, regions, attach);

    // PoP-level anycast: one announcement per PoP (all rings share ingress).
    std::vector<route::announcement> announcements;
    announcements.reserve(front_ends_.size());
    for (std::size_t i = 0; i < front_ends_.size(); ++i) {
        announcements.push_back(route::announcement{static_cast<route::site_id>(i), plan_.asn,
                                                    front_ends_[i],
                                                    route::announcement_scope::global, {}});
    }
    pop_rib_ = std::make_unique<route::anycast_rib>(graph, std::move(announcements), pool);

    // Precompute every (ingress PoP, ring) WAN leg. Same argmin loop (strict
    // less, members in ring order) over the same distance values the per-call
    // scan used — the distance matrix is bit-identical to haversine — so the
    // chosen front-end and RTT are unchanged.
    const std::size_t rings = plan_.ring_sizes.size();
    internal_legs_.resize(front_ends_.size() * rings);
    for (std::size_t site = 0; site < front_ends_.size(); ++site) {
        for (std::size_t ring = 0; ring < rings; ++ring) {
            const int members = plan_.ring_sizes[ring];
            int best_fe = 0;
            double best_km = std::numeric_limits<double>::infinity();
            for (int i = 0; i < members; ++i) {
                const double d = regions.distance_km(
                    front_ends_[site], front_ends_[static_cast<std::size_t>(i)]);
                if (d < best_km) {
                    best_km = d;
                    best_fe = i;
                }
            }
            internal_legs_[site * rings + ring] = internal_leg{
                best_fe, geo::round_trip_fiber_ms(best_km * plan_.wan_circuitousness) +
                             (best_km > 1.0 ? 0.3 : 0.0)};
        }
    }
}

std::string cdn_network::ring_name(int ring) const {
    return "R" + std::to_string(ring_size(ring));
}

int cdn_network::ring_membership_count(int front_end) const noexcept {
    int count = 0;
    for (const int size : plan_.ring_sizes) {
        if (front_end < size) ++count;
    }
    return count;
}

std::optional<cdn_network::cdn_path> cdn_network::evaluate(topo::asn_t asn,
                                                           topo::region_id region,
                                                           int ring) const {
    auto external = pop_rib_->select(asn, region);
    if (!external) return std::nullopt;

    cdn_path path;
    path.ring = ring;
    path.ingress_pop = front_ends_[external->site];
    path.site = external->site;
    path.path_ases = external->path_ases;
    path.external_rtt_ms = external->rtt_ms;

    // Internal leg: nearest ring front-end to the ingress PoP over the WAN
    // (precomputed per (PoP, ring) at construction).
    (void)ring_size(ring);  // bounds check, as the per-call scan had
    const internal_leg& leg = leg_for(external->site, ring);
    path.front_end = leg.front_end;
    path.internal_rtt_ms = leg.rtt_ms;

    // Per-(source, ring) steady-state wobble: tiny, but lets a handful of
    // locations regress slightly on a bigger ring, as Fig. 4b observes.
    rand::rng jitter{rand::mix_seed(plan_.seed, (std::uint64_t{asn} << 18) ^ region,
                                    0xbeef00ULL + static_cast<std::uint64_t>(ring))};
    path.rtt_ms = (path.external_rtt_ms + path.internal_rtt_ms) *
                  std::exp(jitter.normal(0.0, 0.025));

    path.front_end_km =
        regions_->distance_km(region, front_ends_[static_cast<std::size_t>(leg.front_end)]);
    return path;
}

double cdn_network::nearest_front_end_km(topo::region_id region, int ring) const {
    if (region >= regions_->size()) {
        throw std::out_of_range("nearest_front_end_km: unknown region");
    }
    const int members = ring_size(ring);
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < members; ++i) {
        best = std::min(best,
                        regions_->distance_km(region, front_ends_[static_cast<std::size_t>(i)]));
    }
    return best;
}

} // namespace ac::cdn
