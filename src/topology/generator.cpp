#include "src/topology/generator.h"

#include <algorithm>
#include <cmath>
#include "src/netbase/strfmt.h"
#include <limits>
#include <stdexcept>
#include <unordered_set>

namespace ac::topo {

namespace {

// Samples `count` distinct region ids, weighted by population, from `pool`.
std::vector<region_id> sample_regions(const region_table& regions,
                                      std::span<const region_id> pool, std::size_t count,
                                      rand::rng& gen) {
    count = std::min(count, pool.size());
    std::vector<double> weights;
    weights.reserve(pool.size());
    std::size_t eligible = 0;
    for (region_id id : pool) {
        const double w = regions.at(id).population_weight;
        weights.push_back(w);
        if (w > 0.0) ++eligible;
    }
    count = std::min(count, eligible);

    std::vector<region_id> chosen;
    while (chosen.size() < count) {
        const std::size_t i = gen.weighted_index(weights);
        weights[i] = 0.0;
        chosen.push_back(pool[i]);
    }
    return chosen;
}

// The region of `as_presence` whose centre is nearest to `anchor`'s.
region_id nearest_presence(const region_table& regions, std::span<const region_id> as_presence,
                           region_id anchor) {
    region_id best = as_presence.front();
    double best_km = std::numeric_limits<double>::infinity();
    for (region_id id : as_presence) {
        const double d = regions.distance_km(anchor, id);
        if (d < best_km) {
            best_km = d;
            best = id;
        }
    }
    return best;
}

// Interconnect regions for a link: shared PoP regions if any, otherwise the
// provider-side PoP nearest the customer's first footprint region.
std::vector<region_id> interconnects(const region_table& regions,
                                     const autonomous_system& a, const autonomous_system& b,
                                     std::size_t max_points, rand::rng& gen) {
    std::vector<region_id> shared;
    std::unordered_set<region_id> b_set(b.presence.begin(), b.presence.end());
    for (region_id id : a.presence) {
        if (b_set.contains(id)) shared.push_back(id);
    }
    if (!shared.empty()) {
        if (shared.size() > max_points) {
            gen.shuffle(shared);
            shared.resize(max_points);
        }
        return shared;
    }
    // No common metro: meet at b's PoP nearest to a's anchor region.
    return {nearest_presence(regions, b.presence, a.presence.front())};
}

double link_circuitousness(rand::rng& gen) { return gen.uniform(1.12, 1.45); }

// Backbone fibers between tier-1s follow well-engineered long-haul routes.
double backbone_circuitousness(rand::rng& gen) { return gen.uniform(1.08, 1.22); }

continent pick_continent_by_share(rand::rng& gen) {
    // Internet population share per continent, matching region generation.
    static constexpr double shares[] = {0.16, 0.08, 0.18, 0.12, 0.40, 0.05, 0.01};
    static constexpr continent conts[] = {
        continent::north_america, continent::south_america, continent::europe,
        continent::africa,        continent::asia,          continent::oceania,
        continent::antarctica};
    const std::size_t i = gen.weighted_index(std::span<const double>{shares});
    return conts[i];
}

} // namespace

as_graph make_graph(const region_table& regions, const graph_plan& plan, std::uint64_t seed) {
    rand::rng gen{rand::mix_seed(seed, 0xa59b17u)};
    as_graph graph{regions};

    std::vector<region_id> all_regions;
    all_regions.reserve(regions.size());
    for (const auto& r : regions.all()) all_regions.push_back(r.id);

    // --- Tier-1 backbone: global footprints, full-mesh peering. ---
    std::vector<asn_t> tier1s;
    for (int i = 0; i < plan.tier1_count; ++i) {
        autonomous_system as;
        as.asn = asn_blocks::tier1_base + static_cast<asn_t>(i);
        as.role = as_role::tier1;
        as.name = strfmt::indexed_name("tier1", i, 2);
        as.organization = as.name;
        as.presence = sample_regions(regions, all_regions,
                                     static_cast<std::size_t>(gen.uniform_int(25, 45)), gen);
        as.last_mile_ms = 0.2;
        tier1s.push_back(as.asn);
        graph.add_as(std::move(as));
    }
    for (std::size_t i = 0; i < tier1s.size(); ++i) {
        for (std::size_t j = i + 1; j < tier1s.size(); ++j) {
            const auto& a = graph.at(tier1s[i]);
            const auto& b = graph.at(tier1s[j]);
            graph.add_link(tier1s[i], tier1s[j], as_relationship::peer,
                           interconnects(regions, a, b, 6, gen), backbone_circuitousness(gen));
        }
    }

    // --- Continental transit providers. ---
    std::vector<asn_t> transits;
    std::unordered_map<asn_t, continent> transit_continent;
    asn_t next_transit = asn_blocks::transit_base;
    for (continent cont :
         {continent::north_america, continent::south_america, continent::europe,
          continent::africa, continent::asia, continent::oceania, continent::antarctica}) {
        const auto& pool = regions.on_continent(cont);
        if (pool.empty()) continue;
        const int count = (cont == continent::antarctica) ? 1 : plan.transits_per_continent;
        for (int i = 0; i < count; ++i) {
            autonomous_system as;
            as.asn = next_transit++;
            as.role = as_role::transit;
            as.name = strfmt::indexed_name(std::string{"transit-"} + std::string{to_string(cont)}, i, 2);
            as.organization = as.name;
            const auto footprint = static_cast<std::size_t>(gen.uniform_int(2, 10));
            as.presence = sample_regions(regions, pool, footprint, gen);
            as.last_mile_ms = 0.5;
            const asn_t asn = as.asn;
            transits.push_back(asn);
            transit_continent.emplace(asn, cont);
            graph.add_as(std::move(as));

            // Transit is a customer of one or two tier-1s.
            const asn_t primary = tier1s[gen.uniform_index(tier1s.size())];
            graph.add_link(asn, primary, as_relationship::provider,
                           interconnects(regions, graph.at(asn), graph.at(primary), 4, gen),
                           link_circuitousness(gen));
            if (gen.chance(plan.transit_extra_provider_p)) {
                asn_t secondary = tier1s[gen.uniform_index(tier1s.size())];
                if (secondary != primary) {
                    graph.add_link(asn, secondary, as_relationship::provider,
                                   interconnects(regions, graph.at(asn), graph.at(secondary), 4, gen),
                                   link_circuitousness(gen));
                }
            }
        }
    }
    // Same-continent transit peering.
    for (std::size_t i = 0; i < transits.size(); ++i) {
        for (std::size_t j = i + 1; j < transits.size(); ++j) {
            if (transit_continent.at(transits[i]) != transit_continent.at(transits[j])) continue;
            if (!gen.chance(plan.transit_peering_p)) continue;
            graph.add_link(transits[i], transits[j], as_relationship::peer,
                           interconnects(regions, graph.at(transits[i]), graph.at(transits[j]), 3, gen),
                           link_circuitousness(gen));
        }
    }

    // --- Eyeball access networks. ---
    std::vector<asn_t> eyeballs;
    for (int i = 0; i < plan.eyeball_count; ++i) {
        const continent cont = pick_continent_by_share(gen);
        const auto& pool = regions.on_continent(cont);
        if (pool.empty()) {
            continue;
        }
        autonomous_system as;
        as.asn = asn_blocks::eyeball_base + static_cast<asn_t>(i);
        as.role = as_role::eyeball;
        as.name = strfmt::indexed_name("eyeball", i, 5);
        as.organization = as.name;
        const auto footprint = static_cast<std::size_t>(
            1 + static_cast<int>(gen.pareto(1.0, 1.7)) % 5);
        as.presence = sample_regions(regions, pool, footprint, gen);
        as.last_mile_ms = gen.uniform(plan.eyeball_last_mile_ms_min, plan.eyeball_last_mile_ms_max);
        const asn_t asn = as.asn;
        eyeballs.push_back(asn);
        graph.add_as(std::move(as));

        // Providers: transits on the same continent, nearest-biased.
        std::vector<asn_t> continent_transits;
        for (asn_t t : transits) {
            if (transit_continent.at(t) == cont) continent_transits.push_back(t);
        }
        if (continent_transits.empty()) continent_transits = transits;
        const asn_t primary = continent_transits[gen.uniform_index(continent_transits.size())];
        graph.add_link(asn, primary, as_relationship::provider,
                       interconnects(regions, graph.at(asn), graph.at(primary), 2, gen),
                       link_circuitousness(gen));
        if (gen.chance(plan.eyeball_multihome_p)) {
            const asn_t secondary = continent_transits[gen.uniform_index(continent_transits.size())];
            if (secondary != primary && !graph.has_link(asn, secondary)) {
                graph.add_link(asn, secondary, as_relationship::provider,
                               interconnects(regions, graph.at(asn), graph.at(secondary), 2, gen),
                               link_circuitousness(gen));
            }
        }
    }
    // Sparse eyeball<->eyeball IXP peering within a continent.
    for (std::size_t i = 0; i + 1 < eyeballs.size(); ++i) {
        if (!gen.chance(plan.eyeball_ixp_peering_p)) continue;
        const std::size_t j = i + 1 + gen.uniform_index(std::min<std::size_t>(40, eyeballs.size() - i - 1));
        const auto& a = graph.at(eyeballs[i]);
        const auto& b = graph.at(eyeballs[j]);
        if (regions.at(a.presence.front()).cont != regions.at(b.presence.front()).cont) continue;
        if (graph.has_link(a.asn, b.asn)) continue;
        graph.add_link(a.asn, b.asn, as_relationship::peer, interconnects(regions, a, b, 2, gen),
                       link_circuitousness(gen));
    }

    // --- Enterprises (stubs). ---
    for (int i = 0; i < plan.enterprise_count; ++i) {
        const continent cont = pick_continent_by_share(gen);
        const auto& pool = regions.on_continent(cont);
        if (pool.empty()) continue;
        autonomous_system as;
        as.asn = asn_blocks::enterprise_base + static_cast<asn_t>(i);
        as.role = as_role::enterprise;
        as.name = strfmt::indexed_name("enterprise", i, 5);
        as.organization = as.name;
        as.presence = sample_regions(regions, pool, 1, gen);
        as.last_mile_ms = gen.uniform(0.5, 4.0);
        const asn_t asn = as.asn;
        graph.add_as(std::move(as));

        // Customer of an eyeball or a transit.
        const bool via_eyeball = !eyeballs.empty() && gen.chance(0.5);
        const asn_t provider = via_eyeball ? eyeballs[gen.uniform_index(eyeballs.size())]
                                           : transits[gen.uniform_index(transits.size())];
        graph.add_link(asn, provider, as_relationship::provider,
                       interconnects(regions, graph.at(asn), graph.at(provider), 1, gen),
                       link_circuitousness(gen));
    }

    // --- Public DNS providers: well-connected content-style networks. ---
    for (int i = 0; i < plan.public_dns_count; ++i) {
        content_attachment options;
        options.asn = asn_blocks::public_dns_base + static_cast<asn_t>(i);
        options.name = strfmt::indexed_name("public-dns", i, 2);
        options.organization = options.name;
        options.presence = sample_regions(regions, all_regions,
                                          static_cast<std::size_t>(gen.uniform_int(15, 30)), gen);
        options.tier1_providers = 2;
        options.transit_peering_fraction = 0.4;
        options.eyeball_peering_fraction = 0.1;
        options.seed = gen.fork(1000 + static_cast<std::uint64_t>(i)).seed();
        attach_content_as(graph, regions, options);
    }

    return graph;
}

void attach_content_as(as_graph& graph, const region_table& regions,
                       const content_attachment& options) {
    rand::rng gen{rand::mix_seed(options.seed, 0xc0117e17u)};

    autonomous_system as;
    as.asn = options.asn;
    as.role = as_role::content;
    as.name = options.name;
    as.organization = options.organization.empty() ? options.name : options.organization;
    as.presence = options.presence;
    as.last_mile_ms = 0.3;
    if (as.presence.empty()) {
        throw std::invalid_argument("attach_content_as: presence must not be empty");
    }
    graph.add_as(as);

    // Tier-1 transit.
    auto tier1s = graph.with_role(as_role::tier1);
    gen.shuffle(tier1s);
    const int provider_count = std::min<int>(options.tier1_providers,
                                             static_cast<int>(tier1s.size()));
    for (int i = 0; i < provider_count; ++i) {
        graph.add_link(options.asn, tier1s[static_cast<std::size_t>(i)], as_relationship::provider,
                       interconnects(regions, graph.at(options.asn),
                                     graph.at(tier1s[static_cast<std::size_t>(i)]), 4, gen),
                       gen.uniform(1.15, 1.4));
    }

    // Transit peering (helps reach eyeballs single-homed behind transits).
    for (asn_t transit : graph.with_role(as_role::transit)) {
        if (!gen.chance(options.transit_peering_fraction)) continue;
        // Peer at this network's PoP nearest to the transit's anchor.
        const region_id meet = nearest_presence(regions, graph.at(options.asn).presence,
                                                graph.at(transit).presence.front());
        graph.add_link(options.asn, transit, as_relationship::peer, {meet},
                       options.peer_circuitousness + gen.uniform(0.0, 0.1));
    }

    // Direct eyeball peering, population-biased: large eyeballs peer first.
    if (options.eyeball_peering_fraction > 0.0) {
        auto eyeballs = graph.with_role(as_role::eyeball);
        std::vector<std::pair<double, asn_t>> ranked;
        ranked.reserve(eyeballs.size());
        for (asn_t e : eyeballs) {
            double weight = 0.0;
            for (region_id r : graph.at(e).presence) {
                weight += regions.at(r).population_weight;
            }
            // Jitter the ranking so the cut-off is not a strict threshold.
            ranked.emplace_back(weight * gen.lognormal(0.0, 0.5), e);
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto& a, const auto& b) { return a.first > b.first; });
        const auto take = static_cast<std::size_t>(
            options.eyeball_peering_fraction * static_cast<double>(ranked.size()));
        for (std::size_t i = 0; i < take; ++i) {
            const asn_t e = ranked[i].second;
            const region_id meet = nearest_presence(regions, graph.at(options.asn).presence,
                                                    graph.at(e).presence.front());
            graph.add_link(options.asn, e, as_relationship::peer, {meet},
                           options.peer_circuitousness + gen.uniform(0.0, 0.1));
        }
    }
}

} // namespace ac::topo
