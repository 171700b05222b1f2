#include "src/anycast/deployment.h"

#include <algorithm>
#include "src/netbase/strfmt.h"
#include <limits>
#include <stdexcept>

#include "src/netbase/rng.h"
#include "src/obs/trace.h"

namespace ac::anycast {

deployment::deployment(std::string name, std::vector<site> sites, const topo::as_graph& graph,
                       const topo::region_table& regions, engine::thread_pool* pool)
    : name_(std::move(name)), sites_(std::move(sites)), regions_(&regions) {
    if (sites_.empty()) throw std::invalid_argument("deployment: needs at least one site");
    std::vector<route::announcement> announcements;
    announcements.reserve(sites_.size());
    for (std::size_t i = 0; i < sites_.size(); ++i) {
        if (sites_[i].id != i) throw std::invalid_argument("deployment: site ids must be dense");
        announcements.push_back(route::announcement{sites_[i].id, sites_[i].host_asn,
                                                    sites_[i].region, sites_[i].scope, {}});
        if (sites_[i].scope == route::announcement_scope::global) ++global_count_;
    }
    rib_ = std::make_unique<route::anycast_rib>(graph, std::move(announcements), pool);
}

double deployment::nearest_global_site_km(const geo::point& p) const {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& s : sites_) {
        if (s.scope != route::announcement_scope::global) continue;
        best = std::min(best, geo::distance_km(p, regions_->at(s.region).location));
    }
    return best;
}

double deployment::nearest_global_site_km(topo::region_id region) const {
    if (region >= regions_->size()) {
        throw std::out_of_range("nearest_global_site_km: unknown region");
    }
    double best = std::numeric_limits<double>::infinity();
    for (const auto& s : sites_) {
        if (s.scope != route::announcement_scope::global) continue;
        best = std::min(best, regions_->distance_km(region, s.region));
    }
    return best;
}

namespace {

// Picks site regions for a deployment. Population-weighted strategies favor
// big metros (one low-latency option near most users, Fig. 1); open hosting
// scatters almost uniformly (volunteer hosts are wherever volunteers are).
std::vector<topo::region_id> pick_site_regions(const topo::region_table& regions, int count,
                                               bool population_weighted, rand::rng& gen) {
    std::vector<double> weights;
    weights.reserve(regions.size());
    for (const auto& r : regions.all()) {
        // Antarctica hosts no deployment sites.
        const double w = r.cont == topo::continent::antarctica
                             ? 0.0
                             : (population_weighted ? r.population_weight
                                                    : 0.2 + 0.1 * r.population_weight);
        weights.push_back(w);
    }
    std::vector<topo::region_id> chosen;
    int eligible = 0;
    for (double w : weights) {
        if (w > 0.0) ++eligible;
    }
    const int cap = std::min(count, eligible);
    while (static_cast<int>(chosen.size()) < cap) {
        const std::size_t i = gen.weighted_index(weights);
        weights[i] = 0.0;
        chosen.push_back(regions.all()[i].id);
    }
    return chosen;
}

// A volunteer host at `region`: a transit or eyeball AS present there.
topo::asn_t volunteer_host(const topo::as_graph& graph, topo::region_id region, rand::rng& gen) {
    std::vector<topo::asn_t> candidates;
    for (const auto& as : graph.all()) {
        if (as.role != topo::as_role::transit && as.role != topo::as_role::eyeball) continue;
        if (std::find(as.presence.begin(), as.presence.end(), region) != as.presence.end()) {
            candidates.push_back(as.asn);
        }
    }
    if (candidates.empty()) {
        // No network present in this metro: fall back to any transit.
        candidates = graph.with_role(topo::as_role::transit);
    }
    return candidates[gen.uniform_index(candidates.size())];
}

} // namespace

deployment build_deployment(const deployment_plan& plan, topo::as_graph& graph,
                            const topo::region_table& regions, engine::thread_pool* pool) {
    // Site placement, host attachment and the RIB build; the nested
    // topo/ and bgp/ spans split out the link table and routing.
    obs::span build_span{"anycast/build_deployment"};
    rand::rng gen{rand::mix_seed(plan.seed, 0xdeb107u)};
    const bool population_weighted = plan.strategy != hosting_strategy::open_hosting;

    auto global_regions = pick_site_regions(regions, plan.global_sites, population_weighted, gen);
    auto local_gen = gen.fork(7);
    auto local_regions = pick_site_regions(regions, plan.local_sites, false, local_gen);

    std::vector<site> sites;
    sites.reserve(global_regions.size() + local_regions.size());

    topo::asn_t dedicated = 0;
    if (plan.strategy != hosting_strategy::open_hosting) {
        if (plan.dedicated_asn == 0) {
            throw std::invalid_argument("build_deployment: dedicated_asn required for strategy");
        }
        dedicated = plan.dedicated_asn;
        topo::content_attachment attach;
        attach.asn = dedicated;
        attach.name = plan.name + "-net";
        attach.organization = plan.name;
        attach.presence = global_regions;
        attach.tier1_providers = 2;
        attach.transit_peering_fraction = plan.transit_peering_fraction;
        attach.eyeball_peering_fraction =
            plan.strategy == hosting_strategy::cdn_partnered ? std::max(plan.eyeball_peering_fraction, 0.35)
                                                             : plan.eyeball_peering_fraction;
        attach.seed = gen.fork(11).seed();
        topo::attach_content_as(graph, regions, attach);
    }

    route::site_id next_id = 0;
    for (topo::region_id r : global_regions) {
        site s;
        s.id = next_id++;
        s.name = plan.name + "-g" + strfmt::zero_padded(s.id, 3);
        s.region = r;
        s.scope = route::announcement_scope::global;
        s.host_asn = dedicated != 0 ? dedicated : volunteer_host(graph, r, gen);
        // IXP-style local peering: eyeballs in the site's metro peer with the
        // volunteer host, giving them a short direct route to the local site.
        if (plan.local_ixp_peering_p > 0.0) {
            for (const auto& as : graph.all()) {
                if (as.role != topo::as_role::eyeball || as.asn == s.host_asn) continue;
                if (std::find(as.presence.begin(), as.presence.end(), r) ==
                    as.presence.end()) {
                    continue;
                }
                if (graph.has_link(as.asn, s.host_asn)) continue;
                if (!gen.chance(plan.local_ixp_peering_p)) continue;
                graph.add_link(as.asn, s.host_asn, topo::as_relationship::peer, {r},
                               gen.uniform(1.1, 1.25));
            }
        }
        sites.push_back(std::move(s));
    }
    for (topo::region_id r : local_regions) {
        site s;
        s.id = next_id++;
        s.name = plan.name + "-l" + strfmt::zero_padded(s.id, 3);
        s.region = r;
        s.scope = route::announcement_scope::local;
        // Local sites are always volunteer-hosted (in-AS service, §2.1).
        auto host_gen = gen.fork(1000 + s.id);
        s.host_asn = volunteer_host(graph, r, host_gen);
        sites.push_back(std::move(s));
    }

    build_span.set_items(sites.size());
    return deployment{plan.name, std::move(sites), graph, regions, pool};
}

catchment_table::catchment_table(const deployment& dep, std::span<const source> sources,
                                 std::uint64_t seed, engine::thread_pool* pool)
    : dep_(&dep) {
    // Map phase: every source's row is computed independently — the RNG is
    // keyed by (seed, source), never by draw order — into its own slot, so
    // chunks can run on any thread without changing a single byte.
    std::vector<std::optional<catchment_row>> computed(sources.size());
    engine::parallel_over(pool, sources.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            const auto& src = sources[i];
            auto primary = dep.rib().select(src.asn, src.region);
            if (!primary) continue;

            catchment_row row;
            row.src = src;
            row.primary = std::move(*primary);

            // Intermediate-AS load balancing occasionally splits a source
            // across two BGP-equal sites (App. B.2): model as a secondary
            // site carrying a small traffic share for ~15% of sources that
            // have alternatives.
            const auto candidates = dep.rib().best_candidates(src.asn);
            if (candidates.size() > 1) {
                rand::rng gen{rand::mix_seed(seed, (std::uint64_t{src.asn} << 16) ^ src.region)};
                if (gen.chance(0.15)) {
                    for (route::site_id alt : candidates) {
                        if (alt == row.primary.site) continue;
                        if (auto alt_path = dep.rib().evaluate(src.asn, src.region, alt)) {
                            row.secondary = std::move(*alt_path);
                            row.secondary_fraction = gen.uniform(0.05, 0.4);
                            break;
                        }
                    }
                }
            }
            computed[i] = std::move(row);
        }
    });

    // Reduce phase: append routable rows in source order (serial runs take
    // the same two-phase path, so the table is identical at any thread count).
    rows_.reserve(sources.size());
    for (auto& maybe_row : computed) {
        if (!maybe_row) continue;
        const auto& src = maybe_row->src;
        const std::uint64_t key = (std::uint64_t{src.asn} << 32) | src.region;
        index_.emplace(key, rows_.size());
        rows_.push_back(std::move(*maybe_row));
    }
}

const catchment_row* catchment_table::find(topo::asn_t asn, topo::region_id region) const {
    const std::uint64_t key = (std::uint64_t{asn} << 32) | region;
    auto it = index_.find(key);
    return it == index_.end() ? nullptr : &rows_[it->second];
}

} // namespace ac::anycast
