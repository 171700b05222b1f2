#include "src/population/population.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/netbase/geo.h"
#include "src/topology/generator.h"

namespace ac::pop {

namespace {

std::uint64_t loc_key(topo::asn_t asn, topo::region_id region) {
    return (std::uint64_t{asn} << 32) | region;
}

bool is_public_dns_asn(topo::asn_t asn) {
    return asn >= topo::asn_blocks::public_dns_base && asn < topo::asn_blocks::content_base;
}

} // namespace

user_base::user_base(const topo::as_graph& graph, const topo::region_table& regions,
                     topo::address_space& space, const user_base_plan& plan, std::uint64_t seed) {
    rand::rng gen{rand::mix_seed(seed, 0x05e2ba5eull)};

    // --- Locations: per-region user mass split among eyeball ASes present. ---
    std::vector<std::vector<std::pair<topo::asn_t, double>>> per_region(regions.size());
    for (const auto& as : graph.all()) {
        if (as.role != topo::as_role::eyeball) continue;
        for (topo::region_id r : as.presence) {
            // Heavy-tailed market share draw within the region.
            per_region[r].emplace_back(as.asn, gen.pareto(1.0, 1.1));
        }
    }
    for (std::size_t r = 0; r < per_region.size(); ++r) {
        auto& entries = per_region[r];
        if (entries.empty()) continue;
        double total_share = 0.0;
        for (const auto& [asn, share] : entries) total_share += share;
        const double region_users = regions.all()[r].population_weight * plan.users_per_weight;
        for (const auto& [asn, share] : entries) {
            user_location loc;
            loc.asn = asn;
            loc.region = static_cast<topo::region_id>(r);
            loc.users = region_users * share / total_share;
            users_by_loc_.emplace(loc_key(loc.asn, loc.region), loc.users);
            total_users_ += loc.users;
            locations_.push_back(loc);
        }
    }

    // --- Public DNS provider footprints (for nearest-PoP assignment). ---
    struct pdns { topo::asn_t asn; std::vector<topo::region_id> pops; };
    std::vector<pdns> public_dns;
    for (const auto& as : graph.all()) {
        if (as.role == topo::as_role::content && is_public_dns_asn(as.asn)) {
            public_dns.push_back(pdns{as.asn, as.presence});
        }
    }
    // Users of public DNS aggregate per <provider, PoP region>.
    std::unordered_map<std::uint64_t, double> pdns_users;

    auto pick_software = [&](rand::rng& g) {
        const double roll = g.uniform();
        if (roll < plan.bind_redundant_share) return resolver_software::bind_redundant;
        if (roll < plan.bind_redundant_share + plan.bind_fixed_share) {
            return resolver_software::bind_fixed;
        }
        return resolver_software::other;
    };

    auto add_recursive = [&](topo::asn_t asn, topo::region_id region, double users,
                             bool is_public, rand::rng& g) {
        recursive_resolver rec;
        rec.block = space.allocate(asn, region, 1);
        rec.asn = asn;
        rec.region = region;
        rec.users_served = users;
        rec.software = is_public ? resolver_software::other : pick_software(g);
        rec.is_public_dns = is_public;
        rec.is_forwarder = !is_public && g.chance(plan.forwarder_share);
        const int ip_count =
            static_cast<int>(g.uniform_int(plan.min_resolver_ips, plan.max_resolver_ips));
        // Client-facing user attribution and root-facing egress are carried
        // by partially disjoint IP sets within the /24 (App. B.2 / Fig. 9).
        double user_total = 0.0;
        double egress_total = 0.0;
        for (int i = 0; i < ip_count; ++i) {
            rec.resolver_ips.push_back(rec.block.prefix().address_at(
                static_cast<std::uint64_t>(1 + i)));
            const bool egress_only = ip_count > 1 && g.chance(plan.egress_only_ip_p);
            const double user_w = egress_only ? 0.0 : g.exponential(1.0);
            // Root-facing egress concentrates on dedicated egress addresses;
            // client-facing IPs usually emit little or nothing toward the
            // roots (this drives Fig. 9's by-IP collapse and Table 4).
            const double egress_w = egress_only
                                        ? g.exponential(1.0)
                                        : (g.chance(0.55) ? 0.0 : 0.05 * g.exponential(1.0));
            rec.ip_user_share.push_back(user_w);
            rec.ip_activity_share.push_back(rec.is_forwarder ? 0.0 : egress_w);
            user_total += user_w;
            egress_total += egress_w;
        }
        if (user_total <= 0.0) {
            rec.ip_user_share[0] = 1.0;
            user_total = 1.0;
        }
        for (auto& s : rec.ip_user_share) s /= user_total;
        if (!rec.is_forwarder && egress_total > 0.0) {
            for (auto& s : rec.ip_activity_share) s /= egress_total;
        }
        recursive_index_.emplace(rec.block.key(), recursives_.size());
        recursives_.push_back(std::move(rec));
        return recursives_.size() - 1;
    };

    // --- ISP recursives per location; public-DNS share routed to nearest PoP. ---
    for (std::size_t li = 0; li < locations_.size(); ++li) {
        const auto& loc = locations_[li];
        auto g = gen.fork(rand::mix_seed(loc.asn, loc.region));
        const double isp_users = loc.users * (1.0 - plan.public_dns_share);
        const int recursive_count = loc.users > 2e5 && g.chance(0.4) ? 2 : 1;
        for (int i = 0; i < recursive_count; ++i) {
            const double share = recursive_count == 1 ? 1.0 : (i == 0 ? 0.7 : 0.3);
            const std::size_t ri =
                add_recursive(loc.asn, loc.region, isp_users * share, false, g);
            service_edges_.push_back(
                service_edge{li, ri, (1.0 - plan.public_dns_share) * share});
        }
        if (!public_dns.empty()) {
            // Split public-DNS users equally across providers, each serving
            // from its PoP nearest the user location.
            const double per_provider = loc.users * plan.public_dns_share /
                                        static_cast<double>(public_dns.size());
            for (const auto& provider : public_dns) {
                topo::region_id best = provider.pops.front();
                double best_km = std::numeric_limits<double>::infinity();
                for (topo::region_id pr : provider.pops) {
                    const double d = regions.distance_km(loc.region, pr);
                    if (d < best_km) {
                        best_km = d;
                        best = pr;
                    }
                }
                pdns_users[loc_key(provider.asn, best)] += per_provider;
            }
        }
    }

    // Materialize public DNS recursives now that user mass is aggregated.
    // Service edges for public DNS are omitted (the paper cannot attribute
    // public-DNS users to locations either; the AS-level APNIC view mislabels
    // them deliberately — §2.1).
    for (const auto& provider : public_dns) {
        for (topo::region_id pr : provider.pops) {
            auto it = pdns_users.find(loc_key(provider.asn, pr));
            if (it == pdns_users.end() || it->second <= 0.0) continue;
            auto g = gen.fork(rand::mix_seed(provider.asn, pr, 99));
            add_recursive(provider.asn, pr, it->second, true, g);
        }
    }
}

double user_base::users_at(topo::asn_t asn, topo::region_id region) const {
    auto it = users_by_loc_.find(loc_key(asn, region));
    return it == users_by_loc_.end() ? 0.0 : it->second;
}

const recursive_resolver* user_base::find_recursive(net::slash24 block) const {
    auto it = recursive_index_.find(block.key());
    return it == recursive_index_.end() ? nullptr : &recursives_[it->second];
}

cdn_user_counts::cdn_user_counts(const user_base& base, options opts, std::uint64_t seed) {
    rand::rng gen{rand::mix_seed(seed, 0xcd1105e2ull)};
    for (const auto& rec : base.recursives()) {
        auto g = gen.fork(rec.block.key());
        const double undercount = g.uniform(opts.nat_undercount_lo, opts.nat_undercount_hi);
        for (std::size_t i = 0; i < rec.resolver_ips.size(); ++i) {
            if (rec.ip_user_share[i] <= 0.0) continue;  // egress-only address
            if (!g.chance(opts.ip_seen_p)) continue;
            const double observed = rec.users_served * rec.ip_user_share[i] * undercount;
            if (observed < 1.0) continue;  // too small to register a single user IP
            by_ip_[rec.resolver_ips[i].value()] = observed;
            by_block_[rec.block.key()] += observed;
            total_ += observed;
        }
    }
}

std::vector<cdn_user_counts::entry> cdn_user_counts::block_entries() const {
    std::vector<entry> out;
    out.reserve(by_block_.size());
    for (const auto& [key, users] : by_block_) out.push_back(entry{key, users});
    std::sort(out.begin(), out.end(),
              [](const entry& a, const entry& b) { return a.key < b.key; });
    return out;
}

std::vector<cdn_user_counts::entry> cdn_user_counts::ip_entries() const {
    std::vector<entry> out;
    out.reserve(by_ip_.size());
    for (const auto& [key, users] : by_ip_) out.push_back(entry{key, users});
    std::sort(out.begin(), out.end(),
              [](const entry& a, const entry& b) { return a.key < b.key; });
    return out;
}

cdn_user_counts cdn_user_counts::restore(const std::vector<entry>& blocks,
                                         const std::vector<entry>& ips, double total) {
    cdn_user_counts counts;
    counts.by_block_.reserve(blocks.size());
    for (const auto& e : blocks) counts.by_block_.emplace(e.key, e.users);
    counts.by_ip_.reserve(ips.size());
    for (const auto& e : ips) counts.by_ip_.emplace(e.key, e.users);
    counts.total_ = total;
    return counts;
}

std::optional<double> cdn_user_counts::count(net::slash24 block) const {
    auto it = by_block_.find(block.key());
    if (it == by_block_.end()) return std::nullopt;
    return it->second;
}

std::optional<double> cdn_user_counts::count(net::ipv4_addr ip) const {
    auto it = by_ip_.find(ip.value());
    if (it == by_ip_.end()) return std::nullopt;
    return it->second;
}

std::vector<net::slash24> cdn_user_counts::observed_blocks() const {
    // Ascending key order: hash order must not leak out of the accessor.
    std::vector<net::slash24> out;
    out.reserve(by_block_.size());
    for (const auto& [key, _] : by_block_) {
        out.push_back(net::slash24{net::ipv4_addr{key << 8}});
    }
    std::sort(out.begin(), out.end(),
              [](net::slash24 a, net::slash24 b) { return a.key() < b.key(); });
    return out;
}

std::vector<net::ipv4_addr> cdn_user_counts::observed_ips() const {
    std::vector<net::ipv4_addr> out;
    out.reserve(by_ip_.size());
    for (const auto& [value, _] : by_ip_) out.push_back(net::ipv4_addr{value});
    std::sort(out.begin(), out.end(),
              [](net::ipv4_addr a, net::ipv4_addr b) { return a.value() < b.value(); });
    return out;
}

apnic_user_counts::apnic_user_counts(const user_base& base, options opts, std::uint64_t seed) {
    rand::rng gen{rand::mix_seed(seed, 0xa901cull)};
    std::unordered_map<topo::asn_t, double> truth;
    for (const auto& loc : base.locations()) truth[loc.asn] += loc.users;
    for (const auto& [asn, users] : truth) {
        auto g = gen.fork(asn);
        if (g.chance(opts.as_missing_p)) continue;
        by_as_.emplace(asn, users * g.lognormal(0.0, opts.noise_sigma));
    }
}

std::vector<apnic_user_counts::entry> apnic_user_counts::entries() const {
    std::vector<entry> out;
    out.reserve(by_as_.size());
    for (const auto& [asn, users] : by_as_) out.push_back(entry{asn, users});
    std::sort(out.begin(), out.end(),
              [](const entry& a, const entry& b) { return a.asn < b.asn; });
    return out;
}

apnic_user_counts apnic_user_counts::restore(const std::vector<entry>& entries) {
    apnic_user_counts counts;
    counts.by_as_.reserve(entries.size());
    for (const auto& e : entries) counts.by_as_.emplace(e.asn, e.users);
    return counts;
}

std::optional<double> apnic_user_counts::count(topo::asn_t asn) const {
    auto it = by_as_.find(asn);
    if (it == by_as_.end()) return std::nullopt;
    return it->second;
}

} // namespace ac::pop
