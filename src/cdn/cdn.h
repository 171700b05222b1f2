// A Microsoft-like anycast CDN: front-ends organized into nested rings.
//
// Structure follows §2.2 and §7.1: front-ends are collocated with PoPs and
// peering locations; rings (R28 ⊂ R47 ⊂ R74 ⊂ R95 ⊂ R110) each have their
// own anycast address, but **every PoP announces every ring**, so traffic
// from a user usually enters the network at the same PoP regardless of ring
// and then rides the (near-optimal, [36]) private WAN to a front-end in the
// ring. Bigger rings therefore shorten the internal leg while the external
// leg stays fixed — which is exactly why larger rings show lower latency
// with diminishing returns and a tiny regression tail (Fig. 4b).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/routing/bgp.h"
#include "src/topology/as_graph.h"
#include "src/topology/generator.h"
#include "src/topology/region.h"

namespace ac::cdn {

struct cdn_plan {
    std::vector<int> ring_sizes{28, 47, 74, 95, 110};  // nested, ascending
    topo::asn_t asn = topo::asn_blocks::content_base + 50;
    std::string name = "cdn";
    /// Fraction of eyeball networks the CDN peers with directly (population-
    /// biased). Drives the ~69% share of 2-AS paths in Fig. 6a.
    double eyeball_peering_fraction = 0.72;
    double transit_peering_fraction = 0.8;
    /// Private-WAN detour factor (routing over the WAN is near optimal [36]).
    double wan_circuitousness = 1.1;
    std::uint64_t seed = 1;
};

/// The CDN: one content AS whose PoPs are the ring-110 front-end locations.
class cdn_network {
public:
    /// A non-serial `pool` parallelizes per-PoP route propagation.
    cdn_network(const cdn_plan& plan, topo::as_graph& graph, const topo::region_table& regions,
                engine::thread_pool* pool = nullptr);

    [[nodiscard]] int ring_count() const noexcept { return static_cast<int>(plan_.ring_sizes.size()); }
    [[nodiscard]] int ring_size(int ring) const { return plan_.ring_sizes.at(static_cast<std::size_t>(ring)); }
    [[nodiscard]] std::string ring_name(int ring) const;
    [[nodiscard]] topo::asn_t asn() const noexcept { return plan_.asn; }

    /// Front-end regions in importance order: the first ring_size(r) entries
    /// form ring r. (Sites in smaller rings are also in larger rings, §2.2.)
    [[nodiscard]] const std::vector<topo::region_id>& front_end_regions() const noexcept {
        return front_ends_;
    }

    /// Number of rings containing front-end `front_end` (rings are nested
    /// prefixes of the importance order, so this counts ring sizes above the
    /// index). Low-index front-ends sit in every ring and concentrate where
    /// users are; `load::capacity_model` reads this as a hardware-weight
    /// proxy when apportioning per-front-end capacity.
    [[nodiscard]] int ring_membership_count(int front_end) const noexcept;

    /// A fully evaluated user path to one ring. Flat: the external AS path
    /// is `pop_rib().as_path(asn, site)`.
    struct cdn_path {
        int ring = 0;
        int front_end = 0;                // index into front_end_regions()
        topo::region_id ingress_pop = 0;  // PoP region where traffic entered
        route::site_id site = 0;          // ingress PoP's site in pop_rib()
        std::uint32_t path_ases = 0;      // ASes on the external path, user AS first
        double external_rtt_ms = 0.0;     // user -> PoP (public Internet)
        double internal_rtt_ms = 0.0;     // PoP -> front-end (private WAN)
        double rtt_ms = 0.0;              // total per-RTT latency
        double front_end_km = 0.0;        // great-circle user-to-front-end
    };
    static_assert(std::is_trivially_copyable_v<cdn_path>);

    /// Evaluates the path from <asn, region> to `ring`. nullopt if the source
    /// AS has no route to the CDN at all.
    [[nodiscard]] std::optional<cdn_path> evaluate(topo::asn_t asn, topo::region_id region,
                                                   int ring) const;

    /// Distance from the centre of `region` to the nearest front-end of
    /// `ring` (Eq. 1's min_k), read from the region distance table. Throws
    /// `std::out_of_range` for a region outside the table.
    [[nodiscard]] double nearest_front_end_km(topo::region_id region, int ring) const;

    /// The PoP-level routing state (one announcement per PoP; shared by all
    /// rings because all routers announce all rings).
    [[nodiscard]] const route::anycast_rib& pop_rib() const noexcept { return *pop_rib_; }

    [[nodiscard]] const topo::region_table& regions() const noexcept { return *regions_; }

private:
    /// The WAN leg from one ingress PoP to one ring is fixed by geography, so
    /// it is precomputed per (PoP, ring) at construction — `evaluate` then
    /// does no haversine work and no ring scan.
    struct internal_leg {
        int front_end = 0;    // nearest ring member to the ingress PoP
        double rtt_ms = 0.0;  // WAN round trip to it
    };
    [[nodiscard]] const internal_leg& leg_for(std::size_t site, int ring) const noexcept {
        return internal_legs_[site * plan_.ring_sizes.size() + static_cast<std::size_t>(ring)];
    }

    cdn_plan plan_;
    const topo::region_table* regions_;
    std::vector<topo::region_id> front_ends_;  // importance-ordered
    std::vector<internal_leg> internal_legs_;  // PoP-major, stride = ring count
    std::unique_ptr<route::anycast_rib> pop_rib_;
};

} // namespace ac::cdn
