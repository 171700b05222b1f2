// Anycast deployments: named sets of sites sharing one anycast prefix, plus
// catchment computation (which source picks which site, and at what cost).
//
// Deployment *strategy* is the study's independent variable: root letters
// differ in size and in how sites are hosted (volunteer/open hosting vs
// CDN-partnered vs a couple of well-connected sites), and Microsoft's rings
// differ only in size while sharing a centrally engineered, heavily peered
// host network. Builders for these strategies live here.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/routing/bgp.h"
#include "src/topology/as_graph.h"
#include "src/topology/generator.h"
#include "src/topology/region.h"

namespace ac::anycast {

struct site {
    route::site_id id = 0;
    std::string name;
    topo::asn_t host_asn = 0;
    topo::region_id region = 0;
    route::announcement_scope scope = route::announcement_scope::global;
};

/// An anycast deployment with its computed routing state.
class deployment {
public:
    deployment(std::string name, std::vector<site> sites, const topo::as_graph& graph,
               const topo::region_table& regions, engine::thread_pool* pool = nullptr);

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const std::vector<site>& sites() const noexcept { return sites_; }
    [[nodiscard]] const route::anycast_rib& rib() const noexcept { return *rib_; }
    /// Mutable routing state, for scenario-driven announce/withdraw events
    /// (src/scenario). The site records themselves stay fixed — events only
    /// change what the RIB announces.
    [[nodiscard]] route::anycast_rib& mutable_rib() noexcept { return *rib_; }
    [[nodiscard]] const topo::region_table& regions() const noexcept { return *regions_; }

    [[nodiscard]] int global_site_count() const noexcept { return global_count_; }
    [[nodiscard]] int total_site_count() const noexcept { return static_cast<int>(sites_.size()); }

    /// Great-circle distance (km) from `p` to the nearest *global* site —
    /// the min_k d(R, j_k) term of Eq. 1 and Eq. 2 (§3.1 considers global
    /// sites only, since local-site reachability is unknown).
    [[nodiscard]] double nearest_global_site_km(const geo::point& p) const;
    /// The same from a region's centre, read from the region distance table:
    /// bit-identical to the point overload at `regions().at(region).location`.
    /// Throws `std::out_of_range` for a region outside the table.
    [[nodiscard]] double nearest_global_site_km(topo::region_id region) const;

    /// The site record for a site id.
    [[nodiscard]] const site& site_at(route::site_id id) const { return sites_.at(id); }

private:
    std::string name_;
    std::vector<site> sites_;
    const topo::region_table* regions_;
    std::unique_ptr<route::anycast_rib> rib_;
    int global_count_ = 0;
};

/// How sites choose their locations and host networks.
enum class hosting_strategy : std::uint8_t {
    /// Open/volunteer hosting (K/L-root style): sites land in essentially
    /// random regions (weak population bias) and are hosted inside existing
    /// volunteer networks — whatever transit or eyeball AS is around.
    open_hosting,
    /// Operator-run deployment: population-weighted placement, hosted on a
    /// single dedicated network with modest transit-level connectivity.
    operator_run,
    /// CDN-partnered (F-root/Cloudflare style): population-weighted
    /// placement on a heavily peered content network.
    cdn_partnered,
};

struct deployment_plan {
    std::string name;
    hosting_strategy strategy = hosting_strategy::operator_run;
    int global_sites = 5;
    int local_sites = 0;
    topo::asn_t dedicated_asn = 0;      // used by operator_run / cdn_partnered
    double eyeball_peering_fraction = 0.0;  // dedicated network's direct peering
    double transit_peering_fraction = 0.2;
    /// Open-hosting sites often sit at IXPs (PCH-style): chance that each
    /// same-metro eyeball peers directly with a volunteer site's host.
    double local_ixp_peering_p = 0.0;
    std::uint64_t seed = 1;
};

/// Builds a deployment per `plan`, creating and attaching a dedicated host
/// network when the strategy needs one. Mutates `graph`. A non-serial `pool`
/// parallelizes per-site route propagation.
[[nodiscard]] deployment build_deployment(const deployment_plan& plan, topo::as_graph& graph,
                                          const topo::region_table& regions,
                                          engine::thread_pool* pool = nullptr);

/// A traffic source: one <region, AS> location (§2.2's user granularity).
struct source {
    topo::asn_t asn = 0;
    topo::region_id region = 0;
};

/// One catchment row: where a source's traffic lands and at what cost.
struct catchment_row {
    source src;
    route::path_result primary;
    /// Secondary site seen by a minority of the source's traffic, when
    /// intermediate-AS load balancing splits it (App. B.2 observes ~<20% of
    /// /24s see more than one site; most splits are small).
    std::optional<route::path_result> secondary;
    double secondary_fraction = 0.0;
};

/// Catchments for a deployment over a set of sources. Sources with no route
/// to any site are skipped (they do not appear in the table).
class catchment_table {
public:
    /// Row computation is keyed per source (seed mixed with the source's
    /// <AS, region>), so a non-serial `pool` chunks sources across threads
    /// and still yields byte-identical rows in the same order.
    catchment_table(const deployment& dep, std::span<const source> sources, std::uint64_t seed,
                    engine::thread_pool* pool = nullptr);

    [[nodiscard]] const std::vector<catchment_row>& rows() const noexcept { return rows_; }
    [[nodiscard]] const catchment_row* find(topo::asn_t asn, topo::region_id region) const;
    [[nodiscard]] const deployment& dep() const noexcept { return *dep_; }

private:
    const deployment* dep_;
    std::vector<catchment_row> rows_;
    std::unordered_map<std::uint64_t, std::size_t> index_;
};

} // namespace ac::anycast
