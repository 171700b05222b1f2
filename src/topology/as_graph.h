// The autonomous-system graph: ASes with roles, geographic footprints, and
// business relationships (customer-provider / settlement-free peering) that
// interconnect at specific regions.
//
// Inflation in the paper is an emergent property of BGP policy routing over
// exactly this kind of structure (§7.1): deployments reachable only through
// transit detours see inflated catchments, deployments that peer directly
// with eyeball networks see 2-AS paths and near-optimal latency. The graph is
// therefore the load-bearing substrate of the whole reproduction.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/topology/region.h"

namespace ac::topo {

using asn_t = std::uint32_t;

enum class as_role : std::uint8_t {
    tier1,      // global transit-free backbone
    transit,    // regional/continental transit provider
    eyeball,    // access ISP with end users
    content,    // content/cloud network (CDN, root-operator hosts, ...)
    enterprise, // stub organisation without users of interest
};

[[nodiscard]] std::string_view to_string(as_role role) noexcept;

/// Relationship of a link seen from one endpoint.
enum class as_relationship : std::uint8_t {
    provider,  // the neighbor is my provider (I am its customer)
    customer,  // the neighbor is my customer
    peer,      // settlement-free peer
};

struct autonomous_system {
    asn_t asn = 0;
    as_role role = as_role::enterprise;
    std::string name;
    std::string organization;           // owning org; siblings share this
    std::vector<region_id> presence;    // regions with a PoP
    double last_mile_ms = 0.0;          // access latency users of this AS incur
};

/// An undirected adjacency with a direction-tagged relationship.
/// `kind_for_a` describes the link from a's perspective (e.g. `provider`
/// means b is a's provider).
struct as_link {
    asn_t a = 0;
    asn_t b = 0;
    as_relationship kind_for_a = as_relationship::peer;
    std::vector<region_id> interconnect_regions;  // where the two ASes meet
    double circuitousness = 1.3;  // fiber-path detour factor on this link
};

/// One neighbor entry in the adjacency index.
struct neighbor_ref {
    asn_t neighbor = 0;
    as_relationship relationship = as_relationship::peer;  // from this AS's view
    std::uint32_t link_index = 0;
    /// Dense index of `neighbor` (registration order, stable: ASes are only
    /// ever appended). Lets propagation inner loops skip the ASN hash lookup.
    std::uint32_t neighbor_index = 0;
};

class as_graph {
public:
    /// A graph over `regions`, which must outlive it and not change size:
    /// every interconnect region id indexes it, and the nearest-interconnect
    /// table has one entry per (link, region).
    explicit as_graph(const region_table& regions);
    as_graph(region_table&&) = delete;  // would dangle

    /// Registers an AS; asn must be unique.
    void add_as(autonomous_system as);

    /// Connects two registered ASes. `kind_for_a` is from a's perspective.
    /// Duplicate (a, b) links are rejected; self-links are rejected;
    /// interconnect regions must be ids of the graph's region table. Gives
    /// the new link its nearest-interconnect row; rows of existing links
    /// never change.
    void add_link(asn_t a, asn_t b, as_relationship kind_for_a,
                  std::vector<region_id> interconnect_regions, double circuitousness = 1.3);

    /// The region table the graph was built over.
    [[nodiscard]] const region_table& regions() const noexcept { return *regions_; }

    /// The interconnect region of `link` nearest the source `region` (first
    /// of the link's interconnects on a distance tie): early-exit geometry
    /// as one table read. A property of the link, shared by every RIB over
    /// this graph. Unchecked: `link < link_count()`, `region <
    /// regions().size()`.
    [[nodiscard]] region_id nearest_interconnect(std::uint32_t link,
                                                 region_id region) const noexcept {
        return nearest_rows_[std::size_t{row_of_link_[link]} * region_count_ + region];
    }

    [[nodiscard]] bool has_as(asn_t asn) const noexcept { return index_.contains(asn); }
    [[nodiscard]] bool has_link(asn_t a, asn_t b) const noexcept;

    [[nodiscard]] const autonomous_system& at(asn_t asn) const;
    [[nodiscard]] const std::vector<autonomous_system>& all() const noexcept { return systems_; }
    [[nodiscard]] const std::vector<as_link>& links() const noexcept { return links_; }
    [[nodiscard]] const as_link& link(std::uint32_t index) const { return links_.at(index); }

    /// Sentinel returned by find_index for unknown ASNs.
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /// Dense index of `asn` (registration order). Throws on unknown ASN.
    [[nodiscard]] std::size_t dense_index(asn_t asn) const { return index_of(asn); }

    /// Dense index of `asn`, or `npos` when unknown.
    [[nodiscard]] std::size_t find_index(asn_t asn) const noexcept;

    /// The AS at a dense index (inverse of dense_index).
    [[nodiscard]] const autonomous_system& at_index(std::size_t index) const {
        return systems_.at(index);
    }

    /// Neighbors of `asn` with relationships from its perspective.
    [[nodiscard]] std::span<const neighbor_ref> neighbors(asn_t asn) const;

    /// Neighbors of the AS at a dense index (no hash lookup).
    [[nodiscard]] std::span<const neighbor_ref> neighbors_at(std::size_t index) const {
        return adjacency_.at(index);
    }

    [[nodiscard]] std::size_t as_count() const noexcept { return systems_.size(); }
    [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }

    /// All ASes with a given role.
    [[nodiscard]] std::vector<asn_t> with_role(as_role role) const;

private:
    [[nodiscard]] std::size_t index_of(asn_t asn) const;
    /// Points the link being added at its nearest-interconnect row,
    /// appending the row if no existing one fits.
    void append_nearest_row(std::span<const region_id> interconnects);
    /// Appends a row holding `fill` in every column; returns its index.
    std::uint32_t new_row(region_id fill);

    const region_table* regions_;
    std::size_t region_count_;
    std::vector<autonomous_system> systems_;
    std::vector<as_link> links_;
    std::unordered_map<asn_t, std::size_t> index_;
    std::vector<std::vector<neighbor_ref>> adjacency_;  // parallel to systems_
    std::unordered_map<std::uint64_t, std::uint32_t> link_lookup_;  // (min,max) -> index
    // Nearest-interconnect table (DESIGN §8), append-only: rows of stride
    // region count, one per multi-interconnect link. Every link meeting in
    // one region r has the constant row "r", shared by all such links.
    static constexpr std::uint32_t no_row = static_cast<std::uint32_t>(-1);
    std::vector<region_id> nearest_rows_;
    std::vector<std::uint32_t> row_of_link_;  // parallel to links_
    std::vector<std::uint32_t> single_row_;   // per region: its shared row, or no_row
};

/// Flips a relationship to the other endpoint's perspective.
[[nodiscard]] constexpr as_relationship invert(as_relationship rel) noexcept {
    switch (rel) {
        case as_relationship::provider: return as_relationship::customer;
        case as_relationship::customer: return as_relationship::provider;
        case as_relationship::peer: return as_relationship::peer;
    }
    return as_relationship::peer;
}

} // namespace ac::topo
