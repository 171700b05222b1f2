// Metro regions: the geographic unit of the study.
//
// Microsoft aggregates users by "region", a metro-sized area; the paper
// reports 508 of them (135 Europe, 62 Africa, 102 Asia, 2 Antarctica,
// 137 North America, 41 South America, 29 Oceania — §2.2). We synthesize a
// region catalogue with the same per-continent counts, placing regions
// inside per-continent bounding areas and assigning heavy-tailed population
// weights so that a few metros dominate, as in reality.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/netbase/geo.h"
#include "src/netbase/rng.h"

namespace ac::topo {

enum class continent : std::uint8_t {
    north_america,
    south_america,
    europe,
    africa,
    asia,
    oceania,
    antarctica,
};

[[nodiscard]] std::string_view to_string(continent c) noexcept;

/// Index into the world's region table.
using region_id = std::uint32_t;

struct region {
    region_id id = 0;
    std::string name;          // synthetic, e.g. "europe-017"
    continent cont = continent::europe;
    geo::point location;       // metro centre
    double population_weight = 1.0;  // relative Internet population
};

/// Per-continent region counts; defaults mirror the paper's 508 regions.
struct region_plan {
    int north_america = 137;
    int south_america = 41;
    int europe = 135;
    int africa = 62;
    int asia = 102;
    int oceania = 29;
    int antarctica = 2;

    [[nodiscard]] int total() const noexcept {
        return north_america + south_america + europe + africa + asia + oceania + antarctica;
    }
};

/// The catalogue of regions plus convenience lookups.
class region_table {
public:
    region_table() = default;
    explicit region_table(std::vector<region> regions);

    [[nodiscard]] const region& at(region_id id) const { return regions_.at(id); }
    [[nodiscard]] const std::vector<region>& all() const noexcept { return regions_; }
    [[nodiscard]] std::size_t size() const noexcept { return regions_.size(); }

    /// Ids of regions on one continent.
    [[nodiscard]] const std::vector<region_id>& on_continent(continent c) const;

    /// Id of the region whose centre is nearest to `p`.
    [[nodiscard]] region_id nearest(const geo::point& p) const;

    /// Precomputed great-circle distance between two region centres, km.
    /// Bit-identical to `geo::distance_km` over the same centre points, so
    /// hot paths (route selection, CDN WAN legs) can use lookups instead of
    /// haversine trig without changing a single output byte.
    [[nodiscard]] double distance_km(region_id a, region_id b) const noexcept {
        return distances_.between(a, b);
    }
    [[nodiscard]] const geo::distance_table& distances() const noexcept { return distances_; }

private:
    std::vector<region> regions_;
    std::vector<std::vector<region_id>> by_continent_;
    geo::distance_table distances_;
};

/// Builds a synthetic region catalogue. Deterministic in `seed`.
///
/// Regions are scattered inside continent-specific anchor zones (a handful of
/// dense "coastal corridors" per continent plus a diffuse interior), and
/// population weights are Pareto-distributed, scaled by a per-continent
/// Internet-population share.
[[nodiscard]] region_table make_regions(const region_plan& plan, std::uint64_t seed);

} // namespace ac::topo
