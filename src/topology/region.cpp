#include "src/topology/region.h"

#include <algorithm>
#include <array>
#include <cmath>
#include "src/netbase/strfmt.h"
#include <limits>

namespace ac::topo {

std::string_view to_string(continent c) noexcept {
    switch (c) {
        case continent::north_america: return "north-america";
        case continent::south_america: return "south-america";
        case continent::europe: return "europe";
        case continent::africa: return "africa";
        case continent::asia: return "asia";
        case continent::oceania: return "oceania";
        case continent::antarctica: return "antarctica";
    }
    return "unknown";
}

region_table::region_table(std::vector<region> regions)
    : regions_(std::move(regions)), by_continent_(7) {
    std::vector<geo::point> centres;
    centres.reserve(regions_.size());
    for (const auto& r : regions_) {
        by_continent_[static_cast<std::size_t>(r.cont)].push_back(r.id);
        centres.push_back(r.location);
    }
    distances_ = geo::distance_table{centres};
}

const std::vector<region_id>& region_table::on_continent(continent c) const {
    return by_continent_.at(static_cast<std::size_t>(c));
}

region_id region_table::nearest(const geo::point& p) const {
    region_id best = 0;
    double best_km = std::numeric_limits<double>::infinity();
    for (const auto& r : regions_) {
        const double d = geo::distance_km(p, r.location);
        if (d < best_km) {
            best_km = d;
            best = r.id;
        }
    }
    return best;
}

namespace {

// A population corridor: regions cluster around these anchor points.
struct corridor {
    geo::point centre;
    double spread_km;   // scatter radius
    double density;     // relative likelihood of hosting a region
};

struct continent_spec {
    continent cont;
    double internet_share;  // share of global Internet population
    std::vector<corridor> corridors;
};

// Hand-placed anchors approximating real population corridors. Synthetic
// regions scatter around them, so distances between "metros" are plausible
// without importing any external dataset.
const std::vector<continent_spec>& continent_specs() {
    static const std::vector<continent_spec> specs = {
        {continent::north_america,
         0.16,
         {{{40.7, -74.0}, 700, 3.0},   // US northeast
          {{34.0, -118.2}, 600, 2.2},  // US west coast
          {{41.9, -87.6}, 600, 1.8},   // US midwest
          {{29.8, -95.4}, 600, 1.5},   // US south
          {{45.5, -73.6}, 500, 1.0},   // eastern Canada
          {{19.4, -99.1}, 500, 1.6},   // Mexico
          {{25.8, -80.2}, 400, 1.0}}}, // Florida / Caribbean gateway
        {continent::south_america,
         0.08,
         {{{-23.5, -46.6}, 700, 2.5},  // Brazil southeast
          {{-34.6, -58.4}, 500, 1.4},  // Rio de la Plata
          {{4.7, -74.1}, 600, 1.2},    // Andean north
          {{-33.4, -70.7}, 400, 0.8}}},// Chile
        {continent::europe,
         0.18,
         {{{51.5, -0.1}, 500, 2.5},    // UK / Benelux
          {{48.9, 2.3}, 450, 2.0},     // France
          {{50.1, 8.7}, 450, 2.2},     // Germany / Frankfurt
          {{41.9, 12.5}, 500, 1.4},    // Italy
          {{40.4, -3.7}, 450, 1.2},    // Iberia
          {{52.2, 21.0}, 600, 1.4},    // central/eastern Europe
          {{59.3, 18.1}, 600, 0.9},    // Nordics
          {{55.8, 37.6}, 700, 1.6}}},  // Russia west
        {continent::africa,
         0.12,
         {{{30.0, 31.2}, 600, 1.8},    // Egypt / north Africa
          {{6.5, 3.4}, 700, 2.0},      // west Africa
          {{-26.2, 28.0}, 600, 1.4},   // South Africa
          {{-1.3, 36.8}, 700, 1.2},    // east Africa
          {{33.6, -7.6}, 500, 0.9}}},  // Maghreb
        {continent::asia,
         0.40,
         {{{31.2, 121.5}, 900, 3.0},   // China east
          {{28.6, 77.2}, 900, 3.0},    // India north
          {{19.1, 72.9}, 700, 2.2},    // India west
          {{35.7, 139.7}, 500, 2.0},   // Japan
          {{37.6, 127.0}, 400, 1.3},   // Korea
          {{1.35, 103.8}, 900, 2.0},   // southeast Asia
          {{41.0, 29.0}, 700, 1.3},    // Anatolia / Levant
          {{25.2, 55.3}, 700, 1.1}}},  // Gulf
        {continent::oceania,
         0.05,
         {{{-33.9, 151.2}, 600, 2.0},  // Australia east
          {{-37.8, 145.0}, 400, 1.4},  // Australia southeast
          {{-31.9, 115.9}, 400, 0.7},  // Australia west
          {{-36.8, 174.8}, 400, 0.8}}},// New Zealand
        {continent::antarctica,
         0.01,
         {{{-77.8, 166.7}, 300, 1.0},  // McMurdo
          {{-62.2, -58.9}, 300, 1.0}}},// peninsula stations
    };
    return specs;
}

} // namespace

region_table make_regions(const region_plan& plan, std::uint64_t seed) {
    rand::rng gen{rand::mix_seed(seed, 0x7e910a11u)};
    std::vector<region> regions;
    regions.reserve(static_cast<std::size_t>(plan.total()));

    const auto count_for = [&plan](continent c) {
        switch (c) {
            case continent::north_america: return plan.north_america;
            case continent::south_america: return plan.south_america;
            case continent::europe: return plan.europe;
            case continent::africa: return plan.africa;
            case continent::asia: return plan.asia;
            case continent::oceania: return plan.oceania;
            case continent::antarctica: return plan.antarctica;
        }
        return 0;
    };

    for (const auto& spec : continent_specs()) {
        const int count = count_for(spec.cont);
        std::vector<double> densities;
        densities.reserve(spec.corridors.size());
        for (const auto& c : spec.corridors) densities.push_back(c.density);

        for (int i = 0; i < count; ++i) {
            const auto& corridor = spec.corridors[gen.weighted_index(densities)];
            // Scatter with distance decaying from the corridor anchor.
            const double bearing = gen.uniform(0.0, 360.0);
            const double radius = corridor.spread_km * std::sqrt(gen.uniform());
            const geo::point loc = geo::destination(corridor.centre, bearing, radius);

            // Heavy-tailed metro weight, scaled by continent Internet share.
            const double weight =
                spec.internet_share * gen.pareto(1.0, 1.2) / static_cast<double>(count);

            region r;
            r.id = static_cast<region_id>(regions.size());
            r.name = strfmt::indexed_name(to_string(spec.cont), i, 3);
            r.cont = spec.cont;
            r.location = loc;
            r.population_weight = weight;
            regions.push_back(std::move(r));
        }
    }

    return region_table{std::move(regions)};
}

} // namespace ac::topo
