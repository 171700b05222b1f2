#include "src/netbase/geo.h"

#include <numbers>

namespace ac::geo {

namespace {

constexpr double deg_to_rad = std::numbers::pi / 180.0;
constexpr double rad_to_deg = 180.0 / std::numbers::pi;

} // namespace

double distance_km(const point& a, const point& b) noexcept {
    const double lat1 = a.lat_deg * deg_to_rad;
    const double lat2 = b.lat_deg * deg_to_rad;
    const double dlat = (b.lat_deg - a.lat_deg) * deg_to_rad;
    const double dlon = (b.lon_deg - a.lon_deg) * deg_to_rad;

    const double sin_dlat = std::sin(dlat / 2.0);
    const double sin_dlon = std::sin(dlon / 2.0);
    const double h = sin_dlat * sin_dlat + std::cos(lat1) * std::cos(lat2) * sin_dlon * sin_dlon;
    // Clamp for numeric safety before asin.
    const double root = std::sqrt(h < 0.0 ? 0.0 : (h > 1.0 ? 1.0 : h));
    return 2.0 * earth_radius_km * std::asin(root);
}

distance_table::distance_table(std::span<const point> points) : count_(points.size()) {
    km_.resize(count_ * count_);
    // Haversine is bit-exact symmetric (pinned by topology_test), so the upper
    // triangle is computed once and mirrored: half the trig, same bytes.
    for (std::size_t a = 0; a < count_; ++a) {
        for (std::size_t b = a; b < count_; ++b) {
            const double km = geo::distance_km(points[a], points[b]);
            km_[a * count_ + b] = km;
            km_[b * count_ + a] = km;
        }
    }
}

point destination(const point& origin, double bearing_deg, double distance_km) noexcept {
    const double lat1 = origin.lat_deg * deg_to_rad;
    const double lon1 = origin.lon_deg * deg_to_rad;
    const double bearing = bearing_deg * deg_to_rad;
    const double angular = distance_km / earth_radius_km;

    const double lat2 = std::asin(std::sin(lat1) * std::cos(angular) +
                                  std::cos(lat1) * std::sin(angular) * std::cos(bearing));
    const double lon2 =
        lon1 + std::atan2(std::sin(bearing) * std::sin(angular) * std::cos(lat1),
                          std::cos(angular) - std::sin(lat1) * std::sin(lat2));

    double lon_deg = lon2 * rad_to_deg;
    // Normalize longitude to [-180, 180).
    while (lon_deg >= 180.0) lon_deg -= 360.0;
    while (lon_deg < -180.0) lon_deg += 360.0;
    return point{lat2 * rad_to_deg, lon_deg};
}

point midpoint(const point& a, const point& b) noexcept {
    const double lat1 = a.lat_deg * deg_to_rad;
    const double lon1 = a.lon_deg * deg_to_rad;
    const double lat2 = b.lat_deg * deg_to_rad;
    const double dlon = (b.lon_deg - a.lon_deg) * deg_to_rad;

    const double bx = std::cos(lat2) * std::cos(dlon);
    const double by = std::cos(lat2) * std::sin(dlon);
    const double lat3 = std::atan2(std::sin(lat1) + std::sin(lat2),
                                   std::sqrt((std::cos(lat1) + bx) * (std::cos(lat1) + bx) + by * by));
    const double lon3 = lon1 + std::atan2(by, std::cos(lat1) + bx);

    double lon_deg = lon3 * rad_to_deg;
    while (lon_deg >= 180.0) lon_deg -= 360.0;
    while (lon_deg < -180.0) lon_deg += 360.0;
    return point{lat3 * rad_to_deg, lon_deg};
}

} // namespace ac::geo
