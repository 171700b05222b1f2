// Spherical geometry and propagation-latency bounds.
//
// The paper's inflation metrics (Eq. 1, Eq. 2) are expressed in terms of
// great-circle distance scaled by the speed of light in fiber. Both the
// 2/c_f round-trip conversion of Eq. 1 and the (3/2)-slack lower bound of
// Eq. 2 live here so every consumer uses identical constants.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace ac::geo {

/// Mean Earth radius, km.
inline constexpr double earth_radius_km = 6371.0;

/// Speed of light in vacuum, km per millisecond.
inline constexpr double c_vacuum_km_per_ms = 299.792458;

/// Speed of light in fiber (refractive index ~1.468), km per millisecond.
/// The paper's c_f.
inline constexpr double c_fiber_km_per_ms = c_vacuum_km_per_ms / 1.468;

/// A point on the Earth's surface, degrees.
struct point {
    double lat_deg = 0.0;
    double lon_deg = 0.0;

    friend constexpr bool operator==(const point&, const point&) = default;
};

/// Great-circle distance in kilometres (haversine).
[[nodiscard]] double distance_km(const point& a, const point& b) noexcept;

/// One-way propagation delay along the great circle at fiber speed, ms.
[[nodiscard]] inline double one_way_fiber_ms(double distance_km) noexcept {
    return distance_km / c_fiber_km_per_ms;
}

/// Round-trip propagation delay at fiber speed, ms: the 2/c_f scaling of
/// Eq. 1 applied to a distance.
[[nodiscard]] inline double round_trip_fiber_ms(double distance_km) noexcept {
    return 2.0 * distance_km / c_fiber_km_per_ms;
}

/// The paper's "optimal" achievable RTT used in Eq. 2: routes rarely beat
/// great-circle distance divided by (2/3)c_f [46], i.e. RTT >= 3*2*d / (2*c_f).
[[nodiscard]] inline double best_case_rtt_ms(double distance_km) noexcept {
    return 3.0 * 2.0 * distance_km / (2.0 * c_fiber_km_per_ms);
}

/// Inverse of round_trip_fiber_ms: km of one-way distance corresponding to a
/// round-trip time. Used to convert "ms of geographic inflation" back to km
/// for axis labelling (the paper writes 20 ms ~ 2,000 km).
[[nodiscard]] inline double rtt_ms_to_km(double rtt_ms) noexcept {
    return rtt_ms * c_fiber_km_per_ms / 2.0;
}

/// Dense all-pairs great-circle distance table over a fixed point set.
///
/// Entry (a, b) holds exactly `distance_km(points[a], points[b])`, so
/// consumers replacing on-the-fly haversine calls with lookups stay
/// bit-identical (the routing fast path depends on this — DESIGN §8).
/// The table is symmetric: entry (b, a) holds the same bits, so a row
/// `between(p, ·)` may stand in for the column `between(·, p)`.
class distance_table {
public:
    distance_table() = default;
    explicit distance_table(std::span<const point> points);

    [[nodiscard]] double between(std::size_t a, std::size_t b) const noexcept {
        return km_[a * count_ + b];
    }
    /// Distances from point `a` to every point: `row(a)[b] == between(a, b)`.
    [[nodiscard]] std::span<const double> row(std::size_t a) const noexcept {
        return std::span<const double>{km_}.subspan(a * count_, count_);
    }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

private:
    std::size_t count_ = 0;
    std::vector<double> km_;  // row-major, count_ x count_
};

/// Destination point reached by travelling `distance_km` from `origin` on the
/// initial bearing `bearing_deg` (great-circle forward problem). Used by the
/// synthetic world builder to scatter sites/users around metro centres.
[[nodiscard]] point destination(const point& origin, double bearing_deg, double distance_km) noexcept;

/// Geographic midpoint of two points along the great circle.
[[nodiscard]] point midpoint(const point& a, const point& b) noexcept;

} // namespace ac::geo
