#include "src/netbase/rng.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace ac::rand {

rng::rng(std::uint64_t seed) noexcept : seed_(seed) {
    std::uint64_t s = seed;
    for (auto& word : state_) {
        s = splitmix64(s);
        word = s;
    }
}

rng::result_type rng::next() noexcept {
    const std::uint64_t result = std::rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
}

double rng::uniform() noexcept {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double rng::uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
}

std::uint64_t rng::uniform_index(std::uint64_t n) noexcept {
    // Lemire's multiply-shift rejection method for unbiased bounded draws.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
    auto low = static_cast<std::uint64_t>(m);
    if (low < n) {
        const std::uint64_t threshold = -n % n;
        while (low < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniform_index(span));
}

bool rng::chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
}

double rng::normal() noexcept {
    // Box-Muller; u1 nudged away from zero to keep log finite.
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double rng::normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
}

double rng::lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
}

double rng::exponential(double lambda) noexcept {
    return -std::log(1.0 - uniform()) / lambda;
}

double rng::pareto(double x_m, double alpha) noexcept {
    return x_m / std::pow(1.0 - uniform(), 1.0 / alpha);
}

std::uint64_t rng::poisson(double mean) noexcept {
    if (mean <= 0.0) return 0;
    if (mean > 64.0) {
        const double draw = normal(mean, std::sqrt(mean));
        return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
    }
    const double limit = std::exp(-mean);
    std::uint64_t count = 0;
    double product = uniform();
    while (product > limit) {
        ++count;
        product *= uniform();
    }
    return count;
}

std::size_t rng::weighted_index(std::span<const double> weights) noexcept {
    double total = 0.0;
    for (double w : weights) {
        assert(std::isfinite(w) && w >= 0.0);
        total += w;
    }
    assert(total > 0.0);
    return weighted_walk(weights, uniform() * total);
}

std::size_t weighted_walk(std::span<const double> weights, double target) noexcept {
    for (std::size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0) return i;
    }
    for (std::size_t i = weights.size(); i-- > 0;) {
        if (weights[i] > 0.0) return i;
    }
    return weights.size() - 1;
}

weighted_table::weighted_table(std::vector<double> weights) : weights_(std::move(weights)) {
    cumulative_.reserve(weights_.size());
    double total = 0.0;
    for (double w : weights_) {
        if (!std::isfinite(w) || w < 0.0) {
            throw std::invalid_argument("weighted_table: weights must be finite and non-negative");
        }
        total += w;
        cumulative_.push_back(total);
    }
    if (weights_.empty() || !(total > 0.0) || !std::isfinite(total)) {
        throw std::invalid_argument("weighted_table: needs a positive, finite total weight");
    }
    // Within this distance of a prefix sum the walk's rounding and the
    // prefix sums' rounding may fall on different sides (DESIGN.md).
    margin_ = 4.0 * static_cast<double>(weights_.size() + 2) *
              std::numeric_limits<double>::epsilon() * total;
}

std::size_t weighted_table::bracket(double target) const noexcept {
    const auto k = static_cast<std::size_t>(
        std::upper_bound(cumulative_.begin(), cumulative_.end(), target) - cumulative_.begin());
    if (k == cumulative_.size() || cumulative_[k] - target <= margin_ ||
        (k > 0 && target - cumulative_[k - 1] <= margin_)) {
        return size();
    }
    return k;
}

std::size_t weighted_table::pick(double target) const noexcept {
    const std::size_t k = bracket(target);
    return k < size() ? k : weighted_walk(weights_, target);
}

} // namespace ac::rand
