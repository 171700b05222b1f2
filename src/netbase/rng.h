// Deterministic pseudo-randomness for the simulation.
//
// Every stochastic component of the synthetic world takes an `rng` (or a seed
// used to build one), so whole experiments are reproducible bit-for-bit.
// splitmix64 seeds xoshiro256++, which supplies the stream.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ac::rand {

/// splitmix64: used for seeding and for stateless hashing of ids into
/// per-entity sub-seeds (so adding entities does not shift others' draws).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Mixes several values into one sub-seed.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b,
                                               std::uint64_t c = 0) noexcept {
    return splitmix64(splitmix64(splitmix64(a) ^ b) ^ c);
}

/// xoshiro256++ generator.
class rng {
public:
    using result_type = std::uint64_t;

    explicit rng(std::uint64_t seed) noexcept;

    [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
    [[nodiscard]] static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

    result_type operator()() noexcept { return next(); }
    result_type next() noexcept;

    /// Uniform double in [0, 1).
    [[nodiscard]] double uniform() noexcept;
    /// Uniform double in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi) noexcept;
    /// Uniform integer in [0, n). n must be > 0.
    [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) noexcept;
    /// Uniform integer in [lo, hi] inclusive.
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
    /// Bernoulli draw.
    [[nodiscard]] bool chance(double p) noexcept;
    /// Standard normal via Box-Muller (no cached spare: keeps draws countable).
    [[nodiscard]] double normal() noexcept;
    [[nodiscard]] double normal(double mean, double stddev) noexcept;
    /// Log-normal with the given parameters of the underlying normal.
    [[nodiscard]] double lognormal(double mu, double sigma) noexcept;
    /// Exponential with rate lambda (> 0).
    [[nodiscard]] double exponential(double lambda) noexcept;
    /// Pareto (type I) with scale x_m > 0 and shape alpha > 0. Heavy-tailed
    /// draws model user-population and query-volume skew.
    [[nodiscard]] double pareto(double x_m, double alpha) noexcept;
    /// Poisson-distributed count with the given mean (Knuth for small means,
    /// normal approximation above 64).
    [[nodiscard]] std::uint64_t poisson(double mean) noexcept;
    /// Index into `weights`, proportional to weight: sums the weights,
    /// draws `uniform() * total` and hands it to `weighted_walk`. Same
    /// precondition as `weighted_table` (asserted in debug builds); callers
    /// that draw repeatedly over fixed weights build a `weighted_table`.
    [[nodiscard]] std::size_t weighted_index(std::span<const double> weights) noexcept;

    /// Fisher-Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& items) noexcept {
        for (std::size_t i = items.size(); i > 1; --i) {
            using std::swap;
            swap(items[i - 1], items[uniform_index(i)]);
        }
    }

    /// A child generator whose stream is independent of draws made on this
    /// one: keyed by (original seed, tag), not by generator state.
    [[nodiscard]] rng fork(std::uint64_t tag) const noexcept {
        return rng{mix_seed(seed_, tag)};
    }

    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

private:
    std::uint64_t seed_;
    std::uint64_t state_[4];
};

/// The draw rule behind every weighted draw: subtracts the weights from
/// `target` in order and returns the first index that takes it below zero.
/// A target that rounding leaves unspent (only possible within a few ulps of
/// the total) goes to the last positive weight, so a zero weight is never
/// drawn.
[[nodiscard]] std::size_t weighted_walk(std::span<const double> weights, double target) noexcept;

/// Repeated weighted draws over fixed weights in O(log n), returning exactly
/// what `rng::weighted_index` returns for the same generator state.
///
/// The prefix sums are built once in `weighted_index`'s summation order, so
/// `total()` and the target `uniform() * total()` are bit-identical to its.
/// A draw is an `upper_bound` over them, which matches the linear walk
/// except where rounding blurs a boundary: a target within a proven margin
/// of either prefix sum bracketing it re-runs `weighted_walk` on the same
/// target (DESIGN.md §5 states the bound).
class weighted_table {
public:
    /// Throws `std::invalid_argument` unless `weights` is non-empty, every
    /// weight is finite and non-negative, and the total is positive.
    explicit weighted_table(std::vector<double> weights);

    [[nodiscard]] std::size_t draw(rng& gen) const noexcept {
        return pick(gen.uniform() * total());
    }
    /// The index a draw with this target picks; `target` in [0, total()].
    [[nodiscard]] std::size_t pick(double target) const noexcept;

    [[nodiscard]] double total() const noexcept { return cumulative_.back(); }
    [[nodiscard]] std::size_t size() const noexcept { return weights_.size(); }

private:
    /// The prefix-sum pick, or `size()` when the target is too close to a
    /// boundary for it to be trusted.
    [[nodiscard]] std::size_t bracket(double target) const noexcept;

    std::vector<double> weights_;
    std::vector<double> cumulative_;
    double margin_ = 0.0;
};

} // namespace ac::rand
