// Deterministic random-number streams for the simulator.
//
// Every stochastic component (cross-traffic source, load process, path
// catalogue) owns its own stream derived from (campaign seed, purpose tag),
// so adding a component or reordering draws in one component never perturbs
// another — campaigns are exactly reproducible from (seed, config).
//
// The engine and the distributions are owned here instead of taken from
// <random>: the standard fixes mt19937_64's output but leaves every
// distribution's algorithm to the library, which would tie dataset bytes to
// one standard library. Each draw below reproduces libstdc++ 12's engine and
// distribution of the same name bit for bit (tests/rng_test.cpp holds them
// equal), so datasets pinned against <random> are unchanged (DESIGN.md §6.1).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "core/contracts.hpp"

namespace tcppred::sim {

/// Mix a 64-bit value (SplitMix64 finalizer). Used to derive independent
/// sub-seeds from a master seed plus tags.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// FNV-1a hash of a string tag, for naming RNG streams.
[[nodiscard]] constexpr std::uint64_t hash_tag(std::string_view tag) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : tag) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/// Derive an independent sub-seed from a master seed and up to three indices
/// plus a purpose tag.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t master, std::string_view tag,
                                                  std::uint64_t a = 0, std::uint64_t b = 0,
                                                  std::uint64_t c = 0) noexcept {
    std::uint64_t s = mix64(master ^ hash_tag(tag));
    s = mix64(s ^ (a * 0x9e3779b97f4a7c15ULL));
    s = mix64(s ^ (b * 0xc2b2ae3d27d4eb4fULL));
    s = mix64(s ^ (c * 0x165667b19e3779f9ULL));
    return s;
}

/// MT19937-64 (Matsumoto & Nishimura), the engine std::mt19937_64 names:
/// the same seeding recurrence, twist and tempering, so the same outputs for
/// every seed. The twist selects its matrix term with a mask instead of
/// branching on each state word's low bit, so the refill loops vectorize.
class mt19937_64 {
public:
    explicit mt19937_64(std::uint64_t seed) noexcept {
        x_[0] = seed;
        for (std::size_t i = 1; i < n; ++i) {
            const std::uint64_t prev = x_[i - 1];
            x_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
        }
    }

    std::uint64_t operator()() noexcept {
        if (next_ >= n) refill();
        std::uint64_t z = x_[next_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        return z ^ (z >> 43);
    }

private:
    static constexpr std::size_t n = 312;
    static constexpr std::size_t m = 156;

    /// One state word from its upper bits, its successor's lower 31 bits and
    /// the word m places on.
    static std::uint64_t twist(std::uint64_t upper, std::uint64_t lower,
                               std::uint64_t far) noexcept {
        const std::uint64_t y = (upper & 0xffffffff80000000ULL) | (lower & 0x7fffffffULL);
        return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & 0xb5026f5aa96619e9ULL);
    }

    [[gnu::noinline]] void refill() noexcept {
        for (std::size_t k = 0; k < n - m; ++k) x_[k] = twist(x_[k], x_[k + 1], x_[k + m]);
        for (std::size_t k = n - m; k < n - 1; ++k) {
            x_[k] = twist(x_[k], x_[k + 1], x_[k + m - n]);
        }
        x_[n - 1] = twist(x_[n - 1], x_[0], x_[m - 1]);
        next_ = 0;
    }

    std::array<std::uint64_t, n> x_;
    std::size_t next_{n};
};

/// double(x) * 2^-64, with the values that round up to 1 clamped just below
/// it: what std::generate_canonical<double, 53> makes of one 64-bit draw x.
/// x converts as two exact 32-bit halves whose sum rounds once, to the same
/// double, without the branch on x's top bit that a direct unsigned 64-bit
/// conversion costs on x86-64.
[[nodiscard]] inline double to_unit_interval(std::uint64_t x) noexcept {
    const double u = static_cast<double>(static_cast<std::uint32_t>(x >> 32)) * 0x1p-32 +
                     static_cast<double>(static_cast<std::uint32_t>(x)) * 0x1p-64;
    return std::min(u, 0x1.fffffffffffffp-1);
}

/// A seeded random stream with the distributions the simulator needs.
class rng {
public:
    explicit rng(std::uint64_t seed) noexcept : engine_(seed) {}

    /// Uniform in [0, 1): to_unit_interval of one draw.
    [[nodiscard]] double uniform() noexcept { return to_unit_interval(engine_()); }

    /// Uniform in [lo, hi).
    [[nodiscard]] double uniform(double lo, double hi) noexcept {
        return lo + (hi - lo) * uniform();
    }

    /// Uniform integer in [lo, hi] inclusive (lo <= hi), by Lemire's nearly
    /// divisionless method (arXiv 1805.10941) over a 128-bit product, as
    /// std::uniform_int_distribution draws from a 64-bit engine.
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
        TCPPRED_EXPECTS(lo <= hi);
        using u128 = unsigned __int128;
        const std::uint64_t range = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
        std::uint64_t offset = engine_();
        if (range != ~std::uint64_t{0}) {
            const std::uint64_t span = range + 1;
            u128 product = u128{offset} * span;
            if (static_cast<std::uint64_t>(product) < span) {
                const std::uint64_t threshold = (std::uint64_t{0} - span) % span;
                while (static_cast<std::uint64_t>(product) < threshold) {
                    product = u128{engine_()} * span;
                }
            }
            offset = static_cast<std::uint64_t>(product >> 64);
        }
        return static_cast<std::int64_t>(offset + static_cast<std::uint64_t>(lo));
    }

    /// Exponential with the given mean (mean > 0), by inversion with the
    /// rate 1/mean as std::exponential_distribution stores it.
    [[nodiscard]] double exponential(double mean) noexcept {
        return -std::log(1.0 - uniform()) / (1.0 / mean);
    }

    /// Pareto with shape `alpha` and minimum `xmin` (heavy-tailed on/off
    /// periods; alpha in (1, 2] gives infinite variance burstiness).
    [[nodiscard]] double pareto(double alpha, double xmin) noexcept {
        const double u = 1.0 - uniform();  // in (0, 1]
        return xmin / std::pow(u, 1.0 / alpha);
    }

    /// Normal with given mean and standard deviation, by Marsaglia's polar
    /// method. Each call starts a fresh pair and drops its second value, as
    /// a std::normal_distribution constructed per call does.
    [[nodiscard]] double normal(double mean, double stddev) noexcept {
        double x = 0.0;
        double y = 0.0;
        double r2 = 0.0;
        do {
            x = 2.0 * uniform() - 1.0;
            y = 2.0 * uniform() - 1.0;
            r2 = x * x + y * y;
        } while (r2 > 1.0 || r2 == 0.0);
        return y * std::sqrt(-2 * std::log(r2) / r2) * stddev + mean;
    }

    /// Bernoulli trial with success probability `p`.
    [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

private:
    mt19937_64 engine_;
};

}  // namespace tcppred::sim
