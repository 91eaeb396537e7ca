#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#if defined(__GLIBCXX__) && _GLIBCXX_RELEASE >= 11
#include <random>  // the reference the owned engine and distributions reproduce
#define TCPPRED_RNG_REFERENCE 1
#endif

namespace tcppred::sim {
namespace {

TEST(rng, deterministic_for_same_seed) {
    rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(rng, different_seeds_differ) {
    rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform() == b.uniform()) ++equal;
    }
    EXPECT_LT(equal, 5);
}

TEST(rng, uniform_respects_bounds) {
    rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const double x = r.uniform(3.0, 5.0);
        EXPECT_GE(x, 3.0);
        EXPECT_LT(x, 5.0);
    }
}

TEST(rng, uniform_int_inclusive) {
    rng r(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto x = r.uniform_int(1, 4);
        EXPECT_GE(x, 1);
        EXPECT_LE(x, 4);
        saw_lo |= (x == 1);
        saw_hi |= (x == 4);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(rng, exponential_mean_converges) {
    rng r(11);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += r.exponential(2.5);
    EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(rng, pareto_respects_minimum) {
    rng r(13);
    for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(1.5, 0.4), 0.4);
}

TEST(rng, pareto_mean_converges_for_shape_above_one) {
    // mean = alpha * xmin / (alpha - 1); use a tame shape for convergence.
    rng r(17);
    const double alpha = 3.0, xmin = 1.0;
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += r.pareto(alpha, xmin);
    EXPECT_NEAR(sum / n, alpha * xmin / (alpha - 1.0), 0.03);
}

TEST(rng, chance_probability_converges) {
    rng r(19);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) hits += r.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(rng, derive_seed_varies_with_every_input) {
    const std::uint64_t base = derive_seed(1, "x", 0, 0, 0);
    EXPECT_NE(base, derive_seed(2, "x", 0, 0, 0));
    EXPECT_NE(base, derive_seed(1, "y", 0, 0, 0));
    EXPECT_NE(base, derive_seed(1, "x", 1, 0, 0));
    EXPECT_NE(base, derive_seed(1, "x", 0, 1, 0));
    EXPECT_NE(base, derive_seed(1, "x", 0, 0, 1));
}

TEST(rng, derive_seed_is_pure) {
    EXPECT_EQ(derive_seed(99, "tag", 1, 2, 3), derive_seed(99, "tag", 1, 2, 3));
}

TEST(rng, normal_moments) {
    rng r(23);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = r.normal(1.0, 2.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    EXPECT_NEAR(mean, 1.0, 0.03);
    EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 2.0, 0.03);
}

TEST(rng, uniform_int_rejects_reversed_bounds) {
#if TCPPRED_CHECKS
    rng r(29);
    EXPECT_THROW((void)r.uniform_int(5, 4), contract_violation);
    EXPECT_THROW((void)r.uniform_int(0, std::numeric_limits<std::int64_t>::min()),
                 contract_violation);
    EXPECT_EQ(r.uniform_int(4, 4), 4);
#else
    GTEST_SKIP() << "contract checks compiled out (Release without REPRO_CHECKS)";
#endif
}

// --- pinned streams --------------------------------------------------------
// The first draws of three seeds, as hexfloat and hex literals. They hold the
// streams fixed on any toolchain, with or without a standard library to
// compare against.

TEST(rng_pinned, mt19937_64_ten_thousandth_output_of_default_seed) {
    mt19937_64 g(5489);  // the standard's default seed and required value
    for (int i = 0; i < 9999; ++i) (void)g();
    EXPECT_EQ(g(), 9981545732273789042ULL);
}

struct pinned_stream {
    std::uint64_t seed;
    std::uint64_t raw[2];
    double uniform[3];
    double exponential;
    double normal;
    double pareto;
    std::int64_t uniform_int[2];
};

TEST(rng_pinned, first_draws_of_three_seeds) {
    const pinned_stream pins[] = {
        {0,
         {0x28e837c5cb41dc3eULL, 0xfdfd3a7c3e40f98bULL},
         {0x1.442642fe065d1p-5, 0x1.31ead2079dc8p-1, 0x1.15a66026760e5p-1},
         0x1.2d5af6371790ep-3,
         -0x1.0d61d6cacec04p-6,
         0x1.0eaaf45b879b8p-1,
         {1, 423}},
        {20040501,
         {0x0cca275e4f7ab60dULL, 0xa1e26866f73ac0afULL},
         {0x1.e053f6c977564p-1, 0x1.262e16886000cp-2, 0x1.5eaaca1a2b333p-1},
         0x1.c4b5f58ad92b1p-1,
         -0x1.fee41947e5612p-6,
         0x1.cb96a55230039p-3,
         {-1, 624}},
        {derive_seed(20040501, "trace", 3, 7),
         {0xc3cd8738eac57f97ULL, 0x80ceb6df08e54745ULL},
         {0x1.b16bb69035306p-2, 0x1.fa29864c76843p-2, 0x1.f3f00625a8b65p-1},
         0x1.15ef3761c5742p+0,
         0x1.917a377322136p-6,
         0x1.2cc1f69fd3a04p-1,
         {0, 405}},
    };
    EXPECT_EQ(pins[2].seed, 0x75e2fb45aa2e1b73ULL);
    for (const pinned_stream& pin : pins) {
        SCOPED_TRACE(pin.seed);
        mt19937_64 g(pin.seed);
        EXPECT_EQ(g(), pin.raw[0]);
        EXPECT_EQ(g(), pin.raw[1]);
        // The rng draws the same stream: skip the two raw words, then one
        // draw of each distribution in turn.
        rng r(pin.seed);
        (void)r.uniform();
        (void)r.uniform();
        for (const double u : pin.uniform) EXPECT_EQ(r.uniform(), u);
        EXPECT_EQ(r.exponential(2.5), pin.exponential);
        EXPECT_EQ(r.normal(0.0, 0.015), pin.normal);
        EXPECT_EQ(r.pareto(1.9, 0.2), pin.pareto);
        EXPECT_EQ(r.uniform_int(-1, 1), pin.uniform_int[0]);
        EXPECT_EQ(r.uniform_int(0, 999), pin.uniform_int[1]);
    }
}

#ifdef TCPPRED_RNG_REFERENCE
// --- libstdc++ reference ---------------------------------------------------
// Each owned draw must equal the <random> engine or distribution it replaces,
// seeded alike, bit for bit: that is what keeps every dataset pinned before
// the engine was owned byte-identical. The distributions are libstdc++'s
// algorithms (the standard leaves them to the library); a libstdc++ that
// changes one fails here while the pinned block above still passes.

std::vector<std::uint64_t> reference_seeds() {
    return {0,
            1,
            ~0ULL,
            20040501,
            5489,
            42,
            0x8000000000000000ULL,
            0xdeadbeefcafef00dULL,
            derive_seed(20040501, "campaign"),
            derive_seed(derive_seed(20040501, "campaign"), "trace", 0, 0),
            derive_seed(derive_seed(20040501, "campaign"), "trace", 34, 7),
            derive_seed(1, "measure", 3, 1),
            derive_seed(11, "cross", 2, 5, 9),
            derive_seed(7, "loss", 1, 0, 149),
            derive_seed(99, "chaos"),
            derive_seed(0, "")};
}

TEST(rng_reference, engine_equals_std_mt19937_64) {
    for (const std::uint64_t seed : reference_seeds()) {
        mt19937_64 owned(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < 100000; ++i) {
            const std::uint64_t a = owned();
            const std::uint64_t b = ref();
            if (a != b) {
                ADD_FAILURE() << "seed " << seed << " output " << i << ": " << a << " != " << b;
                break;
            }
        }
    }
}

/// A generator that replays given words, to reach the conversion's rounding
/// ties and its clamp, which a seeded stream all but never draws.
struct replay_words {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() { return words[next++]; }
    std::vector<std::uint64_t> words;
    std::size_t next{0};
};

TEST(rng_reference, to_unit_interval_equals_generate_canonical) {
    replay_words g;
    // Values at and around every rounding boundary: ties to even at each
    // exponent (one above and one below), the largest words (which round to
    // 1 and are clamped) and the smallest.
    for (int e = 53; e < 64; ++e) {
        const std::uint64_t base = std::uint64_t{1} << e;
        const std::uint64_t half_ulp = std::uint64_t{1} << (e - 53);
        for (const std::uint64_t k : {0ULL, 1ULL, 2ULL, 3ULL, 0x1234567ULL}) {
            const std::uint64_t at = base + k * 2 * half_ulp;
            for (const std::uint64_t x : {at, at + half_ulp, at + half_ulp - 1,
                                          at + half_ulp + 1, at - 1}) {
                g.words.push_back(x);
            }
        }
    }
    for (std::uint64_t k = 0; k < 4096; ++k) {
        g.words.push_back(~std::uint64_t{0} - k);
        g.words.push_back(k);
        g.words.push_back((std::uint64_t{1} << 53) - 2048 + k);
    }
    mt19937_64 words(20040501);
    for (int i = 0; i < 100000; ++i) g.words.push_back(words() >> (i % 64));
    for (const std::uint64_t x : g.words) {
        ASSERT_EQ(to_unit_interval(x), (std::generate_canonical<double, 53>(g))) << x;
    }
    EXPECT_EQ(to_unit_interval(~std::uint64_t{0}), 0x1.fffffffffffffp-1);
}

TEST(rng_reference, uniform_equals_uniform_real_distribution) {
    const std::pair<double, double> bounds[] = {
        {0.0, 1.0}, {3.0, 5.0}, {-1.0, 1.0}, {0.55, 0.9}, {0.03, 0.35}, {-1e9, 1e-9}};
    for (const std::uint64_t seed : reference_seeds()) {
        rng owned(seed);
        std::mt19937_64 ref(seed);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        for (int i = 0; i < 20000; ++i) ASSERT_EQ(owned.uniform(), unit(ref)) << seed;
        for (const auto& [lo, hi] : bounds) {
            for (int i = 0; i < 500; ++i) {
                ASSERT_EQ(owned.uniform(lo, hi),
                          std::uniform_real_distribution<double>(lo, hi)(ref))
                    << seed << " [" << lo << ", " << hi << ")";
            }
        }
    }
}

TEST(rng_reference, uniform_int_equals_uniform_int_distribution_at_edges) {
    constexpr std::int64_t min = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t max = std::numeric_limits<std::int64_t>::max();
    std::vector<std::pair<std::int64_t, std::int64_t>> ranges = {
        {0, 0}, {7, 7}, {-3, -3}, {min, min}, {max, max},
        {-1, 1}, {1, 4}, {0, 999},
        {min, max},                      // the full range: one raw draw
        {min, 0}, {min, -1}, {-1, max}, {0, max}, {min + 1, max},
        {-1000, -3}, {min, min + 5}, {max - 5, max}};
    // Widths (values in the range) 2^k and 2^k +- 1: from the bottom of the
    // int64 range, from 0 up, and from -1 down.
    for (int k = 1; k < 64; ++k) {
        const std::uint64_t pow2 = std::uint64_t{1} << k;
        for (const std::uint64_t width : {pow2 - 1, pow2, pow2 + 1}) {
            const std::uint64_t span = width - 1;
            ranges.emplace_back(min, static_cast<std::int64_t>((std::uint64_t{1} << 63) + span));
            if (span <= static_cast<std::uint64_t>(max)) {
                const auto hi = static_cast<std::int64_t>(span);
                ranges.emplace_back(0, hi);
                ranges.emplace_back(-hi - 1, -1);
            }
        }
    }
    for (const std::uint64_t seed : reference_seeds()) {
        rng owned(seed);
        std::mt19937_64 ref(seed);
        for (const auto& [lo, hi] : ranges) {
            for (int i = 0; i < 64; ++i) {
                ASSERT_EQ(owned.uniform_int(lo, hi),
                          std::uniform_int_distribution<std::int64_t>(lo, hi)(ref))
                    << "seed " << seed << " [" << lo << ", " << hi << "]";
            }
        }
    }
}

TEST(rng_reference, exponential_equals_exponential_distribution) {
    for (const std::uint64_t seed : reference_seeds()) {
        rng owned(seed);
        std::mt19937_64 ref(seed);
        for (double mean = 1e-6; mean <= 1e3; mean *= 3.7) {
            for (int i = 0; i < 200; ++i) {
                ASSERT_EQ(owned.exponential(mean),
                          std::exponential_distribution<double>(1.0 / mean)(ref))
                    << "seed " << seed << " mean " << mean;
            }
        }
    }
}

TEST(rng_reference, normal_equals_fresh_normal_distribution) {
    const std::pair<double, double> params[] = {
        {0.0, 1.0}, {0.0, 0.015}, {1.0, 2.0}, {-5.0, 1e-3}, {1e6, 10.0}, {0.3, 0.0}};
    for (const std::uint64_t seed : reference_seeds()) {
        rng owned(seed);
        std::mt19937_64 ref(seed);
        for (const auto& [mean, stddev] : params) {
            for (int i = 0; i < 2000; ++i) {
                ASSERT_EQ(owned.normal(mean, stddev),
                          std::normal_distribution<double>(mean, stddev)(ref))
                    << "seed " << seed << " N(" << mean << ", " << stddev << ")";
            }
        }
    }
}

TEST(rng_reference, pareto_and_chance_equal_their_std_uniform_forms) {
    for (const std::uint64_t seed : reference_seeds()) {
        rng owned(seed);
        std::mt19937_64 ref(seed);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        for (const double alpha : {1.05, 1.5, 1.9, 2.0, 3.0}) {
            for (const double xmin : {1e-3, 0.2, 1.0}) {
                for (int i = 0; i < 200; ++i) {
                    const double expect = xmin / std::pow(1.0 - unit(ref), 1.0 / alpha);
                    ASSERT_EQ(owned.pareto(alpha, xmin), expect) << seed;
                }
            }
        }
        for (const double p : {0.0, 1e-4, 0.3, 0.7, 1.0}) {
            for (int i = 0; i < 500; ++i) ASSERT_EQ(owned.chance(p), unit(ref) < p) << seed;
        }
    }
}

TEST(rng_reference, interleaved_draws_stay_in_step) {
    // The consumers' shape: every distribution drawn from one stream in a
    // data-dependent order, so a draw that consumed one engine word too many
    // or too few shows in every later value.
    for (const std::uint64_t seed : reference_seeds()) {
        rng owned(seed);
        std::mt19937_64 ref(seed);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        rng order(seed ^ 0x5bd1e995);
        for (int i = 0; i < 20000; ++i) {
            switch (order.uniform_int(0, 4)) {
                case 0: ASSERT_EQ(owned.uniform(), unit(ref)); break;
                case 1:
                    ASSERT_EQ(owned.uniform_int(-1, 1),
                              std::uniform_int_distribution<std::int64_t>(-1, 1)(ref));
                    break;
                case 2:
                    ASSERT_EQ(owned.exponential(0.0012),
                              std::exponential_distribution<double>(1.0 / 0.0012)(ref));
                    break;
                case 3:
                    ASSERT_EQ(owned.normal(0.0, 0.015),
                              std::normal_distribution<double>(0.0, 0.015)(ref));
                    break;
                default: ASSERT_EQ(owned.chance(0.05), unit(ref) < 0.05); break;
            }
        }
    }
}
#endif  // TCPPRED_RNG_REFERENCE

}  // namespace
}  // namespace tcppred::sim
