// Prediction-error metrics of the paper: the relative error E (Eq. 4) and
// the Root Mean Square Relative Error over a series (Eq. 5).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>

#include "core/contracts.hpp"
#include "core/units.hpp"

namespace tcppred::core {

/// Smallest denominator relative_error will divide by, in bits per second.
/// The quantities E compares are transfer throughputs — even the paper's
/// DSL paths sit at hundreds of kbit/s — so anything below 1 kbit/s is a
/// transfer that effectively never ran. Clamping the denominator here keeps
/// a true-zero (or epsilon) measurement from turning one epoch into an
/// E ≈ R/1e-12 ≈ 1e18 outlier that single-handedly dominates a RMSRE
/// (Eq. 5 squares E). The old floor of 1e-12 was sized for unit-scale
/// values and was meaningless at bps scale; see metrics_test for the pinned
/// edge-case behaviour.
inline constexpr double k_min_error_denominator_bps = 1e3;

/// Relative prediction error (Eq. 4):
///   E = (R̂ − R) / min(R̂, R).
/// Symmetric in over/under-estimation: predicting w·R or R/w both yield
/// |E| = w − 1. Both arguments must be non-negative; the denominator is
/// clamped to k_min_error_denominator_bps so degenerate zero-throughput
/// inputs yield large-but-bounded errors (R̂/1kbps) instead of ~1e18.
[[nodiscard]] inline double relative_error(double predicted, double actual) {
    TCPPRED_EXPECTS(predicted >= 0.0);
    TCPPRED_EXPECTS(actual >= 0.0);
    const double denom =
        std::max(std::min(predicted, actual), k_min_error_denominator_bps);
    return (predicted - actual) / denom;
}

/// Relative prediction error of a throughput forecast (typed overload).
[[nodiscard]] inline double relative_error(bits_per_second predicted,
                                           bits_per_second actual) {
    return relative_error(predicted.value(), actual.value());
}

/// Root Mean Square Relative Error (Eq. 5) as a running fold: Σe² and a
/// count, one error at a time. rmsre() below is this fold over a span, so
/// folding the same errors in the same order gives the same bits without
/// keeping them.
struct rmsre_fold {
    double sum_sq{0.0};
    std::size_t n{0};

    void add(double e) noexcept {
        sum_sq += e * e;
        ++n;
    }
    /// An empty series has NO error, not zero error: zero would score an
    /// all-faulty or all-warmup trace as a perfect forecast. Returns NaN so
    /// the absence of evidence propagates visibly; consumers that tabulate
    /// RMSREs render it as "n/a" (evaluation_engine drops unscored traces
    /// from its per-trace output and counts them instead).
    [[nodiscard]] double value() const noexcept {
        if (n == 0) return std::numeric_limits<double>::quiet_NaN();
        return std::sqrt(sum_sq / static_cast<double>(n));
    }
};

/// Root Mean Square Relative Error (Eq. 5) over a series of relative errors.
[[nodiscard]] inline double rmsre(std::span<const double> errors) noexcept {
    rmsre_fold f;
    for (const double e : errors) f.add(e);
    return f.value();
}

}  // namespace tcppred::core
