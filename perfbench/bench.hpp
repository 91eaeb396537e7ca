// Shared pieces of the perfbench harness: options, the result record it
// prints, an in-memory span recorder, order statistics, process memory
// probes and the seeded synthetic record generator the analysis and serve
// layer probes replay. See README.md for the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "testbed/dataset.hpp"
#include "testbed/path_catalog.hpp"

namespace perfbench {

struct options {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
    /// The tcppred_serve executable (the serve layer probe).
    std::filesystem::path serve_bin;
    /// Working directory for stores, sockets and span files.
    std::filesystem::path work_dir{"."};
    /// Test hook: name of a correctness check whose input is deliberately
    /// corrupted before the check runs (run.py --corrupt; test_perfbench.py).
    std::string corrupt;
};

/// What one run prints: correctness, operation counts and named metrics.
struct run_result {
    bool correct{true};
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    struct metric {
        double value{0.0};
        std::string unit;
    };
    std::map<std::string, metric> metrics;

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = metric{value, unit};
    }
    /// Record a correctness check; a failed check fails the run.
    void check(bool ok, const std::string& what);
};

/// Whether `name` is the check the test hook corrupts this run.
[[nodiscard]] bool corrupting(const options& opt, const std::string& name);

// ---- time ---------------------------------------------------------------

using steady = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               steady::now().time_since_epoch())
        .count();
}

// ---- spans (the traced run) ---------------------------------------------

/// One recorded span: a named interval around a call into a layer, with the
/// span that was open on the same thread when it began (0 = none).
struct span_rec {
    const char* name{""};
    std::uint64_t id{0};
    std::uint64_t parent{0};
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
};

/// Spans are kept in memory per thread while recording is on and written
/// out once, when the run ends. With recording off a scope costs one
/// relaxed load.
void set_spans_enabled(bool on);
[[nodiscard]] bool spans_enabled();

class span {
public:
    explicit span(const char* name);
    ~span();
    span(const span&) = delete;
    span& operator=(const span&) = delete;

private:
    span_rec rec_{};
    bool live_{false};
};

/// Every span recorded so far, across threads (clears the buffers).
[[nodiscard]] std::vector<span_rec> drain_spans();

/// Per-name totals: call count, summed duration and self time (duration
/// minus the part covered by child spans).
struct span_total {
    std::uint64_t count{0};
    double total_ns{0.0};
    double self_ns{0.0};
};
[[nodiscard]] std::map<std::string, span_total> summarize_spans(
    const std::vector<span_rec>& spans);

void write_spans_jsonl(const std::vector<span_rec>& spans,
                       const std::filesystem::path& file);

// ---- statistics ---------------------------------------------------------

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
    return percentile(std::move(v), 0.5);
}
/// The median, over consecutive windows of `window` samples (in time
/// order), of each window's q-percentile: a burst of interference on the
/// shared machine moves a few windows, not the result.
[[nodiscard]] double windowed_percentile(const std::vector<double>& samples,
                                         std::size_t window, double q);
/// The median, over windows of `window_ns` between `start_ns` and
/// `end_ns`, of events completed per second within each window; `done_ns`
/// holds completion times.
[[nodiscard]] double windowed_rate(const std::vector<std::int64_t>& done_ns,
                                   std::int64_t start_ns, std::int64_t end_ns,
                                   std::int64_t window_ns);

// ---- memory -------------------------------------------------------------

/// Peak resident set (VmHWM) of `pid` (0 = this process), in bytes.
[[nodiscard]] double rss_peak_bytes(int pid = 0);
/// Current resident set (VmRSS) of `pid` (0 = this process), in bytes.
[[nodiscard]] double rss_now_bytes(int pid = 0);

// ---- inputs -------------------------------------------------------------

/// The campaign-1 path catalogue at the paper's seed: every workload draws
/// its paths from it, so a run seed changes load and measurement draws but
/// never the path population.
[[nodiscard]] const std::vector<tcppred::testbed::path_profile>& catalogue();

/// One synthetic (path, trace) series of `epochs` records whose conditions
/// follow the testbed's own load_trajectory for the profile (regimes, level
/// shifts, outliers): throughput, available bandwidth, loss and RTT are
/// drawn around what the load state implies.
[[nodiscard]] std::vector<tcppred::testbed::epoch_record> synthetic_trace(
    const tcppred::testbed::path_profile& profile, int trace, int epochs,
    std::uint64_t seed);

/// Every catalogue path x `traces` paper-length (150-epoch) traces, in
/// linear (path, trace, epoch) order.
[[nodiscard]] tcppred::testbed::dataset synthetic_dataset(int traces,
                                                          std::uint64_t seed);

inline constexpr int k_trace_epochs = 150;  ///< the paper's trace length

/// Twelve catalogue paths covering the four classes in ron_like_catalog's
/// bands: 3 DSL, 5 US-university, 3 transatlantic and the transpacific one.
/// The campaign canary and the epoch-phase probe sample them.
inline constexpr int k_sample_paths[] = {0, 2, 4, 7, 12, 17, 22, 27, 29, 31, 33, 34};

/// The predictor mix the analysis and serve probes score: formula-based,
/// a moving average, Holt-Winters with the level-shift/outlier wrapper
/// (whose scan is quadratic in history) and the NWS selector.
[[nodiscard]] const std::vector<std::string>& spec_mix();
/// Spec name usable inside a metric name ("fb:pftk" -> "fb_pftk").
[[nodiscard]] std::string metric_safe(const std::string& spec);

/// FNV-1a over the bit pattern of every field of a record.
[[nodiscard]] std::uint64_t record_digest(const tcppred::testbed::epoch_record& r,
                                          std::uint64_t h = 1469598103934665603ULL);

/// Hardware threads available (floor 1).
[[nodiscard]] unsigned hw_threads();

// ---- workloads ----------------------------------------------------------

void run_campaign_workload(const options& opt, bool fluid, run_result& out);

/// The per-layer table every traced run prints (layers.cpp).
void run_layer_suite(const options& opt, run_result& out);

/// Run `body` for `seconds` in alternating slices with spans off and on, and
/// report obs.trace_overhead_pct from the median throughput `body` returns
/// in each mode. Alternating keeps input drift over the run out of the
/// comparison.
template <class Body>
void trace_overhead(double seconds, run_result& out, Body body) {
    constexpr int k_slices = 6;
    std::vector<double> plain;
    std::vector<double> traced;
    for (int i = 0; i < k_slices; ++i) {
        const bool on = i % 2 == 1;
        set_spans_enabled(on);
        (on ? traced : plain).push_back(body(seconds / k_slices));
    }
    const double base = median(plain);
    out.set("obs.trace_overhead_pct", base > 0.0 ? (base - median(traced)) / base * 100.0 : 0.0,
            "%");
}

}  // namespace perfbench
