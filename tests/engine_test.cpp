// The streaming evaluation engine and its series-level scoring loop
// (analysis/evaluation.hpp): warmup/outlier/index semantics of
// evaluate_series, gap handling for fault-flagged epochs, and the
// determinism contract (byte-identical results for any jobs value), and
// the streamed evaluation (evaluate_stream) against the in-memory engine on
// every engine option.
#include "analysis/evaluation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ios>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hb_predictors.hpp"
#include "core/lso.hpp"
#include "core/predictor.hpp"
#include "core/units.hpp"
#include "sim/fault_injector.hpp"
#include "testbed/campaign.hpp"
#include "testbed/dataset.hpp"

namespace tcppred::analysis {
namespace {

using testbed::dataset;
using testbed::epoch_record;

core::history_predictor ma(std::size_t order) {
    return core::history_predictor(std::make_unique<core::moving_average>(order));
}

TEST(evaluate_series_fn, perfect_predictor_on_constant_series) {
    const std::vector<double> series(20, 5.0);
    const series_evaluation e = evaluate_series(series, ma(5));
    EXPECT_DOUBLE_EQ(e.rmsre, 0.0);
    EXPECT_EQ(e.forecasts(), 19u);  // warmup skips index 0
}

TEST(evaluate_series_fn, errors_align_with_indices) {
    // bps-scale values: relative_error clamps its denominator at
    // k_min_error_denominator_bps, so unit-scale toy numbers would hit the
    // floor instead of exercising the ratio.
    const std::vector<double> series{10e6, 20e6, 20e6};
    const series_evaluation e = evaluate_series(series, ma(1));
    ASSERT_EQ(e.errors.size(), 2u);
    EXPECT_EQ(e.indices[0], 1u);
    // Forecast 10M for actual 20M: E = (10M-20M)/10M = -1.
    EXPECT_DOUBLE_EQ(e.errors[0], -1.0);
    EXPECT_DOUBLE_EQ(e.errors[1], 0.0);
}

TEST(evaluate_series_fn, warmup_skips_initial_forecasts) {
    const std::vector<double> series{1.0, 1.0, 1.0, 1.0, 1.0};
    series_options opts;
    opts.warmup = 3;
    const series_evaluation e = evaluate_series(series, ma(1), opts);
    EXPECT_EQ(e.forecasts(), 2u);
}

TEST(evaluate_series_fn, excludes_outliers_when_requested) {
    std::vector<double> series(10, 10.0);
    series.push_back(100.0);  // outlier: a huge error for any predictor
    series.insert(series.end(), 5, 10.0);

    const series_evaluation with = evaluate_series(series, ma(5));

    series_options drop;
    drop.exclude_outliers = true;
    const series_evaluation without = evaluate_series(series, ma(5), drop);

    EXPECT_GT(with.rmsre, without.rmsre * 2.0);
}

TEST(evaluate_series_fn, lso_wrapper_beats_plain_on_shifted_series) {
    std::vector<double> series(15, 10.0);
    series.insert(series.end(), 15, 30.0);

    const series_evaluation plain = evaluate_series(series, ma(10));
    const core::history_predictor lso_proto(std::make_unique<core::lso_predictor>(
        std::make_unique<core::moving_average>(10)));
    const series_evaluation lso = evaluate_series(series, lso_proto);
    EXPECT_LT(lso.rmsre, plain.rmsre);
}

TEST(evaluate_series_fn, nan_samples_are_gaps_not_scores) {
    // A NaN mid-series is never scored and never pollutes the history.
    std::vector<double> series(6, 8.0);
    series[3] = std::numeric_limits<double>::quiet_NaN();
    const series_evaluation e = evaluate_series(series, ma(3));
    EXPECT_EQ(e.forecasts(), 4u);  // indices 1, 2, 4, 5
    EXPECT_DOUBLE_EQ(e.rmsre, 0.0);
    for (const std::size_t i : e.indices) EXPECT_NE(i, 3u);
}

TEST(downsample_fn, keeps_every_kth_sample) {
    const std::vector<double> s{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    EXPECT_EQ(downsample(s, 1), s);
    EXPECT_EQ(downsample(s, 3), (std::vector<double>{0, 3, 6, 9}));
    EXPECT_EQ(downsample(s, 15), (std::vector<double>{0}));
}

TEST(downsample_fn, rejects_factor_zero) {
    EXPECT_THROW(downsample({1.0}, 0), std::invalid_argument);
}

/// 4 paths x 2 traces x 10 epochs with varied-but-deterministic values.
dataset grid_dataset() {
    dataset data;
    for (int path = 0; path < 4; ++path) {
        testbed::path_profile p;
        p.id = path;
        p.name = "p";
        p.name += std::to_string(path);
        p.forward = {net::hop_config{core::bits_per_second{10e6}, core::seconds{0.02}, 64}};
        p.reverse = {net::hop_config{core::bits_per_second{100e6}, core::seconds{0.02}, 64}};
        data.paths.push_back(p);
        for (int trace = 0; trace < 2; ++trace) {
            for (int e = 0; e < 10; ++e) {
                epoch_record r;
                r.path_id = path;
                r.trace_id = trace;
                r.epoch_index = e;
                r.m.phat = path % 2 == 0 ? 0.004 * (1 + e % 3) : 0.0;
                r.m.that_s = 0.04 + 0.005 * path;
                r.m.avail_bw_bps = 4e6 + 1e6 * path;
                r.m.ptilde = r.m.phat * 2;
                r.m.ttilde_s = r.m.that_s + 0.01;
                r.m.r_large_bps = 2e6 + 3e5 * ((e + path) % 4) + 1e5 * trace;
                r.m.r_small_bps = 1e6 + 1e5 * (e % 2);
                data.records.push_back(r);
            }
        }
    }
    return data;
}

TEST(engine_faults, faulty_epochs_become_gaps_and_fallbacks) {
    dataset data = grid_dataset();
    // Path 0, trace 0, epoch 4: both the a-priori view and the transfer
    // measurement fault out.
    for (auto& r : data.records) {
        if (r.path_id == 0 && r.trace_id == 0 && r.epoch_index == 4) {
            r.m.fault_flags = testbed::fault_pathload_failed |
                              testbed::fault_transfer_aborted;
        }
    }
    const auto results =
        evaluation_engine{}.run(data,
                                std::vector<std::string>{"fb:pftk", "10-MA-LSO"});

    for (const auto& result : results) {
        for (const auto& t : result.traces) {
            for (const auto& e : t.epochs) {
                // The faulted epoch is never scored (its actual is missing).
                EXPECT_FALSE(e.rec->path_id == 0 && e.rec->trace_id == 0 &&
                             e.rec->epoch_index == 4)
                    << result.name;
            }
        }
    }

    // The faulted epoch's stale fallback prediction existed but was never
    // scored (no actual), so no scored epoch carries staleness.
    for (const auto& e : results[0].all_epochs()) EXPECT_EQ(e.staleness, 0u);

    const auto cond = rmsre_conditioned(results[0]);
    EXPECT_EQ(cond.n_faulty, 0u);
    EXPECT_GT(cond.n_clean, 0u);
}

TEST(engine_faults, apriori_fault_alone_scores_with_stale_inputs) {
    dataset data = grid_dataset();
    // Only the a-priori probing faults; the transfer itself succeeds, so FB
    // must score the epoch from its last good measurement (staleness 1).
    for (auto& r : data.records) {
        if (r.path_id == 1 && r.trace_id == 0 && r.epoch_index == 5) {
            r.m.fault_flags = testbed::fault_ping_degraded;
        }
    }
    const auto fb = evaluation_engine{}.run_one(data, "fb:pftk");
    bool found = false;
    for (const auto& e : fb.all_epochs()) {
        if (e.rec->path_id == 1 && e.rec->trace_id == 0 && e.rec->epoch_index == 5) {
            found = true;
            EXPECT_EQ(e.staleness, 1u);
        } else {
            EXPECT_EQ(e.staleness, 0u);
        }
    }
    EXPECT_TRUE(found);
    const auto cond = rmsre_conditioned(fb);
    EXPECT_EQ(cond.n_faulty, 1u);
    EXPECT_EQ(cond.n_stale, 1u);
}

TEST(engine_options_pair, smoothing_under_event_loss_averages_event_loss_rates) {
    // Constant loss-event rate and RTT per trace, while the raw probe loss
    // rate varies: a moving average of the inputs the predictor is shown
    // changes nothing, so smoothing must leave every FB forecast as it is.
    dataset data = grid_dataset();
    for (auto& r : data.records) r.m.phat_events = r.m.phat > 0.0 ? 0.001953125 : 0.0;
    const auto plain = evaluation_engine{{.use_event_loss = true}}.run_one(data, "fb:pftk");
    const auto smoothed =
        evaluation_engine{{.use_event_loss = true, .smooth_inputs = true, .smooth_window = 3}}
            .run_one(data, "fb:pftk");
    const auto want = plain.all_epochs();
    const auto got = smoothed.all_epochs();
    ASSERT_EQ(got.size(), want.size());
    ASSERT_FALSE(got.empty());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i].predicted_bps, want[i].predicted_bps,
                    1e-9 * want[i].predicted_bps)
            << "path " << got[i].rec->path_id << " epoch " << got[i].rec->epoch_index;
    }
}

TEST(engine_determinism, byte_identical_for_any_jobs_value) {
    const auto data = grid_dataset();
    const std::vector<std::string> specs{"fb:pftk", "10-MA-LSO", "0.8-HW",
                                         "hybrid:0.8-HW-LSO", "NWS"};
    engine_options serial;
    serial.jobs = 1;
    const auto base = evaluation_engine{serial}.run(data, specs);

    for (const int jobs : {2, 4}) {
        engine_options par;
        par.jobs = jobs;
        const auto got = evaluation_engine{par}.run(data, specs);
        ASSERT_EQ(got.size(), base.size());
        for (std::size_t pj = 0; pj < base.size(); ++pj) {
            EXPECT_EQ(got[pj].name, base[pj].name);
            ASSERT_EQ(got[pj].traces.size(), base[pj].traces.size()) << jobs;
            for (std::size_t ti = 0; ti < base[pj].traces.size(); ++ti) {
                const auto& a = base[pj].traces[ti];
                const auto& b = got[pj].traces[ti];
                EXPECT_EQ(a.path_id, b.path_id);
                EXPECT_EQ(a.trace_id, b.trace_id);
                // Bitwise, not approximate: the determinism contract.
                EXPECT_EQ(a.rmsre, b.rmsre);
                ASSERT_EQ(a.epochs.size(), b.epochs.size());
                for (std::size_t ei = 0; ei < a.epochs.size(); ++ei) {
                    EXPECT_EQ(a.epochs[ei].predicted_bps, b.epochs[ei].predicted_bps);
                    EXPECT_EQ(a.epochs[ei].error, b.epochs[ei].error);
                }
            }
        }
    }
}

TEST(engine_contract, bad_spec_throws_before_touching_data) {
    const auto data = grid_dataset();
    EXPECT_THROW(evaluation_engine{}.run(
                     data, std::vector<std::string>{"10-MA", "10-XX"}),
                 core::predictor_spec_error);
    engine_options bad;
    bad.downsample = 0;
    EXPECT_THROW(evaluation_engine{bad}.run_one(data, "10-MA"),
                 std::invalid_argument);
}

TEST(engine_contract, short_traces_are_omitted_for_history_predictors) {
    dataset data;
    testbed::path_profile p;
    p.id = 0;
    p.name = "p0";
    data.paths.push_back(p);
    for (int e = 0; e < 2; ++e) {  // 2 epochs < history min_trace_length 3
        epoch_record r;
        r.path_id = 0;
        r.trace_id = 0;
        r.epoch_index = e;
        r.m.phat = 0.0;
        r.m.that_s = 0.05;
        r.m.avail_bw_bps = 5e6;
        r.m.r_large_bps = 2e6;
        r.m.r_small_bps = 1e6;
        data.records.push_back(r);
    }
    const auto results =
        evaluation_engine{}.run(data, std::vector<std::string>{"10-MA", "fb:pftk"});
    EXPECT_TRUE(results[0].traces.empty());   // HB: trace too short
    EXPECT_EQ(results[1].traces.size(), 1u);  // FB: scored from epoch 0
}

// ---- evaluate_stream == evaluation_engine on every engine option --------

/// A small faulted campaign (every fault class), with traces long enough
/// that a 10-epoch smoothing window differs from a 3-epoch one.
const dataset& faulted_campaign() {
    static const dataset data = [] {
        testbed::campaign_config cfg;
        cfg.paths = 3;
        cfg.traces_per_path = 2;
        cfg.epochs_per_trace = 14;
        cfg.jobs = 1;
        cfg.epoch.warmup = core::seconds{0.5};
        cfg.epoch.prior_ping.count = 60;
        cfg.epoch.transfer = core::seconds{1.5};
        cfg.faults =
            sim::fault_profile::parse("pathload=0.15,ping-truncate=0.1,abort=0.15");
        return testbed::run_campaign(cfg);
    }();
    return data;
}

/// Bitwise equality, with NaN equal to NaN (an empty conditioned class).
void expect_same(double got, double want) {
    if (std::isnan(got) && std::isnan(want)) return;
    EXPECT_EQ(got, want) << std::hexfloat << got << " vs " << want;
}

const std::vector<std::string> k_axis_specs{"fb:pftk", "10-MA-LSO", "0.8-HW-LSO"};

std::vector<stream_predictor_summary> stream_in_trace_order(const dataset& data,
                                                            const engine_options& opts) {
    std::vector<const epoch_record*> ordered;
    for (const auto& [key, recs] : data.traces()) {
        ordered.insert(ordered.end(), recs.begin(), recs.end());
    }
    std::size_t pos = 0;
    stream_eval_options so;
    so.engine = opts;
    so.keep_epoch_errors = {0, 1, 2};
    return evaluate_stream(
        [&](epoch_record& out) {
            if (pos >= ordered.size()) return false;
            out = *ordered[pos++];
            return true;
        },
        k_axis_specs, so);
}

/// One engine option set alone, with hexfloat goldens pinned from the
/// engine before its two callers shared one per-trace pipeline.
struct axis_case {
    const char* axis;
    engine_options opts;
    double fb_clean;        ///< fb:pftk RMSRE over clean epochs
    double fb_faulty;       ///< fb:pftk RMSRE over fault-flagged epochs
    double hw_clean;        ///< 0.8-HW-LSO RMSRE over clean epochs
    std::size_t fb_epochs;  ///< scored fb:pftk epochs
};

TEST(engine_axes, stream_matches_engine_bitwise_on_every_option) {
    const dataset& data = faulted_campaign();
    const std::vector<axis_case> cases{
        {"default", {}, 0x1.5c906e65382bap+0, 0x1.c225ba1a2c61ep-1,
         0x1.e21c7ae9425f3p-1, 75},
        {"use_during_flow", {.use_during_flow = true},
         0x1.87056d7b79c3p+3, 0x1.df74de0720c2cp+2, 0x1.e21c7ae9425f3p-1, 75},
        {"use_event_loss", {.use_event_loss = true},
         0x1.2001013214c01p+0, 0x1.c225ba1a2c61ep-1, 0x1.e21c7ae9425f3p-1, 75},
        {"small_window", {.small_window = true},
         0x1.772803136ebcap+1, 0x1.2a09f7743203ep-1, 0x1.df4a826dc3878p+0, 75},
        {"warmup=3", {.warmup = 3},
         0x1.76f5873147543p+0, 0x1.a0f363ca8b386p-1, 0x1.ff6cd8df6b7f3p-1, 60},
        {"exclude_outliers", {.exclude_outliers = true},
         0x1.605e755686d36p+0, 0x1.e25ab55cadea3p-1, 0x1.787046bd72908p-1, 61},
        {"smooth_inputs w=3", {.smooth_inputs = true, .smooth_window = 3},
         0x1.015cd81ca1baap+0, 0x1.7b83f5e739d2bp+0, 0x1.e21c7ae9425f3p-1, 75},
        {"smooth_inputs w=10", {.smooth_inputs = true, .smooth_window = 10},
         0x1.d0d73577b628dp-1, 0x1.d0d6ef26569f3p-1, 0x1.e21c7ae9425f3p-1, 75},
        {"downsample=2", {.downsample = 2},
         0x1.790ebb7f6a85dp+0, 0x1.ece271aece245p-1, 0x1.8a3ea7dffe148p-1, 35},
    };

    for (const axis_case& c : cases) {
        SCOPED_TRACE(c.axis);
        const auto streamed = stream_in_trace_order(data, c.opts);
        ASSERT_EQ(streamed.size(), k_axis_specs.size());

        for (const int jobs : {1, 4}) {
            SCOPED_TRACE(jobs);
            engine_options opts = c.opts;
            opts.jobs = jobs;
            const auto results = evaluation_engine{opts}.run(data, k_axis_specs);
            ASSERT_EQ(results.size(), streamed.size());
            for (std::size_t i = 0; i < results.size(); ++i) {
                const auto& s = streamed[i];
                const auto& r = results[i];
                EXPECT_EQ(s.name, r.name);
                EXPECT_EQ(s.traces_unscored, r.traces_unscored);
                ASSERT_EQ(s.traces.size(), r.traces.size());
                for (std::size_t t = 0; t < r.traces.size(); ++t) {
                    EXPECT_EQ(s.traces[t].path_id, r.traces[t].path_id);
                    EXPECT_EQ(s.traces[t].trace_id, r.traces[t].trace_id);
                    expect_same(s.traces[t].rmsre, r.traces[t].rmsre);
                    EXPECT_EQ(s.traces[t].epochs, r.traces[t].forecasts());
                }
                const conditioned_rmsre cond = rmsre_conditioned(r);
                expect_same(s.conditioned.rmsre_clean, cond.rmsre_clean);
                EXPECT_EQ(s.conditioned.n_clean, cond.n_clean);
                expect_same(s.conditioned.rmsre_faulty, cond.rmsre_faulty);
                EXPECT_EQ(s.conditioned.n_faulty, cond.n_faulty);
                expect_same(s.conditioned.rmsre_stale, cond.rmsre_stale);
                EXPECT_EQ(s.conditioned.n_stale, cond.n_stale);
                const auto errors = r.epoch_errors();
                ASSERT_EQ(s.epoch_errors.size(), errors.size());
                for (std::size_t e = 0; e < errors.size(); ++e) {
                    expect_same(s.epoch_errors[e], errors[e]);
                }
            }
        }

        ASSERT_FALSE(streamed[0].traces.empty());
        expect_same(streamed[0].conditioned.rmsre_clean, c.fb_clean);
        expect_same(streamed[0].conditioned.rmsre_faulty, c.fb_faulty);
        expect_same(streamed[2].conditioned.rmsre_clean, c.hw_clean);
        EXPECT_EQ(streamed[0].epoch_errors.size(), c.fb_epochs);
    }
}

TEST(stream_contract, bad_keep_epoch_errors_index_throws_before_pulling) {
    bool pulled = false;
    stream_eval_options so;
    so.keep_epoch_errors = {2};
    EXPECT_THROW(evaluate_stream(
                     [&](epoch_record&) {
                         pulled = true;
                         return false;
                     },
                     std::vector<std::string>{"10-MA", "fb:pftk"}, so),
                 std::invalid_argument);
    EXPECT_FALSE(pulled);
}

}  // namespace
}  // namespace tcppred::analysis
