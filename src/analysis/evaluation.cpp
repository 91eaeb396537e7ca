#include "analysis/evaluation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/stats.hpp"
#include "core/metrics.hpp"
#include "obs/counters.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace_writer.hpp"
#include "sim/thread_pool.hpp"

namespace tcppred::analysis {

namespace {

/// The (loss, RTT) model inputs a record offers under `opts`.
struct model_inputs {
    double loss{0.0};
    double rtt_s{0.0};
};

model_inputs raw_inputs(const testbed::epoch_measurement& m, const engine_options& opts) {
    if (opts.use_during_flow) return {m.ptilde, m.ttilde_s};
    return {opts.use_event_loss ? m.phat_events : m.phat, m.that_s};
}

/// A failed a-priori measurement (fault flags or NaN fields) never reaches
/// a formula; FB-style predictors substitute the trace's last good
/// measurement instead (their staleness fallback).
bool measurement_failed(const testbed::epoch_measurement& m, model_inputs raw) {
    return testbed::apriori_faulty(m.fault_flags) || std::isnan(raw.loss) ||
           std::isnan(raw.rtt_s) || std::isnan(m.avail_bw_bps);
}

/// The one record projection: `failed` comes from the raw inputs, `seen`
/// is what the predictor is shown (the raw inputs, or their moving average
/// under smooth_inputs).
record_view project(const testbed::epoch_record& rec, bool failed, model_inputs seen,
                    const engine_options& opts) {
    const auto& m = rec.m;
    record_view rv;
    if (failed) {
        rv.inputs = core::epoch_inputs::failed_measurement();
    } else if (seen.rtt_s <= 0.0) {
        // A zero RTT means the epoch never produced a prior view: the epoch
        // carries no measurement at all (and is skipped without aging any
        // fallback), rather than counting as a failure.
        rv.inputs = core::epoch_inputs::absent();
    } else {
        rv.inputs = core::epoch_inputs::valid(core::path_measurement{
            core::probability{seen.loss}, core::seconds{seen.rtt_s},
            core::bits_per_second{m.avail_bw_bps}});
    }

    const double actual = opts.small_window ? m.r_small_bps : m.r_large_bps;
    rv.actual_bps = testbed::actual_faulty(m.fault_flags)
                        ? std::numeric_limits<double>::quiet_NaN()
                        : actual;
    return rv;
}

const char* source_name(core::prediction_source s) {
    switch (s) {
        case core::prediction_source::history: return "history";
        case core::prediction_source::model_based: return "model_based";
        case core::prediction_source::avail_bw: return "avail_bw";
        case core::prediction_source::window_bound: return "window_bound";
        case core::prediction_source::blended: return "blended";
    }
    return "unknown";
}

/// One (path, trace) series prepared for the scoring walk: the walked
/// (downsampled) records, each epoch's a-priori measurement view, and the
/// masked actual throughputs (NaN = failed transfer measurement).
struct trace_view {
    std::vector<const testbed::epoch_record*> recs;
    std::vector<core::epoch_inputs> inputs;
    std::vector<double> actuals;
};

trace_view build_view(const std::vector<const testbed::epoch_record*>& recs,
                      const engine_options& opts) {
    trace_view v;
    for (std::size_t i = 0; i < recs.size(); i += opts.downsample) {
        v.recs.push_back(recs[i]);
    }
    v.inputs.reserve(v.recs.size());
    v.actuals.reserve(v.recs.size());

    // Per-trace (p, T) history for input smoothing, in walked-epoch order.
    std::vector<model_inputs> hist;
    for (const testbed::epoch_record* rec : v.recs) {
        const auto& m = rec->m;
        const model_inputs raw = raw_inputs(m, opts);
        const bool failed = measurement_failed(m, raw);
        model_inputs seen = raw;
        if (opts.smooth_inputs && !failed) {
            // One-step-ahead moving average over the previous epochs' good
            // measurements; the raw current measurement seeds the very
            // first epoch of a trace.
            if (!hist.empty()) {
                const std::size_t n = std::min(opts.smooth_window, hist.size());
                double ps = 0.0, ts = 0.0;
                for (std::size_t k = hist.size() - n; k < hist.size(); ++k) {
                    ps += hist[k].loss;
                    ts += hist[k].rtt_s;
                }
                seen = {ps / static_cast<double>(n), ts / static_cast<double>(n)};
            }
            hist.push_back(raw);
        }
        const record_view rv = project(*rec, failed, seen, opts);
        v.inputs.push_back(rv.inputs);
        v.actuals.push_back(rv.actual_bps);
    }
    return v;
}

/// The one scoring loop (see file comment of evaluation.hpp): per epoch,
/// predict, score if scorable, then reveal the outcome. An epoch is scored
/// unless it is within the warmup, the predictor produced no usable
/// forecast, the actual throughput is missing or non-positive (the transfer
/// never got going), or it was retrospectively excluded as an outlier.
void score_walk(const std::vector<core::epoch_inputs>& inputs,
                const std::vector<double>& actuals,
                const std::vector<const testbed::epoch_record*>* recs,
                core::predictor& pred, std::size_t warmup,
                const std::vector<bool>* excluded, std::vector<epoch_score>& out) {
    // Prediction-status catalogue (DESIGN.md §12): valid = usable on fresh
    // inputs, degraded = usable but from the staleness fallback, absent = no
    // usable forecast. All are functions of the data alone, so snapshots
    // match across job counts.
    static const obs::counter c_valid = obs::counter::get("engine.predictions_valid");
    static const obs::counter c_degraded =
        obs::counter::get("engine.predictions_degraded");
    static const obs::counter c_absent = obs::counter::get("engine.predictions_absent");
    static const obs::counter c_scored = obs::counter::get("engine.epochs_scored");
    static const obs::counter c_skipped = obs::counter::get("engine.epochs_skipped");

    for (std::size_t i = 0; i < actuals.size(); ++i) {
        const core::prediction p = pred.predict(inputs[i]);
        const double actual = actuals[i];
        if (!p.usable()) {
            c_absent.add();
        } else if (p.inputs_used.staleness > 0) {
            c_degraded.add();
        } else {
            c_valid.add();
        }
        const bool skip = i < warmup || !p.usable() || std::isnan(actual) ||
                          actual <= 0.0 || (excluded != nullptr && (*excluded)[i]);
        if (!skip) {
            const double error = core::relative_error(p.value_bps, actual);
            out.push_back(epoch_score{recs != nullptr ? (*recs)[i] : nullptr, i,
                                      p.value_bps, actual, error,
                                      p.inputs_used.source, p.inputs_used.staleness});
            c_scored.add();
            if (obs::trace_enabled() && recs != nullptr) {
                const testbed::epoch_record& rec = *(*recs)[i];
                obs::trace_emit(
                    obs::json_line{}
                        .str("ev", "predict")
                        .str("predictor", pred.name())
                        .num("path", static_cast<std::int64_t>(rec.path_id))
                        .num("trace", static_cast<std::int64_t>(rec.trace_id))
                        .num("epoch", static_cast<std::int64_t>(rec.epoch_index))
                        .num("predicted_bps", p.value_bps)
                        .num("actual_bps", actual)
                        .num("error", error)
                        .str("source", source_name(p.inputs_used.source))
                        .num("staleness",
                             static_cast<std::uint64_t>(p.inputs_used.staleness))
                        .num("fault_flags",
                             static_cast<std::uint64_t>(rec.m.fault_flags))
                        .done());
            }
        } else {
            c_skipped.add();
        }
        pred.observe_maybe(actual);
    }
}

void require_downsample(const engine_options& opts) {
    if (opts.downsample == 0) {
        throw std::invalid_argument("engine_options: downsample must be >= 1");
    }
}

/// Every spec's prototype, owned, and the pointer list score_trace takes.
struct prototype_set {
    std::vector<std::unique_ptr<core::predictor>> owned;
    std::vector<const core::predictor*> ptrs;
};

/// Throws core::predictor_spec_error on a bad spec before any data is
/// touched.
prototype_set make_prototypes(const std::vector<std::string>& specs,
                              const core::predictor_config& cfg) {
    prototype_set set;
    for (const auto& spec : specs) {
        set.owned.push_back(core::make_predictor(spec, cfg));
        set.ptrs.push_back(set.owned.back().get());
    }
    return set;
}

/// The one per-trace pipeline both callers run (the parallel in-memory
/// engine and the serial stream): build the view, run the optional LSO
/// exclusion scan, then clone, walk and score every prototype. A slot is
/// empty when the trace is too short for that predictor or nothing on it
/// was scorable.
std::vector<std::optional<trace_result>> score_trace(
    std::pair<int, int> key, const std::vector<const testbed::epoch_record*>& recs,
    const std::vector<const core::predictor*>& prototypes, const engine_options& opts) {
    const obs::stage_timer t_trace("engine.trace");
    const trace_view view = build_view(recs, opts);

    std::optional<std::vector<bool>> excluded;
    if (opts.exclude_outliers) {
        excluded = core::lso_scan(view.actuals, opts.predictor.lso).is_outlier;
    }

    std::vector<std::optional<trace_result>> out(prototypes.size());
    for (std::size_t pj = 0; pj < prototypes.size(); ++pj) {
        if (view.actuals.size() < prototypes[pj]->min_trace_length()) continue;
        const auto pred = prototypes[pj]->clone_empty();

        trace_result tr;
        tr.path_id = key.first;
        tr.trace_id = key.second;
        score_walk(view.inputs, view.actuals, &view.recs, *pred, opts.warmup,
                   excluded ? &*excluded : nullptr, tr.epochs);
        if (tr.epochs.empty()) continue;  // nothing scorable on this trace
        core::rmsre_fold fold;
        for (const auto& e : tr.epochs) fold.add(e.error);
        tr.rmsre = fold.value();
        out[pj] = std::move(tr);
    }
    return out;
}

/// Fold one scored epoch by its measurement status: faulty when its record
/// carries any fault flag, stale when scored from a fallback measurement.
void fold_epoch(conditioned_fold& fold, const epoch_score& e) {
    fold.add(e.error, e.rec != nullptr && e.rec->m.fault_flags != testbed::fault_none,
             e.staleness > 0);
}

}  // namespace

record_view view_of_record(const testbed::epoch_record& rec,
                           const engine_options& opts) {
    const model_inputs raw = raw_inputs(rec.m, opts);
    return project(rec, measurement_failed(rec.m, raw), raw, opts);
}

void conditioned_fold::add(double error, bool is_faulty, bool is_stale) noexcept {
    all.add(error);
    (is_faulty ? faulty : clean).add(error);
    if (is_stale) stale.add(error);
}

conditioned_rmsre conditioned_fold::result() const noexcept {
    return conditioned_rmsre{clean.value(), clean.n, faulty.value(),
                             faulty.n,      stale.value(), stale.n};
}

std::vector<double> predictor_result::trace_rmsres() const {
    std::vector<double> out;
    out.reserve(traces.size());
    for (const auto& t : traces) out.push_back(t.rmsre);
    return out;
}

std::vector<double> predictor_result::epoch_errors() const {
    std::vector<double> out;
    for (const auto& t : traces) {
        for (const auto& e : t.epochs) out.push_back(e.error);
    }
    return out;
}

std::vector<epoch_score> predictor_result::all_epochs() const {
    std::vector<epoch_score> out;
    for (const auto& t : traces) out.insert(out.end(), t.epochs.begin(), t.epochs.end());
    return out;
}

std::vector<predictor_result> evaluation_engine::run(
    const testbed::dataset& data, const std::vector<std::string>& specs) const {
    return run(data, make_prototypes(specs, opts_.predictor).ptrs);
}

std::vector<predictor_result> evaluation_engine::run(
    const testbed::dataset& data,
    const std::vector<const core::predictor*>& prototypes) const {
    require_downsample(opts_);

    const auto traces_map = data.traces();
    std::vector<std::pair<std::pair<int, int>,
                          const std::vector<const testbed::epoch_record*>*>>
        traces;
    traces.reserve(traces_map.size());
    for (const auto& [key, recs] : traces_map) traces.emplace_back(key, &recs);

    // Pre-sized result slots indexed by trace keep the output independent
    // of worker completion order (determinism contract).
    std::vector<std::vector<std::optional<trace_result>>> slots(traces.size());
    const unsigned jobs =
        opts_.jobs > 0 ? static_cast<unsigned>(opts_.jobs) : sim::jobs_from_env();
    sim::parallel_for(traces.size(), jobs, [&](std::size_t ti) {
        slots[ti] = score_trace(traces[ti].first, *traces[ti].second, prototypes, opts_);
    });

    static const obs::counter c_traces_scored = obs::counter::get("engine.traces_scored");
    static const obs::counter c_traces_unscored =
        obs::counter::get("engine.traces_unscored");
    std::vector<predictor_result> out(prototypes.size());
    for (std::size_t pj = 0; pj < prototypes.size(); ++pj) {
        out[pj].name = prototypes[pj]->name();
        for (auto& slot : slots) {
            if (slot[pj]) out[pj].traces.push_back(std::move(*slot[pj]));
        }
        out[pj].traces_unscored = traces.size() - out[pj].traces.size();
        c_traces_scored.add(out[pj].traces.size());
        c_traces_unscored.add(out[pj].traces_unscored);
    }
    return out;
}

predictor_result evaluation_engine::run_one(const testbed::dataset& data,
                                            const std::string& spec) const {
    return run(data, std::vector<std::string>{spec}).front();
}

series_evaluation evaluate_series(const std::vector<double>& series,
                                  const core::predictor& prototype,
                                  series_options opts) {
    const std::vector<core::epoch_inputs> inputs(series.size(),
                                                 core::epoch_inputs::absent());
    std::optional<std::vector<bool>> excluded;
    if (opts.exclude_outliers) {
        excluded = core::lso_scan(series, opts.lso).is_outlier;
    }

    const auto pred = prototype.clone_empty();
    std::vector<epoch_score> epochs;
    score_walk(inputs, series, nullptr, *pred, opts.warmup,
               excluded ? &*excluded : nullptr, epochs);

    series_evaluation out;
    out.errors.reserve(epochs.size());
    out.indices.reserve(epochs.size());
    for (const auto& e : epochs) {
        out.errors.push_back(e.error);
        out.indices.push_back(e.index);
    }
    out.rmsre = core::rmsre(out.errors);
    return out;
}

std::vector<double> downsample(const std::vector<double>& series, std::size_t factor) {
    if (factor == 0) throw std::invalid_argument("downsample: factor must be >= 1");
    std::vector<double> out;
    out.reserve(series.size() / factor + 1);
    for (std::size_t i = 0; i < series.size(); i += factor) out.push_back(series[i]);
    return out;
}

conditioned_rmsre rmsre_conditioned(const predictor_result& result) {
    conditioned_fold fold;
    for (const auto& t : result.traces) {
        for (const auto& e : t.epochs) fold_epoch(fold, e);
    }
    return fold.result();
}

std::vector<double> stream_predictor_summary::trace_rmsres() const {
    std::vector<double> out;
    out.reserve(traces.size());
    for (const auto& t : traces) out.push_back(t.rmsre);
    return out;
}

std::vector<stream_predictor_summary> evaluate_stream(
    const record_source& source, const std::vector<std::string>& specs,
    const stream_eval_options& opts) {
    const engine_options& eopts = opts.engine;
    require_downsample(eopts);
    const prototype_set prototypes = make_prototypes(specs, eopts.predictor);

    std::vector<bool> keep(specs.size(), false);
    for (const std::size_t i : opts.keep_epoch_errors) {
        if (i >= specs.size()) {
            throw std::invalid_argument(
                "evaluate_stream: keep_epoch_errors index " + std::to_string(i) +
                " is out of range for " + std::to_string(specs.size()) + " specs");
        }
        keep[i] = true;
    }

    std::vector<stream_predictor_summary> out(specs.size());
    for (std::size_t pj = 0; pj < specs.size(); ++pj) {
        out[pj].name = prototypes.ptrs[pj]->name();
    }
    // Folded in the order rmsre_conditioned meets the errors (traces, then
    // epochs), so the result is bitwise the in-memory one.
    std::vector<conditioned_fold> cond(specs.size());

    static const obs::counter c_traces_scored = obs::counter::get("engine.traces_scored");
    static const obs::counter c_traces_unscored =
        obs::counter::get("engine.traces_unscored");

    std::size_t n_traces_seen = 0;
    std::vector<testbed::epoch_record> trace_recs;  // ONE trace buffered at a time
    int cur_path = 0;
    int cur_trace = 0;

    const auto flush_trace = [&] {
        if (trace_recs.empty()) return;
        ++n_traces_seen;
        std::vector<const testbed::epoch_record*> recs;
        recs.reserve(trace_recs.size());
        for (const auto& r : trace_recs) recs.push_back(&r);
        const auto scored =
            score_trace({cur_path, cur_trace}, recs, prototypes.ptrs, eopts);
        for (std::size_t pj = 0; pj < scored.size(); ++pj) {
            if (!scored[pj]) continue;
            const trace_result& tr = *scored[pj];
            out[pj].traces.push_back(
                stream_trace_rmsre{tr.path_id, tr.trace_id, tr.rmsre, tr.forecasts()});
            for (const auto& e : tr.epochs) {
                fold_epoch(cond[pj], e);
                if (keep[pj]) out[pj].epoch_errors.push_back(e.error);
            }
        }
        trace_recs.clear();
    };

    testbed::epoch_record rec;
    while (source(rec)) {
        if (!trace_recs.empty() &&
            (rec.path_id != cur_path || rec.trace_id != cur_trace)) {
            flush_trace();
        }
        cur_path = rec.path_id;
        cur_trace = rec.trace_id;
        trace_recs.push_back(std::move(rec));
        rec = testbed::epoch_record{};
    }
    flush_trace();

    for (std::size_t pj = 0; pj < specs.size(); ++pj) {
        out[pj].traces_unscored = n_traces_seen - out[pj].traces.size();
        out[pj].conditioned = cond[pj].result();
        c_traces_scored.add(out[pj].traces.size());
        c_traces_unscored.add(out[pj].traces_unscored);
    }
    return out;
}

std::vector<path_error_summary> error_per_path(const predictor_result& result) {
    std::map<int, std::vector<double>> grouped;
    for (const auto& t : result.traces) {
        for (const auto& e : t.epochs) grouped[t.path_id].push_back(e.error);
    }
    std::vector<path_error_summary> out;
    out.reserve(grouped.size());
    for (const auto& [path, errors] : grouped) {
        out.push_back(path_error_summary{path, quantile(errors, 0.10),
                                         quantile(errors, 0.50),
                                         quantile(errors, 0.90), errors.size()});
    }
    return out;
}

std::vector<cov_rmsre_point> cov_vs_rmsre(const testbed::dataset& data,
                                          const std::string& spec,
                                          core::predictor_config cfg) {
    const auto prototype = core::make_predictor(spec, cfg);

    std::vector<cov_rmsre_point> out;
    for (const auto& [key, recs] : data.traces()) {
        std::vector<double> series;
        series.reserve(recs.size());
        for (const testbed::epoch_record* r : recs) {
            series.push_back(view_of_record(*r).actual_bps);
        }
        if (series.size() < 3) continue;

        // The CoV side has no gap concept: compute it over the usable
        // samples only (identical to the full series when nothing faulted).
        std::vector<double> usable;
        usable.reserve(series.size());
        for (const double v : series) {
            if (!std::isnan(v)) usable.push_back(v);
        }
        if (usable.size() < 3) continue;

        series_options so;
        so.exclude_outliers = true;
        so.lso = cfg.lso;
        const series_evaluation eval = evaluate_series(series, *prototype, so);
        // A trace where nothing was forecastable has no RMSRE (NaN since the
        // empty-series fix) — it used to land here as a bogus 0.0 point.
        if (eval.forecasts() == 0) continue;
        out.push_back(cov_rmsre_point{key.first, key.second,
                                      weighted_cov(usable, cfg.lso), eval.rmsre});
    }
    return out;
}

}  // namespace tcppred::analysis
