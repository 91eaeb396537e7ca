#include "testbed/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/checked_parse.hpp"
#include "core/contracts.hpp"
#include "obs/counters.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace_writer.hpp"
#include "sim/fault_injector.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "testbed/checkpoint.hpp"
#include "testbed/load_process.hpp"

namespace tcppred::testbed {

std::vector<path_profile> campaign_catalog(const campaign_config& cfg) {
    return cfg.second_set ? second_campaign_catalog(cfg.paths, cfg.seed)
                          : ron_like_catalog(cfg.paths, cfg.seed);
}

std::size_t campaign_total_epochs(const campaign_config& cfg) {
    return static_cast<std::size_t>(cfg.paths) *
           static_cast<std::size_t>(cfg.traces_per_path) *
           static_cast<std::size_t>(cfg.epochs_per_trace);
}

epoch_coords decompose_epoch_index(const campaign_config& cfg, std::size_t idx) {
    const int per_path = cfg.traces_per_path * cfg.epochs_per_trace;
    epoch_coords c;
    c.path_index = idx / static_cast<std::size_t>(per_path);
    const int rem = static_cast<int>(idx % static_cast<std::size_t>(per_path));
    c.trace = rem / cfg.epochs_per_trace;
    c.epoch = rem % cfg.epochs_per_trace;
    return c;
}

unsigned campaign_effective_jobs(const campaign_config& cfg, std::size_t total_epochs) {
    const unsigned requested =
        cfg.jobs > 0 ? static_cast<unsigned>(cfg.jobs) : sim::jobs_from_env();
    const std::size_t cap_epochs = total_epochs > 0 ? total_epochs : 1;
    const unsigned cap = static_cast<unsigned>(std::min<std::size_t>(
        cap_epochs, std::numeric_limits<unsigned>::max()));
    return std::min(requested, cap);
}

epoch_record simulate_campaign_epoch(const campaign_config& cfg,
                                     const path_profile& profile,
                                     const load_state& load, int trace, int epoch) {
    static const obs::counter c_epochs = obs::counter::get("campaign.epochs_run");
    static const obs::counter c_faulted = obs::counter::get("campaign.epochs_faulted");
    const std::uint64_t epoch_seed = sim::derive_seed(
        cfg.seed, "epoch", static_cast<std::uint64_t>(profile.id),
        static_cast<std::uint64_t>(trace), static_cast<std::uint64_t>(epoch));
    // The fault plan rides in a per-epoch copy of the epoch config; the
    // fault-free path keeps using cfg.epoch directly.
    const epoch_config* ecfg = &cfg.epoch;
    epoch_config faulty_cfg;
    if (cfg.faults.enabled()) {
        faulty_cfg = cfg.epoch;
        faulty_cfg.faults =
            sim::plan_epoch_faults(cfg.faults, cfg.seed, profile.id, trace, epoch);
        if (faulty_cfg.faults.any()) c_faulted.add();
        ecfg = &faulty_cfg;
    }
    epoch_record rec;
    rec.path_id = profile.id;
    rec.trace_id = trace;
    rec.epoch_index = epoch;
    const bool observing = obs::metrics_enabled() || obs::trace_enabled();
    const obs::stopwatch epoch_watch;  // read only when observing
    rec.m = run_epoch(profile, load, epoch_seed, *ecfg);
    c_epochs.add();
    if (observing) {
        const double dur_s = epoch_watch.elapsed_s();
        obs::record_duration("campaign.epoch", dur_s);
        if (obs::trace_enabled()) {
            char seed_hex[20];
            std::snprintf(seed_hex, sizeof(seed_hex), "0x%016llx",
                          static_cast<unsigned long long>(epoch_seed));
            obs::trace_emit(
                obs::json_line{}
                    .str("ev", "epoch")
                    .num("path", static_cast<std::int64_t>(profile.id))
                    .num("trace", static_cast<std::int64_t>(trace))
                    .num("epoch", static_cast<std::int64_t>(epoch))
                    .str("seed", seed_hex)
                    .num("fault_flags", static_cast<std::uint64_t>(rec.m.fault_flags))
                    .num("sim_events", rec.m.events)
                    .num("dur_s", dur_s)
                    .num("thread", static_cast<std::uint64_t>(std::hash<std::thread::id>{}(
                                       std::this_thread::get_id())))
                    .done());
        }
    }
    return rec;
}

void trace_campaign_start(const campaign_config& cfg) {
    if (!obs::trace_enabled()) return;
    obs::trace_emit(obs::json_line{}
                        .str("ev", "campaign_start")
                        .num("paths", static_cast<std::int64_t>(cfg.paths))
                        .num("traces", static_cast<std::int64_t>(cfg.traces_per_path))
                        .num("epochs", static_cast<std::int64_t>(cfg.epochs_per_trace))
                        .num("seed", static_cast<std::uint64_t>(cfg.seed))
                        .str("faults", cfg.faults.spec())
                        .num("second_set",
                             static_cast<std::int64_t>(cfg.second_set ? 1 : 0))
                        .done());
}

dataset run_campaign(const campaign_config& cfg, progress_fn progress) {
    return run_campaign_resumable(cfg, {}, std::move(progress)).data;
}

campaign_outcome run_campaign_resumable(const campaign_config& cfg,
                                        const campaign_run_options& opts,
                                        progress_fn progress) {
    TCPPRED_EXPECTS(cfg.paths > 0 && cfg.traces_per_path > 0 &&
                    cfg.epochs_per_trace > 0);
    TCPPRED_EXPECTS(cfg.jobs >= 0);
    TCPPRED_EXPECTS(opts.checkpoint_every > 0);
    campaign_outcome out;
    dataset& data = out.data;
    data.paths = campaign_catalog(cfg);

    const int total = cfg.paths * cfg.traces_per_path * cfg.epochs_per_trace;

    // Observability: logical-event counters (job-count-invariant; DESIGN.md
    // §12) and the JSONL run trace (per-epoch events are emitted inside
    // simulate_campaign_epoch).
    static const obs::counter c_resumed = obs::counter::get("campaign.epochs_resumed");
    static const obs::counter c_flushes =
        obs::counter::get("campaign.checkpoint_flushes");
    trace_campaign_start(cfg);
    const bool checkpointing = !opts.checkpoint.empty();
    const std::string fingerprint =
        checkpointing ? campaign_fingerprint(cfg) : std::string{};

    // Per-trace load trajectories are cheap; generate them up front so the
    // parallel sweep below is a pure fan-out over independent epochs.
    const obs::stopwatch loads_watch;
    const std::size_t n_traces =
        data.paths.size() * static_cast<std::size_t>(cfg.traces_per_path);
    std::vector<std::vector<load_state>> loads(n_traces);
    for (std::size_t p = 0; p < data.paths.size(); ++p) {
        for (int trace = 0; trace < cfg.traces_per_path; ++trace) {
            const std::uint64_t trace_seed = sim::derive_seed(
                cfg.seed, "trace", static_cast<std::uint64_t>(data.paths[p].id),
                static_cast<std::uint64_t>(trace));
            loads[p * static_cast<std::size_t>(cfg.traces_per_path) +
                  static_cast<std::size_t>(trace)] =
                load_trajectory(data.paths[p], trace_seed, cfg.epochs_per_trace);
        }
    }
    obs::record_duration("campaign.load_trajectories", loads_watch.elapsed_s());

    // Records are pre-sized and indexed by the linearized (path, trace,
    // epoch) — identical to the serial iteration order — so completion order
    // never shows in the output and save_csv is byte-identical for any job
    // count (the determinism contract, DESIGN.md §6).
    data.records.resize(static_cast<std::size_t>(total));

    // Completed-epoch bitmap. Slots restored here (before any worker starts)
    // are read without locking in run_one: thread creation orders those
    // writes before every worker. Workers only set their own claimed slot,
    // under ck_mutex, so checkpoint flushes read a consistent view.
    std::vector<char> done(static_cast<std::size_t>(total), 0);
    if (opts.resume && checkpointing) {
        // load_checkpoint has checked ck->total against this config's grid;
        // its records are default-constructed wherever done is 0.
        if (auto ck = load_checkpoint(opts.checkpoint, fingerprint)) {
            data.records = std::move(ck->records);
            done = std::move(ck->done);
            out.epochs_resumed = static_cast<int>(std::count(done.begin(), done.end(), 1));
            c_resumed.add(static_cast<std::uint64_t>(out.epochs_resumed));
        }
    }

    // Progress + checkpoint state, all serialized by ck_mutex so the user
    // callback sees strictly increasing counts and never runs concurrently
    // with itself, and a flush always sees fully written records.
    std::atomic<bool> cancel{false};
    std::mutex ck_mutex;
    int completed = out.epochs_resumed;
    int since_flush = 0;

    const auto flush_checkpoint = [&] {  // caller holds ck_mutex
        // Reads completed slots only: a worker writes its record slot before
        // taking ck_mutex to set done[idx], so every done slot is fully
        // written and quiescent here — while a slot still in flight may be
        // mid-write on another thread and must not even be read.
        save_checkpoint(opts.checkpoint, fingerprint, done, data.records);
        c_flushes.add();
    };

    const auto run_one = [&](std::size_t idx) {
        if (opts.epoch_filter && !opts.epoch_filter(idx)) return;  // not ours
        if (done[idx]) return;  // restored from the checkpoint
        if (cancel.load(std::memory_order_relaxed)) return;
        if (opts.cancelled && opts.cancelled()) {
            cancel.store(true, std::memory_order_relaxed);
            return;
        }
        if (opts.epoch_hook) opts.epoch_hook(idx);
        const epoch_coords c = decompose_epoch_index(cfg, idx);
        const path_profile& profile = data.paths[c.path_index];
        data.records[idx] = simulate_campaign_epoch(
            cfg, profile,
            loads[c.path_index * static_cast<std::size_t>(cfg.traces_per_path) +
                  static_cast<std::size_t>(c.trace)][static_cast<std::size_t>(c.epoch)],
            c.trace, c.epoch);
        {
            const std::lock_guard<std::mutex> lock(ck_mutex);
            done[idx] = 1;
            ++completed;
            if (progress) progress(completed, total);
            if (checkpointing && ++since_flush >= opts.checkpoint_every) {
                flush_checkpoint();
                since_flush = 0;
            }
        }
    };

    try {
        const obs::stage_timer t_sweep("campaign.sweep");
        sim::parallel_for(static_cast<std::size_t>(total),
                          campaign_effective_jobs(cfg, static_cast<std::size_t>(total)),
                          run_one);
    } catch (...) {
        // A worker threw (parallel_for already drained the pool and captured
        // the first error). Persist the epochs that did complete, then let
        // the error propagate — exactly once — to the caller.
        if (checkpointing) {
            const std::lock_guard<std::mutex> lock(ck_mutex);
            flush_checkpoint();
        }
        throw;
    }

    out.epochs_completed = completed;
    // Complete = every claimed epoch done. Without a filter that is the
    // whole grid; a shard is complete when its slice is, regardless of the
    // other shards' slots.
    out.complete = true;
    for (std::size_t i = 0; i < static_cast<std::size_t>(total); ++i) {
        if (opts.epoch_filter && !opts.epoch_filter(i)) continue;
        if (!done[i]) {
            out.complete = false;
            break;
        }
    }
    if (checkpointing) {
        if (out.complete && !opts.keep_checkpoint) {
            std::error_code ec;  // best-effort cleanup; absence is fine
            std::filesystem::remove(opts.checkpoint, ec);
        } else {
            // Final flush so everything finished since the last periodic
            // flush survives the interruption — and so a kept (shard)
            // checkpoint exists even when the run had nothing left to do.
            const std::lock_guard<std::mutex> lock(ck_mutex);
            if (since_flush > 0 || !std::filesystem::exists(opts.checkpoint)) {
                flush_checkpoint();
            }
        }
    }
    return out;
}

campaign_scale scale_from_env() {
    const char* env = std::getenv("REPRO_SCALE");  // NOLINT(concurrency-mt-unsafe)
    // Empty means unset, as for $REPRO_JOBS; any other unrecognized value
    // is a typed parse_error naming the variable.
    if (env == nullptr || *env == '\0') return campaign_scale::normal;
    // "default" is the historical spelling of normal (and its cache suffix).
    constexpr campaign_scale scales[] = {campaign_scale::tiny, campaign_scale::normal,
                                         campaign_scale::normal, campaign_scale::paper};
    return scales[core::parse_checked_choice("REPRO_SCALE", env,
                                             {"tiny", "normal", "default", "paper"})];
}

campaign_config campaign1_config(campaign_scale scale) {
    campaign_config cfg;
    switch (scale) {
        case campaign_scale::tiny:
            cfg.paths = 8;
            cfg.traces_per_path = 1;
            cfg.epochs_per_trace = 45;
            break;
        case campaign_scale::normal:
            cfg.paths = 35;
            cfg.traces_per_path = 2;
            cfg.epochs_per_trace = 120;
            break;
        case campaign_scale::paper:
            cfg.paths = 35;
            cfg.traces_per_path = 7;
            cfg.epochs_per_trace = 150;
            break;
    }
    return cfg;
}

campaign_config campaign2_config(campaign_scale scale) {
    campaign_config cfg;
    cfg.second_set = true;
    cfg.seed = 20060301;  // March 2006, the paper's second set
    // Longer target transfers with goodput checkpoints at 1/4, 1/2 and the
    // full length (the paper's 30/60/120 s of a 120 s transfer).
    cfg.epoch.transfer = core::seconds{24.0};
    cfg.epoch.prefix_s = {6.0, 12.0, 24.0};
    cfg.epoch.run_small_window = false;
    switch (scale) {
        case campaign_scale::tiny:
            cfg.paths = 4;
            cfg.traces_per_path = 1;
            cfg.epochs_per_trace = 15;
            break;
        case campaign_scale::normal:
            cfg.paths = 24;
            cfg.traces_per_path = 1;
            cfg.epochs_per_trace = 60;
            break;
        case campaign_scale::paper:
            cfg.paths = 24;
            cfg.traces_per_path = 3;
            cfg.epochs_per_trace = 120;
            break;
    }
    return cfg;
}

dataset load_or_run(const campaign_config& cfg, const std::filesystem::path& file) {
    if (std::filesystem::exists(file)) {
        return load_csv(file);
    }
    const unsigned jobs = campaign_effective_jobs(cfg, campaign_total_epochs(cfg));
    std::cerr << "[campaign] dataset " << file
              << " not found; running measurement campaign on " << jobs
              << " thread(s) (this is done once and cached)...\n";
    int last_percent = -1;
    const obs::stopwatch watch;
    dataset data = run_campaign(cfg, [&](int done, int total) {
        const int percent = done * 100 / total;
        if (percent / 5 != last_percent / 5) {
            std::cerr << "[campaign] " << percent << "% (" << done << "/" << total
                      << " epochs)\n";
            last_percent = percent;
        }
    });
    const double wall_s = watch.elapsed_s();
    std::filesystem::create_directories(file.parent_path().empty() ? "."
                                                                   : file.parent_path());
    save_csv(data, file);
    std::cerr << "[campaign] " << data.records.size() << " epochs in " << wall_s
              << " s (" << (wall_s > 0 ? static_cast<double>(data.records.size()) / wall_s
                                       : 0.0)
              << " epochs/s, " << jobs << " jobs); saved to " << file << "\n";
    return data;
}

std::filesystem::path data_dir() {
    if (const char* env = std::getenv("REPRO_DATA_DIR")) return env;  // NOLINT(concurrency-mt-unsafe)
    return "data";
}

namespace {

std::string scale_suffix(campaign_scale s) {
    switch (s) {
        case campaign_scale::tiny: return "tiny";
        case campaign_scale::normal: return "default";
        case campaign_scale::paper: return "paper";
    }
    return "default";
}

}  // namespace

dataset ensure_campaign1() {
    const campaign_scale scale = scale_from_env();
    return load_or_run(campaign1_config(scale),
                       data_dir() / ("campaign1_" + scale_suffix(scale) + ".csv"));
}

dataset ensure_campaign2() {
    const campaign_scale scale = scale_from_env();
    return load_or_run(campaign2_config(scale),
                       data_dir() / ("campaign2_" + scale_suffix(scale) + ".csv"));
}

}  // namespace tcppred::testbed
