#include "testbed/record_store.hpp"

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>

#include "core/contracts.hpp"
#include "obs/stopwatch.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "testbed/checkpoint.hpp"
#include "testbed/load_process.hpp"
#include "testbed/shard.hpp"

namespace tcppred::testbed {

// ---------------------------------------------------------------------------
// Streamed campaign sweep

streamed_campaign_outcome run_campaign_streamed(const campaign_config& cfg,
                                                const std::filesystem::path& store_file,
                                                const streamed_campaign_options& opts,
                                                progress_fn progress) {
    TCPPRED_EXPECTS(cfg.paths > 0 && cfg.traces_per_path > 0 &&
                    cfg.epochs_per_trace > 0);
    TCPPRED_EXPECTS(cfg.jobs >= 0);
    TCPPRED_EXPECTS(opts.reorder_capacity >= 1);
    const std::vector<path_profile> paths = campaign_catalog(cfg);
    const std::size_t total = campaign_total_epochs(cfg);
    const int total_i = static_cast<int>(total);
    trace_campaign_start(cfg);

    record_writer writer(store_file, campaign_fingerprint(cfg),
                         csv_catalog_lines(paths), opts.store);

    // Lazy per-trace load trajectories with last-epoch eviction: the
    // in-memory sweep pregenerates all of them (O(total) load_states), which
    // is exactly the kind of grid-sized allocation this path must not make.
    // Live entries ≈ traces with any epoch in flight ≈ jobs + 1, because
    // parallel_for claims indices in ascending (trace-major) order.
    struct trace_loads {
        std::vector<load_state> loads;
        int remaining{0};
    };
    std::map<std::size_t, trace_loads> load_cache;
    std::mutex cache_mutex;

    // In-order chunk sink behind a bounded reorder window. The worker
    // holding the lowest outstanding index is always admitted (it drains the
    // window), so blocking the rest at capacity cannot deadlock.
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::size_t, epoch_record> pending;
    std::size_t next_write = 0;
    bool sink_aborted = false;
    int completed = 0;
    std::atomic<bool> cancel{false};

    const auto abort_sink = [&] {
        const std::lock_guard<std::mutex> lock(mu);
        sink_aborted = true;
        cv.notify_all();
    };

    const auto push = [&](std::size_t idx, epoch_record&& rec) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
            return sink_aborted || idx == next_write ||
                   pending.size() < opts.reorder_capacity;
        });
        if (sink_aborted) return;
        if (idx == next_write) {
            writer.append(rec);
            ++next_write;
            while (!pending.empty() && pending.begin()->first == next_write) {
                writer.append(pending.begin()->second);
                pending.erase(pending.begin());
                ++next_write;
            }
            cv.notify_all();
        } else {
            pending.emplace(idx, std::move(rec));
        }
        ++completed;
        if (progress) progress(completed, total_i);
    };

    const auto run_one = [&](std::size_t idx) {
        if (cancel.load(std::memory_order_relaxed)) return;
        if (opts.cancelled && opts.cancelled()) {
            cancel.store(true, std::memory_order_relaxed);
            abort_sink();
            return;
        }
        const epoch_coords c = decompose_epoch_index(cfg, idx);
        const std::size_t trace_key =
            c.path_index * static_cast<std::size_t>(cfg.traces_per_path) +
            static_cast<std::size_t>(c.trace);
        load_state load;
        {
            const std::lock_guard<std::mutex> lock(cache_mutex);
            auto it = load_cache.find(trace_key);
            if (it == load_cache.end()) {
                trace_loads entry;
                entry.loads = load_trajectory(
                    paths[c.path_index],
                    sim::derive_seed(cfg.seed, "trace",
                                     static_cast<std::uint64_t>(paths[c.path_index].id),
                                     static_cast<std::uint64_t>(c.trace)),
                    cfg.epochs_per_trace);
                entry.remaining = cfg.epochs_per_trace;
                it = load_cache.emplace(trace_key, std::move(entry)).first;
            }
            load = it->second.loads[static_cast<std::size_t>(c.epoch)];
        }
        epoch_record rec =
            simulate_campaign_epoch(cfg, paths[c.path_index], load, c.trace, c.epoch);
        {
            const std::lock_guard<std::mutex> lock(cache_mutex);
            const auto it = load_cache.find(trace_key);
            if (it != load_cache.end() && --it->second.remaining == 0) {
                load_cache.erase(it);
            }
        }
        push(idx, std::move(rec));
    };

    try {
        const obs::stage_timer t_sweep("campaign.sweep");
        sim::parallel_for(total, campaign_effective_jobs(cfg, total), run_one);
    } catch (...) {
        abort_sink();
        writer.abort();
        throw;
    }

    streamed_campaign_outcome out;
    out.epochs_completed = completed;
    out.complete = !sink_aborted && writer.total() == total;
    if (out.complete) {
        writer.finish();
    } else {
        writer.abort();
    }
    return out;
}

// ---------------------------------------------------------------------------
// Streaming shard merge

std::size_t merge_shard_checkpoints_to_store(
    const campaign_config& cfg, const std::vector<std::filesystem::path>& shard_ckpts,
    const std::filesystem::path& store_file, store_options opts) {
    record_writer writer(store_file, campaign_fingerprint(cfg),
                         csv_catalog_lines(campaign_catalog(cfg)), opts);
    merge_shard_records(cfg, shard_ckpts, [&](epoch_record&& r) { writer.append(r); });
    writer.finish();
    return writer.total();
}

}  // namespace tcppred::testbed
