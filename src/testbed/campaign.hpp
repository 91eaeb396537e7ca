// Campaign orchestration: the full paths x traces x epochs measurement
// sweep of §4.1, plus load-or-run caching so the expensive simulation runs
// once and every figure binary shares the CSV (the paper's
// collect-then-analyze split).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "testbed/dataset.hpp"
#include "testbed/load_process.hpp"

namespace tcppred::testbed {

/// Size and seeding of a measurement campaign.
struct campaign_config {
    int paths{35};
    int traces_per_path{2};
    int epochs_per_trace{120};
    std::uint64_t seed{20040501};  ///< May 2004, the paper's first set
    epoch_config epoch{};
    bool second_set{false};  ///< use the campaign-2 catalogue & transfer plan
    /// Worker threads for the epoch sweep. 0 = auto ($REPRO_JOBS if set,
    /// else hardware_concurrency); 1 = serial, bypassing the pool entirely.
    /// The dataset is byte-identical for every value (DESIGN.md §6).
    int jobs{0};
    /// Measurement-fault rates (sim/fault_injector.hpp). Default-disabled:
    /// a fault-free campaign is byte-identical to one run before the fault
    /// layer existed.
    sim::fault_profile faults{};
};

/// Progress callback: (epochs completed, total epochs).
///
/// Threading guarantees: invocations are serialized under an internal mutex
/// and `completed` is strictly increasing (1..total), regardless of how many
/// worker threads run the campaign — the callback itself needs no locking.
/// With jobs > 1 it is invoked from worker threads (never concurrently), and
/// epochs complete out of record order, so `completed` is a count, not an
/// index. It must not re-enter run_campaign.
using progress_fn = std::function<void(int, int)>;

/// The path catalogue a campaign config generates (campaign-1 or campaign-2
/// per cfg.second_set). Path ids ascend 0..paths-1 in catalogue order — the
/// invariant that makes the linearized epoch order below equal the
/// (path, trace)-sorted order dataset::traces() produces.
[[nodiscard]] std::vector<path_profile> campaign_catalog(const campaign_config& cfg);

/// Epochs in the full grid: paths * traces_per_path * epochs_per_trace.
[[nodiscard]] std::size_t campaign_total_epochs(const campaign_config& cfg);

/// Grid coordinates of a linear epoch index (DESIGN.md §6): the inverse of
/// idx = path_index * (traces_per_path * epochs_per_trace)
///     + trace * epochs_per_trace + epoch.
struct epoch_coords {
    std::size_t path_index{0};  ///< index into campaign_catalog(cfg)
    int trace{0};
    int epoch{0};
};
[[nodiscard]] epoch_coords decompose_epoch_index(const campaign_config& cfg,
                                                 std::size_t idx);

/// Worker count for a campaign sweep: explicit cfg.jobs wins, otherwise
/// $REPRO_JOBS / hardware_concurrency, never more than one per epoch.
[[nodiscard]] unsigned campaign_effective_jobs(const campaign_config& cfg,
                                               std::size_t total_epochs);

/// Simulate one campaign epoch exactly as run_campaign does: per-epoch seed
/// derivation, fault planning, the campaign.epochs_run/faulted counters, the
/// per-epoch latency recorder and the JSONL "epoch" trace event. `load` is
/// the trace's load state for `epoch` (load_trajectory position). A pure
/// function of (cfg, profile, load, trace, epoch) — both the in-memory sweep
/// and the streamed store sink (record_store.hpp) call this, which is what
/// keeps their records bitwise identical.
[[nodiscard]] epoch_record simulate_campaign_epoch(const campaign_config& cfg,
                                                   const path_profile& profile,
                                                   const load_state& load, int trace,
                                                   int epoch);

/// Emit the JSONL "campaign_start" event (no-op when tracing is off).
void trace_campaign_start(const campaign_config& cfg);

/// Run a campaign from scratch. Deterministic in cfg alone: the records
/// vector (and hence the CSV) is identical for any cfg.jobs / $REPRO_JOBS,
/// because every epoch is independently seeded via
/// derive_seed(seed, "epoch", path, trace, epoch) and results are written
/// into pre-sized slots in (path, trace, epoch) order, never push order.
[[nodiscard]] dataset run_campaign(const campaign_config& cfg, progress_fn progress = nullptr);

/// Checkpointing / cancellation knobs for run_campaign_resumable. All
/// default-off: a default-constructed value makes it behave exactly like
/// run_campaign.
struct campaign_run_options {
    /// Checkpoint file. Empty = no checkpointing.
    std::filesystem::path checkpoint{};
    /// Flush the checkpoint after this many newly completed epochs (and
    /// always once more at the end of an interrupted run).
    int checkpoint_every{32};
    /// Load `checkpoint` if it exists and skip its completed epochs. The
    /// checkpoint must carry this config's fingerprint (checkpoint.hpp);
    /// job count may differ freely.
    bool resume{false};
    /// Claim only linear epoch indices for which this returns true (null =
    /// claim everything). Off-claim epochs are neither simulated nor marked
    /// done — this is how a shard worker runs its slice of the grid
    /// (testbed/shard.hpp); `complete` then means "every claimed epoch done".
    /// Must be pure and thread-safe: it is called from worker threads.
    std::function<bool(std::size_t)> epoch_filter{};
    /// Keep the checkpoint file after a complete run instead of removing it.
    /// A shard's checkpoint IS its output — the merge step consumes it.
    bool keep_checkpoint{false};
    /// Polled between epochs; return true to stop claiming new epochs. The
    /// in-flight ones finish and are checkpointed.
    std::function<bool()> cancelled{};
    /// Test/instrumentation hook, invoked with the linear epoch index just
    /// before that epoch simulates. An exception thrown here (or anywhere in
    /// an epoch) aborts the run, but completed epochs are still flushed to
    /// the checkpoint before the first worker error is rethrown.
    std::function<void(std::size_t)> epoch_hook{};
};

/// What a (possibly interrupted) campaign run produced.
struct campaign_outcome {
    dataset data;             ///< complete iff `complete`; else done slots only
    bool complete{true};      ///< every *claimed* epoch done (see epoch_filter)
    int epochs_completed{0};  ///< including epochs restored from the checkpoint
    int epochs_resumed{0};    ///< epochs restored from the checkpoint
};

/// run_campaign plus checkpoint/resume/cancel. Determinism contract: for a
/// fixed cfg, the records of a run that was interrupted any number of times
/// and resumed are byte-identical to an uninterrupted run's, at any job
/// count — every epoch is independently seeded, completed epochs round-trip
/// bit-exactly through the checkpoint, and the checkpoint is refused when
/// cfg (beyond jobs) changed. On a complete run the checkpoint file is
/// removed.
[[nodiscard]] campaign_outcome run_campaign_resumable(const campaign_config& cfg,
                                                      const campaign_run_options& opts,
                                                      progress_fn progress = nullptr);

/// Pre-canned sizes, selectable with REPRO_SCALE=tiny|normal|paper
/// ("default" is accepted as an alias of normal).
enum class campaign_scale { tiny, normal, paper };
/// $REPRO_SCALE, `normal` when unset or empty. Throws core::parse_error
/// naming the variable on any other value.
[[nodiscard]] campaign_scale scale_from_env();
[[nodiscard]] campaign_config campaign1_config(campaign_scale scale);
/// Campaign 2 (§4.1 second set, March 2006): fresh paths, longer transfers
/// with 1/4, 1/2 and full-length goodput checkpoints, no W=20KB companion.
[[nodiscard]] campaign_config campaign2_config(campaign_scale scale);

/// Load `file` if present, otherwise run the campaign and save it there.
/// Progress goes to stderr.
[[nodiscard]] dataset load_or_run(const campaign_config& cfg,
                                  const std::filesystem::path& file);

/// Resolve the shared data directory: $REPRO_DATA_DIR or "data".
[[nodiscard]] std::filesystem::path data_dir();

/// The standard cached campaign-1 / campaign-2 datasets used by benches and
/// examples (scale from $REPRO_SCALE).
[[nodiscard]] dataset ensure_campaign1();
[[nodiscard]] dataset ensure_campaign2();

}  // namespace tcppred::testbed
