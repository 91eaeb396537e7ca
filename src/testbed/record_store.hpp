// Record-store campaigns (DESIGN.md §16): the streamed campaign sweep and
// the shard merge into a store, both writing through the record codec
// (record_codec.hpp, re-exported here for store users). Callers never hold
// a whole dataset: the sweep's memory is O(chunk + reorder window + jobs),
// the merge's O(shards · chunk).
//
// Layering: this module ("store" in tools/lint/tcppred_lint.conf) sits on
// top of testbed — it includes campaign/checkpoint/shard, nothing in
// testbed includes it.
#pragma once

#include <cstddef>
#include <filesystem>
#include <functional>
#include <vector>

#include "testbed/campaign.hpp"
#include "testbed/record_codec.hpp"

namespace tcppred::testbed {

/// Knobs for the streamed campaign sweep.
struct streamed_campaign_options {
    store_options store{};
    /// Bounded reorder window (records) between out-of-order workers and the
    /// in-order chunk sink. Workers finishing ahead of the lowest
    /// outstanding epoch park their records here; when it fills they block
    /// (except the worker holding the next in-order index, so progress is
    /// always possible). Peak buffered memory is O(this + jobs).
    std::size_t reorder_capacity{4096};
    /// Polled between epochs; return true to stop. A cancelled streamed run
    /// abandons the temp store — nothing is checkpointed (use --workers /
    /// shard checkpoints for crash tolerance).
    std::function<bool()> cancelled{};
};

struct streamed_campaign_outcome {
    bool complete{true};
    int epochs_completed{0};
};

/// run_campaign writing straight to a record store instead of an in-memory
/// dataset: completed epochs flow through a bounded reorder window into the
/// chunk sink in linear order, and per-trace load trajectories are generated
/// lazily and evicted when their last epoch completes. Peak memory is
/// O(chunk + reorder window + jobs·epochs_per_trace) — independent of the
/// grid size. Records are bitwise identical to run_campaign's (same
/// simulate_campaign_epoch, same per-epoch seeding) at any job count.
[[nodiscard]] streamed_campaign_outcome run_campaign_streamed(
    const campaign_config& cfg, const std::filesystem::path& store_file,
    const streamed_campaign_options& opts = {}, progress_fn progress = nullptr);

/// Merge completed shard checkpoints into a store: merge_shard_records
/// (shard.hpp) — the same lockstep walk merge_shard_checkpoints uses —
/// feeding a record_writer, so memory is O(shards · chunk). Throws
/// dataset_error exactly as merge_shard_checkpoints does. Returns the merged
/// record count (the full grid).
std::size_t merge_shard_checkpoints_to_store(
    const campaign_config& cfg, const std::vector<std::filesystem::path>& shard_ckpts,
    const std::filesystem::path& store_file, store_options opts = {});

}  // namespace tcppred::testbed
