// Serve daemon snapshots: the path table persisted as an event-sourced
// replay log, reusing the repo's bit-exact persistence primitives
// (core::hexd + testbed::atomic_write_text, DESIGN.md §17).
//
// Format (line-oriented, doubles in hexfloat):
//
//   tcppred-serve-snapshot,v1
//   specs,<spec1>;<spec2>;...
//   paths,<path count>
//   path,<name>,<event count>
//   ev,<epoch>,<availbw>,<phat>,<phat_events>,<that_s>,<r_large>,<flags>
//   ...
//   end,<total events>
//
// Paths are emitted in ascending name order (shard-count independent), each
// followed by its events in observation order. Restoring replays every
// event through path_table::observe — the same predict-then-observe apply
// path live requests take — so a restored daemon's predictor state and
// cached forecasts are bitwise identical to the one that wrote the
// snapshot, and re-rendering immediately after a restore reproduces the
// file byte for byte (the round-trip test pins this).
//
// The specs line is the snapshot's fingerprint: restoring under any other
// spec list is refused (testbed::dataset_error), mirroring the campaign
// checkpoint contract.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "serve/path_table.hpp"

namespace tcppred::serve {

/// What a snapshot load replayed.
struct snapshot_stats {
    std::size_t paths{0};
    std::uint64_t events{0};
};

/// Render the table's snapshot text (format above).
[[nodiscard]] std::string render_snapshot(const path_table& table);

/// Render and persist via testbed::atomic_write_text — readers only ever
/// observe the previous snapshot or this one, never a torn file.
void write_snapshot(const path_table& table, const std::filesystem::path& file);

/// Parse `file` and replay every event into `table` (which must be empty
/// and configured with the exact spec list the snapshot names). Throws
/// testbed::dataset_error on a malformed file or a spec-list mismatch.
snapshot_stats load_snapshot(path_table& table, const std::filesystem::path& file);

/// The specs fingerprint line body for a spec list (';'-joined).
[[nodiscard]] std::string join_specs(const std::vector<std::string>& specs);

}  // namespace tcppred::serve
