// Campaign checkpoints: a completed-epoch bitmap plus the completed records,
// persisted mid-run so an interrupted campaign resumes instead of restarting.
// A checkpoint is a record store (record_codec.hpp) whose header carries the
// done bitmap; its records are the set slots in ascending linear order. So
// doubles round-trip bit-exactly (a resumed CSV is byte-identical to an
// uninterrupted run's), a checkpoint is only ever observed whole (a kill -9
// mid-flush leaves the previous one intact), and the strict store reader
// refuses truncated or tampered files before sizing anything by them. A
// checkpoint carries its config's fingerprint; resuming under any other
// config (seed, size, fault profile — anything but the job count) is refused.
#pragma once

#include <cstddef>
#include <filesystem>
#include <istream>
#include <optional>
#include <string>
#include <vector>

#include "testbed/campaign.hpp"
#include "testbed/record_codec.hpp"

namespace tcppred::testbed {

/// In-memory image of a checkpoint file.
struct campaign_checkpoint {
    std::string fingerprint;
    std::size_t total{0};              ///< epochs in the full campaign
    std::vector<char> done;            ///< size == total; nonzero = completed
    std::vector<epoch_record> records; ///< size == total; only done slots valid
};

/// One named field of a campaign fingerprint, e.g. {"seed", "20040501"}.
struct fingerprint_field {
    std::string name;
    std::string value;
};

/// The fingerprint decomposed into named fields, in serialization order.
/// campaign_fingerprint() is exactly the '|'-join of the values, so the two
/// can never drift; the names exist to turn a mismatch into an actionable
/// diagnosis ("seed: checkpoint has X, this run has Y") instead of a bare
/// "fingerprint mismatch".
[[nodiscard]] std::vector<fingerprint_field> campaign_fingerprint_fields(
    const campaign_config& cfg);

/// Identity of everything that shapes a campaign's records: sizes, seeds,
/// fault profile, epoch parameters. Deliberately excludes cfg.jobs — the
/// dataset is job-count-invariant (DESIGN.md §6), so a run checkpointed at
/// one REPRO_JOBS may resume at another.
[[nodiscard]] std::string campaign_fingerprint(const campaign_config& cfg);

/// Field-by-field diff of two fingerprint strings, for error messages:
/// each differing field as "name: checkpoint=<old> requested=<new>".
/// Positional — both sides are split on '|' and compared slot by slot
/// (slot names from the campaign_fingerprint_fields schema).
[[nodiscard]] std::string describe_fingerprint_mismatch(const std::string& in_checkpoint,
                                                        const std::string& requested);

/// Write atomically as a checkpoint store (record_writer with ck.done).
void save_checkpoint(const campaign_checkpoint& ck, const std::filesystem::path& file);

/// The same write over caller-owned slots, without copying them into a
/// campaign_checkpoint: only records whose `done` slot is set are read.
void save_checkpoint(const std::filesystem::path& file, const std::string& fingerprint,
                     const std::vector<char>& done,
                     const std::vector<epoch_record>& records);

/// Load and validate a checkpoint. Returns nullopt when `file` does not
/// exist; throws dataset_error when it exists but is malformed (including a
/// leftover file of the retired hexfloat-row checkpoint format) or its
/// fingerprint does not match `expected_fingerprint`.
[[nodiscard]] std::optional<campaign_checkpoint> load_checkpoint(
    const std::filesystem::path& file, const std::string& expected_fingerprint);

/// The same parse over an already-open seekable stream (the fuzz harness);
/// `context` only labels dataset_error messages. An empty
/// `expected_fingerprint` accepts any campaign.
[[nodiscard]] campaign_checkpoint load_checkpoint(std::istream& in,
                                                  const std::filesystem::path& context,
                                                  const std::string& expected_fingerprint);

/// Validate that an opened store is a checkpoint: it carries a done bitmap,
/// its fingerprint matches `expected_fingerprint` (skipped when empty), and
/// the bitmap spans exactly the epoch grid the fingerprint declares. Shared
/// by load_checkpoint and the shard merge (shard.hpp); throws dataset_error
/// naming `file`.
void check_checkpoint(const record_reader& reader, const std::filesystem::path& file,
                      const std::string& expected_fingerprint);

}  // namespace tcppred::testbed
