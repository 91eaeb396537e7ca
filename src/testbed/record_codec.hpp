// The one binary record codec (DESIGN.md §16): chunked columnar
// `tcppred-store,v1` files. Records live in fixed-size column chunks with
// hexfloat-exact number encoding, a footer index keyed on the v2 campaign
// fingerprint locates every chunk, and sequential reader/writer cursors
// stream a store with O(chunk_capacity) memory. A campaign checkpoint is
// the same file plus a done-bitmap header line (checkpoint.hpp), so dataset
// stores, serial checkpoints and shard checkpoints share one writer and one
// strict, fuzzed reader. The legacy v1 CSV is a *conversion* (store_to_csv),
// byte-identical to save_csv on the same records by construction: the store
// carries the catalogue lines verbatim and the conversion reuses the
// write_csv_* emitters (dataset.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <istream>
#include <optional>
#include <string>
#include <vector>

#include "testbed/dataset.hpp"

namespace tcppred::testbed {

/// Tuning for record_writer and the streamed campaign sink.
struct store_options {
    /// Records per column chunk. Writer and reader memory are O(this); the
    /// footer index is O(total / this).
    std::size_t chunk_capacity{1024};
};

/// Hard ceiling on the chunk_capacity a reader will accept: the memory
/// bound against hostile headers, far above any sane tuning.
inline constexpr std::size_t k_max_chunk_capacity = std::size_t{1} << 20;

/// One footer-index entry: a chunk's byte offset and record count.
struct store_chunk_ref {
    std::uint64_t offset{0};
    std::size_t count{0};
};

/// Write `contents` to `file` so that readers only ever observe the old
/// bytes or the new bytes, never a torn file: record_writer's publish
/// routine (temp in $TMPDIR when set, else next to `file`; rename(2), with a
/// copy + fsync + same-directory rename fallback on EXDEV, which the test
/// hook $TCPPRED_FORCE_EXDEV=1 forces).
void atomic_write_text(const std::filesystem::path& file, const std::string& contents);

/// Sequential store writer. Records must be appended in ascending linear
/// campaign order — (path, trace, epoch), the order run_campaign's records
/// vector and dataset::traces() share — so a store's record order is the
/// sorted order every reader can rely on. Data streams to a temp file that
/// finish() publishes like atomic_write_text; a crash (or abort()) before
/// finish() never touches the target.
class record_writer {
public:
    /// `catalog_lines` are the verbatim "#path,..." CSV catalogue lines
    /// (csv_catalog_lines); `fingerprint` is the v2 campaign fingerprint.
    /// A non-null `done` makes this a checkpoint store: the bitmap (one
    /// entry per campaign epoch, nonzero = completed) is written to the
    /// header, and the appended records must be exactly its set slots.
    record_writer(const std::filesystem::path& file, std::string fingerprint,
                  std::vector<std::string> catalog_lines, store_options opts = {},
                  const std::vector<char>* done = nullptr);
    ~record_writer();
    record_writer(const record_writer&) = delete;
    record_writer& operator=(const record_writer&) = delete;

    void append(const epoch_record& rec);

    /// Flush the final chunk, write the footer index, and atomically publish
    /// the store. Throws on I/O failure. No-op when already finished.
    void finish();

    /// Drop the temp file without publishing; the target is never touched.
    void abort() noexcept;

    [[nodiscard]] std::size_t total() const noexcept { return total_; }

private:
    void flush_chunk();

    std::filesystem::path file_;
    std::filesystem::path tmp_;
    std::ofstream out_;
    store_options opts_;
    std::vector<epoch_record> buf_;   // current chunk, O(chunk_capacity)
    std::vector<store_chunk_ref> chunks_;  // footer index, O(total / chunk_capacity)
    std::size_t total_{0};
    std::size_t n_traces_{0};
    std::size_t n_faulted_{0};
    int last_path_{0};
    int last_trace_{0};
    bool have_last_{false};
    bool finished_{false};
    bool aborted_{false};
};

/// Sequential store reader: validates the footer index and header up front
/// (including the fingerprint when `expected_fingerprint` is non-empty;
/// empty accepts any campaign), then streams records in linear order with
/// O(chunk_capacity) memory. Every malformed input throws dataset_error —
/// this is an untrusted-input parser (fuzzed by fuzz_record_store and
/// fuzz_checkpoint).
class record_reader {
public:
    explicit record_reader(const std::filesystem::path& file,
                           const std::string& expected_fingerprint = {});
    /// Over an already-open seekable stream positioned at offset 0 (tests,
    /// the fuzz harnesses); `context` only labels dataset_error messages.
    record_reader(std::istream& in, std::filesystem::path context,
                  const std::string& expected_fingerprint = {});
    /// Not copyable or movable: in_ may point at own_.
    record_reader(const record_reader&) = delete;
    record_reader& operator=(const record_reader&) = delete;

    /// Fill `out` with the next record; false at end of store.
    [[nodiscard]] bool next(epoch_record& out);

    [[nodiscard]] const std::string& fingerprint() const noexcept { return fingerprint_; }
    [[nodiscard]] std::size_t total() const noexcept { return total_; }
    /// Distinct (path, trace) pairs among the records.
    [[nodiscard]] std::size_t n_traces() const noexcept { return n_traces_; }
    /// Records carrying a nonzero fault_flags.
    [[nodiscard]] std::size_t n_faulted() const noexcept { return n_faulted_; }
    [[nodiscard]] bool any_faults() const noexcept { return n_faulted_ > 0; }
    [[nodiscard]] std::size_t chunk_capacity() const noexcept { return chunk_capacity_; }
    /// The verbatim "#path,..." catalogue lines the store carries.
    [[nodiscard]] const std::vector<std::string>& catalog_lines() const noexcept {
        return catalog_lines_;
    }
    /// Checkpoint stores only: the done bitmap's length (the campaign's
    /// epoch count); nullopt for a plain store. Its popcount is verified to
    /// equal total(), so the k-th record is the k-th set slot. The bitmap
    /// stays in hex form: nothing is allocated per declared epoch.
    [[nodiscard]] std::optional<std::size_t> done_total() const noexcept {
        return done_total_;
    }
    /// Slot `idx` of the done bitmap (requires idx < *done_total()).
    [[nodiscard]] bool done(std::size_t idx) const;

private:
    void open_and_validate(const std::string& expected_fingerprint);
    void load_chunk();

    std::ifstream own_;   // only used by the path constructor
    std::istream* in_{nullptr};
    std::filesystem::path file_;
    std::string fingerprint_;
    std::vector<std::string> catalog_lines_;
    std::optional<std::size_t> done_total_;
    std::string done_hex_;            // 4 slots per lowercase hex digit
    std::size_t chunk_capacity_{0};
    std::size_t total_{0};
    std::size_t n_traces_{0};
    std::size_t n_faulted_{0};
    std::vector<store_chunk_ref> chunks_;
    std::vector<epoch_record> cur_;   // decoded current chunk
    std::size_t cur_pos_{0};
    std::size_t next_chunk_{0};
    std::size_t line_no_{0};          // during sequential (header/chunk) reads
};

/// Convert a store to the legacy v1 analysis CSV, streaming (O(chunk)
/// memory). Byte-identical to save_csv over the same records: catalogue
/// lines are copied verbatim and records go through the shared
/// write_csv_record emitter; the optional fault_flags column is driven by
/// the footer's fault count, exactly as save_csv's any-fault scan would.
void store_to_csv(record_reader& in, const std::filesystem::path& csv_file);

}  // namespace tcppred::testbed
