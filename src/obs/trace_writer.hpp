// Opt-in JSONL run traces — the event half of the observability layer
// (DESIGN.md §12).
//
// When enabled ($REPRO_TRACE=file or a tool's --trace flag) every epoch,
// stage and prediction appends one JSON object line to the trace file.
// Producers format the line and hand it to a bounded queue; a single
// background drain thread owns the file, so emit() never blocks on disk and
// the worker threads' relative timing — and therefore the campaign's
// determinism contract — is untouched. With tracing disabled, enabled() is
// one relaxed atomic load and nothing on the hot path allocates.
//
// Event schema and the volatile-key list live in DESIGN.md §12; the
// canonicalizer below (parse → drop volatile keys → re-serialize with
// sorted keys) is what the determinism tests and `tcppred_analyze
// --from-trace` consume.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

namespace tcppred::obs {

/// Incremental builder for one flat JSON object line. Keys are emitted in
/// call order; values are strings, doubles (shortest round-trip form), or
/// unsigned integers.
class json_line {
public:
    json_line& str(std::string_view key, std::string_view value);
    json_line& num(std::string_view key, double value);
    json_line& num(std::string_view key, std::uint64_t value);
    json_line& num(std::string_view key, std::int64_t value);
    /// Finish the object. The builder is spent afterwards.
    [[nodiscard]] std::string done();

private:
    void key(std::string_view k);
    std::string buf_{"{"};
    bool first_{true};
};

/// The process-wide trace sink. Thread-safe; at most one open trace at a
/// time (second open() throws).
class trace_writer {
public:
    [[nodiscard]] static trace_writer& instance();

    /// Start tracing into `file` (truncating it) and spawn the drain thread.
    void open(const std::filesystem::path& file);
    /// Flush everything queued, join the drain thread, close the file.
    /// Idempotent. Throws if the drain thread hit a write error.
    void close();

    /// Fast global check for producers: gate all event construction on this.
    [[nodiscard]] static bool enabled() noexcept;

    /// Enqueue one complete JSON object line (no trailing newline).
    /// Silently drops when tracing is off, so call sites may skip the
    /// enabled() check when they already built the line for other reasons.
    void emit(std::string line);

    ~trace_writer();
    trace_writer(const trace_writer&) = delete;
    trace_writer& operator=(const trace_writer&) = delete;

private:
    trace_writer() = default;
    void drain_loop();

    std::mutex mu_;
    std::condition_variable wake_;
    std::deque<std::string> queue_;
    std::thread drain_;
    std::filesystem::path file_;
    bool closing_{false};
    std::string error_;  // first drain-thread write failure
};

/// Shorthands for producer code.
[[nodiscard]] inline bool trace_enabled() noexcept { return trace_writer::enabled(); }
inline void trace_emit(std::string line) {
    trace_writer::instance().emit(std::move(line));
}

/// Honor the observability environment: $REPRO_TRACE=file opens the trace,
/// $REPRO_METRICS=1 enables timing collection and prints the metrics
/// summary to stderr at process exit (empty or "0" = off). Any other
/// $REPRO_METRICS value throws std::invalid_argument naming the variable,
/// before the trace is opened; tools map it to exit 2. Call once from
/// main() or a shared entry point (bench_util does); extra calls are no-ops.
void init_from_env();

/// Human-oriented counters + gauges + stage-timer table (the
/// --metrics-summary output). Gauges and timers are listed only when
/// non-empty.
void write_metrics_summary(std::ostream& os);

// ---------------------------------------------------------------------------
// Trace consumption: parsing, canonicalization (--from-trace, tests, CI).

using trace_value = std::variant<std::string, double>;
using trace_event = std::map<std::string, trace_value>;

/// Parse one flat JSON object line of the schema this writer emits.
/// Throws std::runtime_error (with `context` in the message) on anything
/// malformed — the CI trace validator relies on that.
[[nodiscard]] trace_event parse_trace_line(std::string_view line,
                                           const std::string& context = {});

/// Read a whole JSONL trace file. Empty lines are rejected (the writer
/// never produces them).
[[nodiscard]] std::vector<trace_event> read_trace_file(
    const std::filesystem::path& file);

/// Keys whose values are wall-clock/scheduling facts rather than workload
/// facts: "ts", "dur_s", "thread". Stripped before any determinism compare.
[[nodiscard]] bool is_volatile_trace_key(std::string_view key) noexcept;

/// Canonical form of one event: volatile keys dropped, remaining keys
/// serialized in sorted order. Two runs of the same seed produce the same
/// multiset of canonical lines at any job count.
[[nodiscard]] std::string canonical_trace_line(const trace_event& ev);

/// Canonicalize and sort a whole trace file — the byte sequence the
/// determinism tests compare across job counts.
[[nodiscard]] std::vector<std::string> canonical_trace_lines(
    const std::filesystem::path& file);

}  // namespace tcppred::obs
