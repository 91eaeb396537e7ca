#include "testbed/record_codec.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>

#include "core/checked_parse.hpp"
#include "core/contracts.hpp"
#include "core/hexfloat.hpp"
#include "testbed/checkpoint.hpp"

namespace tcppred::testbed {

namespace {

using core::hexd;

// Fields go through core's whole-token parsers (no sign on unsigned fields,
// no whitespace, no trailing garbage, no overflow); the reader's
// function-try-blocks turn their parse_error into dataset_error.
std::uint64_t u64(const std::string& s) {
    return core::parse_checked_u64("store field", s, 0, UINT64_MAX);
}
int i32(const std::string& s) {
    return static_cast<int>(core::parse_checked_int("store field", s, INT32_MIN, INT32_MAX));
}
double f64(const std::string& s) { return core::parse_hexd("store field", s); }

/// Value of one done-bitmap hex digit (lowercase only); -1 when invalid.
int hex_digit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
}

/// Temp file for an atomic publish of `file`: in $TMPDIR when set (keeps
/// half-written files out of shared data directories), else alongside the
/// target. The pid in the name keeps concurrent writers of same-named files
/// (shard workers, parallel tests sharing TMPDIR) from clobbering each
/// other's temps.
std::filesystem::path publish_temp_path(const std::filesystem::path& file) {
    std::filesystem::path dir =
        file.parent_path().empty() ? std::filesystem::path(".") : file.parent_path();
    // tcppred-lint: allow(det-env): documented temp-placement knob, not sim state
    if (const char* tmpdir = std::getenv("TMPDIR"); tmpdir && *tmpdir) dir = tmpdir;
    return dir / (file.filename().string() + "." + std::to_string(::getpid()) + ".tmp");
}

/// The one atomic publish: move the finished temp `tmp` onto `file` so
/// readers see either the old file or the new one, never a torn file.
/// rename(2) cannot cross filesystems — when the temp dir ($TMPDIR) sits on
/// another mount it fails EXDEV; fall back to copying next to the target,
/// fsync'ing the copy, and renaming *that*, which is same-filesystem by
/// construction. $TCPPRED_FORCE_EXDEV forces the fallback so tests can cover
/// it without a second mount. `tmp` is gone afterwards, published or not.
void publish(const std::filesystem::path& tmp, const std::filesystem::path& file) {
    namespace fs = std::filesystem;
    std::error_code ec;
    // tcppred-lint: allow(det-env): test hook for the EXDEV fallback path
    const bool force_exdev = std::getenv("TCPPRED_FORCE_EXDEV") != nullptr;
    if (!force_exdev) {
        fs::rename(tmp, file, ec);
        if (!ec) return;
        if (ec != std::errc::cross_device_link) {
            fs::remove(tmp, ec);
            throw std::runtime_error("cannot rename " + tmp.string() + " into " +
                                     file.string());
        }
    }
    const fs::path sibling = file.string() + ".tmp";
    fs::copy_file(tmp, sibling, fs::copy_options::overwrite_existing, ec);
    if (ec) {
        fs::remove(tmp, ec);
        throw std::runtime_error("cross-device copy into " + sibling.string() + " failed");
    }
    // fsync before the final rename: the copy's data must be durable before
    // the name flips, or a crash could publish an empty/short file.
    const int fd = ::open(sibling.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
    fs::rename(sibling, file, ec);
    std::error_code ignore;
    fs::remove(tmp, ignore);
    if (ec) {
        throw std::runtime_error("cannot rename " + sibling.string() + " into " +
                                 file.string());
    }
}

/// The measurement-double columns in file order: one table for the writer
/// and the reader, so the two cannot disagree on names or order.
constexpr struct {
    const char* name;
    double epoch_measurement::*field;
} k_double_cols[] = {
    {"availbw_bps", &epoch_measurement::avail_bw_bps},
    {"phat", &epoch_measurement::phat},
    {"phat_events", &epoch_measurement::phat_events},
    {"that_s", &epoch_measurement::that_s},
    {"ptilde", &epoch_measurement::ptilde},
    {"ttilde_s", &epoch_measurement::ttilde_s},
    {"r_large_bps", &epoch_measurement::r_large_bps},
    {"r_small_bps", &epoch_measurement::r_small_bps},
    {"tcp_loss", &epoch_measurement::tcp_loss_rate},
    {"tcp_event_rate", &epoch_measurement::tcp_event_rate},
    {"tcp_rtt_s", &epoch_measurement::tcp_mean_rtt_s},
    {"sim_time_s", &epoch_measurement::sim_time_s},
};

/// Per-record prefix-pair ceiling a reader accepts. The campaigns use at
/// most 3; this only bounds hostile inputs.
constexpr std::size_t k_max_store_prefixes = 64;

}  // namespace

void atomic_write_text(const std::filesystem::path& file, const std::string& contents) {
    const std::filesystem::path tmp = publish_temp_path(file);
    {
        std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
        out << contents;
        out.flush();
        if (!out) {
            std::error_code ignore;
            std::filesystem::remove(tmp, ignore);
            throw std::runtime_error("atomic_write_text: cannot write " + tmp.string());
        }
    }
    publish(tmp, file);
}

// ---------------------------------------------------------------------------
// record_writer

record_writer::record_writer(const std::filesystem::path& file, std::string fingerprint,
                             std::vector<std::string> catalog_lines, store_options opts,
                             const std::vector<char>* done)
    : file_(file), tmp_(publish_temp_path(file)), opts_(opts) {
    TCPPRED_EXPECTS(opts_.chunk_capacity >= 1 &&
                    opts_.chunk_capacity <= k_max_chunk_capacity);
    // Streams to the temp (never buffers the whole store in memory) and
    // hands it to the same publish routine atomic_write_text uses.
    out_.open(tmp_, std::ios::trunc | std::ios::binary);
    if (!out_) {
        throw std::runtime_error("record_writer: cannot open " + tmp_.string());
    }
    out_ << "tcppred-store,v1\n";
    out_ << "fingerprint," << fingerprint << '\n';
    out_ << "chunk_capacity," << opts_.chunk_capacity << '\n';
    out_ << "paths," << catalog_lines.size() << '\n';
    for (const std::string& line : catalog_lines) out_ << line << '\n';
    if (done != nullptr) {
        // Slot i is bit (i % 4) of hex digit i / 4; padding bits stay zero.
        std::string hex(done->size() / 4 + (done->size() % 4 != 0 ? 1 : 0), '0');
        for (std::size_t i = 0; i < done->size(); ++i) {
            const int digit = hex_digit(hex[i / 4]) | ((*done)[i] != 0 ? 1 << (i % 4) : 0);
            hex[i / 4] = "0123456789abcdef"[digit];
        }
        out_ << "done," << done->size() << ',' << hex << '\n';
    }
    buf_.reserve(opts_.chunk_capacity);
}

record_writer::~record_writer() {
    if (!finished_) abort();
}

void record_writer::append(const epoch_record& rec) {
    TCPPRED_EXPECTS(!finished_ && !aborted_);
    if (!have_last_ || rec.path_id != last_path_ || rec.trace_id != last_trace_) {
        ++n_traces_;
        last_path_ = rec.path_id;
        last_trace_ = rec.trace_id;
        have_last_ = true;
    }
    if (rec.m.fault_flags != fault_none) ++n_faulted_;
    buf_.push_back(rec);
    ++total_;
    if (buf_.size() >= opts_.chunk_capacity) flush_chunk();
}

void record_writer::flush_chunk() {
    if (buf_.empty()) return;
    store_chunk_ref ref;
    ref.offset = static_cast<std::uint64_t>(out_.tellp());
    ref.count = buf_.size();
    out_ << "chunk," << chunks_.size() << ',' << buf_.size() << '\n';
    const auto col = [&](const char* name, auto&& emit_one) {
        out_ << "col," << name;
        for (const epoch_record& r : buf_) {
            out_ << ',';
            emit_one(r);
        }
        out_ << '\n';
    };
    col("path", [&](const epoch_record& r) { out_ << r.path_id; });
    col("trace", [&](const epoch_record& r) { out_ << r.trace_id; });
    col("epoch", [&](const epoch_record& r) { out_ << r.epoch_index; });
    // Every double goes through hexd: the store round-trips bit-exactly.
    for (const auto& dc : k_double_cols) {
        col(dc.name, [&](const epoch_record& r) { out_ << hexd(r.m.*dc.field); });
    }
    col("events", [&](const epoch_record& r) { out_ << r.m.events; });
    col("fault_flags", [&](const epoch_record& r) { out_ << r.m.fault_flags; });
    col("n_prefix",
        [&](const epoch_record& r) { out_ << r.m.prefix_goodputs.size(); });
    // Flattened (s, bps) pairs, record-major; n_prefix above is the ragged
    // index into this column.
    out_ << "col,prefix";
    for (const epoch_record& r : buf_) {
        for (const auto& [s, bps] : r.m.prefix_goodputs) {
            out_ << ',' << hexd(s) << ',' << hexd(bps);
        }
    }
    out_ << '\n';
    chunks_.push_back(ref);
    buf_.clear();
}

void record_writer::finish() {
    if (finished_) return;
    TCPPRED_EXPECTS(!aborted_);
    flush_chunk();
    const auto footer_off = static_cast<std::uint64_t>(out_.tellp());
    out_ << "footer," << total_ << ',' << n_traces_ << ',' << n_faulted_ << ','
         << chunks_.size() << '\n';
    for (std::size_t i = 0; i < chunks_.size(); ++i) {
        out_ << "chunkoff," << i << ',' << chunks_[i].offset << ',' << chunks_[i].count
             << '\n';
    }
    out_ << "end," << footer_off << '\n';
    out_.flush();
    if (!out_) {
        abort();
        throw std::runtime_error("record_writer: write failed on " + tmp_.string());
    }
    out_.close();
    finished_ = true;  // publish() disposes of the temp on every path
    publish(tmp_, file_);
}

void record_writer::abort() noexcept {
    if (finished_ || aborted_) return;
    aborted_ = true;
    out_.close();
    std::error_code ignore;
    std::filesystem::remove(tmp_, ignore);
}

// ---------------------------------------------------------------------------
// record_reader

record_reader::record_reader(const std::filesystem::path& file,
                             const std::string& expected_fingerprint)
    : own_(file, std::ios::binary), in_(&own_), file_(file) {
    if (!own_) throw dataset_error(file_, 0, 0, "cannot open record store");
    open_and_validate(expected_fingerprint);
}

record_reader::record_reader(std::istream& in, std::filesystem::path context,
                             const std::string& expected_fingerprint)
    : in_(&in), file_(std::move(context)) {
    open_and_validate(expected_fingerprint);
}

void record_reader::open_and_validate(const std::string& expected_fingerprint) try {
    std::istream& in = *in_;

    // Probe seekability and size up front: footer discovery needs random
    // access, and the probe lets the error messages distinguish an *empty*
    // store (a crashed writer's target, a truncated copy) from a stream
    // that genuinely cannot seek — both used to collapse into the baffling
    // "store is not seekable".
    const std::istream::pos_type probe_start = in.tellg();
    in.seekg(0, std::ios::end);
    const std::istream::pos_type probe_end = in.tellg();
    if (probe_start < std::istream::pos_type{0} ||
        probe_end < std::istream::pos_type{0} || !in.seekg(probe_start)) {
        throw dataset_error(file_, 0, 0,
                            "store stream is not seekable (footer discovery "
                            "needs random access)");
    }
    if (probe_end == probe_start) {
        throw dataset_error(file_, 0, 0, "store file is empty (0 bytes)");
    }

    std::string line;
    const auto next_line = [&](const char* what) {
        if (!std::getline(in, line)) {
            throw dataset_error(file_, line_no_ + 1, 0,
                                std::string("truncated store: expected ") + what);
        }
        ++line_no_;
    };

    next_line("magic");
    if (line == "tcppred-checkpoint,v1") {
        throw dataset_error(file_, line_no_, 0,
                            "retired checkpoint format tcppred-checkpoint,v1 (hexfloat "
                            "rows) is no longer read; delete it and rerun the campaign");
    }
    if (line != "tcppred-store,v1") {
        throw dataset_error(file_, line_no_, 0, "not a tcppred record store");
    }
    next_line("fingerprint");
    if (line.rfind("fingerprint,", 0) != 0) {
        throw dataset_error(file_, line_no_, 0, "expected fingerprint line");
    }
    fingerprint_ = line.substr(12);
    if (!expected_fingerprint.empty() && fingerprint_ != expected_fingerprint) {
        throw dataset_error(
            file_, line_no_, 0,
            "record store belongs to a different campaign config (fingerprint "
            "mismatch); differing fields:" +
                describe_fingerprint_mismatch(fingerprint_, expected_fingerprint));
    }
    next_line("chunk_capacity");
    if (line.rfind("chunk_capacity,", 0) != 0) {
        throw dataset_error(file_, line_no_, 0, "expected chunk_capacity line");
    }
    chunk_capacity_ = static_cast<std::size_t>(u64(line.substr(15)));
    if (chunk_capacity_ < 1 || chunk_capacity_ > k_max_chunk_capacity) {
        throw dataset_error(file_, line_no_, 0, "chunk_capacity out of range");
    }
    next_line("paths");
    if (line.rfind("paths,", 0) != 0) {
        throw dataset_error(file_, line_no_, 0, "expected paths line");
    }
    const std::uint64_t n_paths = u64(line.substr(6));
    for (std::uint64_t i = 0; i < n_paths; ++i) {
        next_line("catalogue line");
        if (line.rfind("#path,", 0) != 0) {
            throw dataset_error(file_, line_no_, 0, "expected #path catalogue line");
        }
        catalog_lines_.push_back(line);
    }
    // Optional done bitmap (checkpoint stores): "done,<total>,<hex>". Its
    // length is checked against `total` before anything is sized by it.
    auto data_start = static_cast<std::uint64_t>(in.tellg());
    std::size_t done_set = 0;
    if (std::getline(in, line) && line.rfind("done,", 0) == 0) {
        ++line_no_;
        const std::size_t comma = line.find(',', 5);
        if (comma == std::string::npos) {
            throw dataset_error(file_, line_no_, 0, "malformed done line");
        }
        const std::uint64_t n = u64(line.substr(5, comma - 5));
        done_hex_ = line.substr(comma + 1);
        if (done_hex_.size() != n / 4 + (n % 4 != 0 ? 1 : 0)) {
            throw dataset_error(file_, line_no_, 3,
                                "done bitmap length disagrees with its total");
        }
        for (std::size_t k = 0; k < done_hex_.size(); ++k) {
            const int d = hex_digit(done_hex_[k]);
            if (d < 0 || (4 * k + 4 > n && (d >> (n - 4 * k)) != 0)) {
                throw dataset_error(file_, line_no_, 3, "bad done bitmap digit");
            }
            done_set += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(d)));
        }
        done_total_ = static_cast<std::size_t>(n);
        data_start = static_cast<std::uint64_t>(in.tellg());
    }

    // Footer discovery: the file ends with "end,<footer offset>". Seek to
    // the tail, isolate the last line, then validate the footer it points at
    // — every derived offset/count is checked before use, because this is an
    // untrusted input.
    line_no_ = 0;  // footer lines are located by offset, not counted
    in.clear();
    in.seekg(0, std::ios::end);
    const auto size = static_cast<std::int64_t>(in.tellg());
    if (size <= 0) {
        // Unreachable for empty/truncated input (the up-front probe and the
        // header reads reject those with specific messages first); a failed
        // tellg() here means the stream lost seekability mid-parse.
        throw dataset_error(file_, 0, 0, "store stream is not seekable");
    }
    const std::int64_t tail_len = std::min<std::int64_t>(size, 64);
    in.seekg(size - tail_len);
    std::string tail(static_cast<std::size_t>(tail_len), '\0');
    in.read(tail.data(), static_cast<std::streamsize>(tail_len));
    if (in.gcount() != tail_len) {
        throw dataset_error(file_, 0, 0, "cannot read store tail");
    }
    while (!tail.empty() && (tail.back() == '\n' || tail.back() == '\r')) {
        tail.pop_back();
    }
    const auto nl = tail.find_last_of('\n');
    const std::string end_line =
        nl == std::string::npos ? tail : tail.substr(nl + 1);
    if (end_line.rfind("end,", 0) != 0) {
        throw dataset_error(file_, 0, 0, "store missing end line (truncated?)");
    }
    const std::uint64_t footer_off = u64(end_line.substr(4));
    if (footer_off < data_start || footer_off >= static_cast<std::uint64_t>(size)) {
        throw dataset_error(file_, 0, 0, "footer offset out of range");
    }
    in.clear();
    in.seekg(static_cast<std::streamoff>(footer_off));
    std::string fline;
    if (!std::getline(in, fline) || fline.rfind("footer,", 0) != 0) {
        throw dataset_error(file_, 0, 0, "end line does not point at a footer");
    }
    const auto ff = split_fields(fline, ',');
    if (ff.size() != 5) {
        throw dataset_error(file_, 0, 0, "footer needs 5 fields");
    }
    total_ = static_cast<std::size_t>(u64(ff[1]));
    n_traces_ = static_cast<std::size_t>(u64(ff[2]));
    n_faulted_ = static_cast<std::size_t>(u64(ff[3]));
    const std::uint64_t n_chunks = u64(ff[4]);
    if (n_traces_ > total_ || n_faulted_ > total_) {
        throw dataset_error(file_, 0, 0, "footer counts out of range");
    }
    std::uint64_t sum = 0;
    std::uint64_t prev_off = data_start;
    for (std::uint64_t i = 0; i < n_chunks; ++i) {
        std::string cline;
        if (!std::getline(in, cline)) {
            throw dataset_error(file_, 0, 0, "truncated footer index");
        }
        const auto cf = split_fields(cline, ',');
        if (cf.size() != 4 || cf[0] != "chunkoff" || u64(cf[1]) != i) {
            throw dataset_error(file_, 0, 0, "bad chunkoff line in footer index");
        }
        store_chunk_ref ref;
        ref.offset = u64(cf[2]);
        ref.count = static_cast<std::size_t>(u64(cf[3]));
        if (ref.offset < prev_off || ref.offset >= footer_off) {
            throw dataset_error(file_, 0, 0, "chunk offset out of range");
        }
        if (ref.count < 1 || ref.count > chunk_capacity_) {
            throw dataset_error(file_, 0, 0, "chunk count out of range");
        }
        // The writer fills every chunk but the last to capacity; enforcing
        // that here rejects spliced/reordered indexes early.
        if (i + 1 < n_chunks && ref.count != chunk_capacity_) {
            throw dataset_error(file_, 0, 0, "non-final chunk not full");
        }
        sum += ref.count;
        prev_off = ref.offset;
        chunks_.push_back(ref);
    }
    if (sum != total_) {
        throw dataset_error(file_, 0, 0, "chunk counts disagree with footer total");
    }
    if (done_total_ && done_set != total_) {
        throw dataset_error(file_, 0, 0,
                            "done bitmap marks " + std::to_string(done_set) +
                                " epochs but the store holds " + std::to_string(total_) +
                                " records");
    }
    std::string eline;
    if (!std::getline(in, eline) || eline != "end," + std::to_string(footer_off)) {
        throw dataset_error(file_, 0, 0, "footer index not terminated by end line");
    }
} catch (const core::parse_error& e) {
    throw dataset_error(file_, line_no_, 0, e.what());
}

bool record_reader::done(std::size_t idx) const {
    TCPPRED_EXPECTS(done_total_ && idx < *done_total_);
    return ((hex_digit(done_hex_[idx / 4]) >> (idx % 4)) & 1) != 0;
}

void record_reader::load_chunk() try {
    const store_chunk_ref ref = chunks_[next_chunk_];
    std::istream& in = *in_;
    in.clear();
    in.seekg(static_cast<std::streamoff>(ref.offset));
    const auto fail = [&](const std::string& msg) {
        return dataset_error(file_, 0, 0,
                             "chunk " + std::to_string(next_chunk_) + ": " + msg);
    };
    std::string line;
    if (!std::getline(in, line)) throw fail("truncated: expected chunk header");
    {
        const auto f = split_fields(line, ',');
        if (f.size() != 3 || f[0] != "chunk") throw fail("expected chunk header line");
        if (u64(f[1]) != next_chunk_ || u64(f[2]) != ref.count) {
            throw fail("chunk header disagrees with footer index");
        }
    }
    const std::size_t n = ref.count;
    // Columns arrive in the writer's order, each with exactly `want` values.
    std::vector<std::string> f;
    const auto read_col = [&](const char* name, std::size_t want) {
        if (!std::getline(in, line)) {
            throw fail(std::string("truncated: expected column ") + name);
        }
        f = split_fields(line, ',');
        if (f.size() < 2 || f[0] != "col" || f[1] != name) {
            throw fail(std::string("expected column ") + name);
        }
        if (f.size() != 2 + want) {
            throw fail(std::string("column ") + name + " has " +
                       std::to_string(f.size() - 2) + " values, expected " +
                       std::to_string(want));
        }
    };

    read_col("path", n);
    // Allocate only after an actual input line with n fields existed, so
    // memory stays proportional to the input on hostile headers.
    cur_.assign(n, epoch_record{});
    cur_pos_ = 0;
    for (std::size_t i = 0; i < n; ++i) cur_[i].path_id = i32(f[2 + i]);
    read_col("trace", n);
    for (std::size_t i = 0; i < n; ++i) cur_[i].trace_id = i32(f[2 + i]);
    read_col("epoch", n);
    for (std::size_t i = 0; i < n; ++i) cur_[i].epoch_index = i32(f[2 + i]);
    for (const auto& dc : k_double_cols) {
        read_col(dc.name, n);
        for (std::size_t i = 0; i < n; ++i) cur_[i].m.*dc.field = f64(f[2 + i]);
    }
    read_col("events", n);
    for (std::size_t i = 0; i < n; ++i) cur_[i].m.events = u64(f[2 + i]);
    read_col("fault_flags", n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t v = u64(f[2 + i]);
        if (v > UINT32_MAX) throw fail("fault_flags out of range");
        cur_[i].m.fault_flags = static_cast<std::uint32_t>(v);
    }
    read_col("n_prefix", n);
    std::vector<std::size_t> np(n);
    std::size_t prefix_sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        np[i] = static_cast<std::size_t>(u64(f[2 + i]));
        if (np[i] > k_max_store_prefixes) throw fail("implausible prefix count");
        prefix_sum += np[i];
    }
    read_col("prefix", 2 * prefix_sum);
    std::size_t at = 2;
    for (std::size_t i = 0; i < n; ++i) {
        cur_[i].m.prefix_goodputs.reserve(np[i]);
        for (std::size_t j = 0; j < np[i]; ++j) {
            const double s = f64(f[at]);
            const double bps = f64(f[at + 1]);
            cur_[i].m.prefix_goodputs.emplace_back(s, bps);
            at += 2;
        }
    }
    ++next_chunk_;
} catch (const core::parse_error& e) {
    throw dataset_error(file_, 0, 0, "chunk " + std::to_string(next_chunk_) + ": " + e.what());
}

bool record_reader::next(epoch_record& out) {
    while (cur_pos_ >= cur_.size()) {
        if (next_chunk_ >= chunks_.size()) return false;
        load_chunk();
    }
    out = std::move(cur_[cur_pos_++]);
    return true;
}

// ---------------------------------------------------------------------------
// store -> CSV conversion

void store_to_csv(record_reader& in, const std::filesystem::path& csv_file) {
    std::ofstream out(csv_file);
    if (!out) {
        throw std::runtime_error("store_to_csv: cannot open " + csv_file.string());
    }
    for (const std::string& line : in.catalog_lines()) out << line << '\n';
    const bool any_faults = in.any_faults();
    write_csv_header(out, any_faults);
    epoch_record rec;
    while (in.next(rec)) write_csv_record(out, rec, any_faults);
    out.flush();
    if (!out) {
        throw std::runtime_error("store_to_csv: write failed on " + csv_file.string());
    }
}

}  // namespace tcppred::testbed
