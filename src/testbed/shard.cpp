#include "testbed/shard.hpp"

#include <algorithm>
#include <charconv>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "testbed/checkpoint.hpp"

namespace tcppred::testbed {

namespace {

bool parse_int(std::string_view s, int& out) {
    const auto* end = s.data() + s.size();
    const auto res = std::from_chars(s.data(), end, out);
    return res.ec == std::errc{} && res.ptr == end;
}

std::filesystem::path shard_file(const std::filesystem::path& out, shard_ref ref,
                                 const char* ext) {
    std::filesystem::path p = out;
    p += ".shard-" + std::to_string(ref.index) + "-of-" + std::to_string(ref.count) +
         ext;
    return p;
}

}  // namespace

std::optional<shard_ref> parse_shard(std::string_view spec) {
    const std::size_t slash = spec.find('/');
    if (slash == std::string_view::npos) return std::nullopt;
    shard_ref ref;
    if (!parse_int(spec.substr(0, slash), ref.index)) return std::nullopt;
    if (!parse_int(spec.substr(slash + 1), ref.count)) return std::nullopt;
    if (ref.count < 1 || ref.index < 0 || ref.index >= ref.count) return std::nullopt;
    return ref;
}

std::function<bool(std::size_t)> shard_filter(shard_ref ref) {
    TCPPRED_EXPECTS(ref.count >= 1 && ref.index >= 0 && ref.index < ref.count);
    return [ref](std::size_t idx) { return shard_of(idx, ref.count) == ref.index; };
}

std::size_t shard_size(std::size_t total, shard_ref ref) {
    TCPPRED_EXPECTS(ref.count >= 1 && ref.index >= 0 && ref.index < ref.count);
    const std::size_t count = static_cast<std::size_t>(ref.count);
    const std::size_t index = static_cast<std::size_t>(ref.index);
    return total / count + (total % count > index ? 1 : 0);
}

std::filesystem::path shard_checkpoint_path(const std::filesystem::path& out,
                                            shard_ref ref) {
    return shard_file(out, ref, ".ckpt");
}

std::filesystem::path shard_heartbeat_path(const std::filesystem::path& out,
                                           shard_ref ref) {
    return shard_file(out, ref, ".hb");
}

std::filesystem::path shard_log_path(const std::filesystem::path& out, shard_ref ref) {
    return shard_file(out, ref, ".log");
}

void write_heartbeat(const std::filesystem::path& file, const shard_heartbeat& hb) {
    std::ostringstream out;
    out << "tcppred-heartbeat v1\n"
        << "pid " << hb.pid << "\n"
        << "seq " << hb.seq << "\n"
        << "done " << hb.epochs_done << "\n"
        << "claimed " << hb.epochs_claimed << "\n";
    atomic_write_text(file, out.str());
}

std::optional<shard_heartbeat> read_heartbeat(const std::filesystem::path& file) {
    std::ifstream in(file);
    if (!in) return std::nullopt;
    std::string magic;
    std::string version;
    if (!(in >> magic >> version) || magic != "tcppred-heartbeat" || version != "v1") {
        return std::nullopt;
    }
    shard_heartbeat hb;
    std::string key;
    if (!(in >> key >> hb.pid) || key != "pid") return std::nullopt;
    if (!(in >> key >> hb.seq) || key != "seq") return std::nullopt;
    if (!(in >> key >> hb.epochs_done) || key != "done") return std::nullopt;
    if (!(in >> key >> hb.epochs_claimed) || key != "claimed") return std::nullopt;
    return hb;
}

void merge_shard_records(const campaign_config& cfg,
                         const std::vector<std::filesystem::path>& shard_ckpts,
                         const std::function<void(epoch_record&&)>& sink) {
    TCPPRED_EXPECTS(!shard_ckpts.empty());
    const std::string fingerprint = campaign_fingerprint(cfg);
    const std::size_t total = campaign_total_epochs(cfg);
    // A deque: readers own their stream and are never moved once opened.
    std::deque<record_reader> readers;
    for (const auto& file : shard_ckpts) {
        // An absent shard means the campaign is not finished, so refuse.
        if (!std::filesystem::exists(file)) {
            throw dataset_error(file, 0, 0,
                                "shard checkpoint missing — run its shard to "
                                "completion before merging");
        }
        check_checkpoint(readers.emplace_back(file), file, fingerprint);
    }

    std::size_t covered = 0;
    std::size_t first_missing = total;
    for (std::size_t i = total; i-- > 0;) {
        const bool any = std::any_of(readers.begin(), readers.end(),
                                     [i](const record_reader& r) { return r.done(i); });
        covered += any ? 1 : 0;
        if (!any) first_missing = i;
    }
    if (covered != total) {
        std::ostringstream msg;
        msg << "shards cover only " << covered << " of " << total
            << " epochs (first missing linear index " << first_missing
            << ") — every shard must be complete before merging";
        throw dataset_error(shard_ckpts.front(), 0, 0, msg.str());
    }

    // Each shard's records are its set slots in ascending order, so at
    // linear index i every shard marking i holds it as its next record.
    epoch_record rec;
    for (std::size_t i = 0; i < total; ++i) {
        bool taken = false;
        for (record_reader& r : readers) {
            if (!r.done(i)) continue;
            const bool got = r.next(rec);  // the reader checked popcount == records
            TCPPRED_ASSERT(got);
            if (!taken) sink(std::move(rec));
            taken = true;
        }
    }
}

dataset merge_shard_checkpoints(const campaign_config& cfg,
                                const std::vector<std::filesystem::path>& shard_ckpts) {
    dataset data;
    data.paths = campaign_catalog(cfg);
    data.records.reserve(campaign_total_epochs(cfg));
    merge_shard_records(cfg, shard_ckpts,
                        [&](epoch_record&& r) { data.records.push_back(std::move(r)); });
    return data;
}

}  // namespace tcppred::testbed
