#include "testbed/checkpoint.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "core/checked_parse.hpp"
#include "core/contracts.hpp"
#include "core/hexfloat.hpp"

namespace tcppred::testbed {

namespace {

using core::hexd;

/// Epochs in the grid a fingerprint declares: the product of its paths,
/// traces_per_path and epochs_per_trace slots.
std::uint64_t fingerprint_epochs(const std::string& fp, const std::filesystem::path& file) {
    const auto values = split_fields(fp, '|');
    std::uint64_t n = 1;
    try {
        for (std::size_t i = 1; i <= 3; ++i) {
            const std::uint64_t f = core::parse_checked_u64(
                "grid size slot " + std::to_string(i), i < values.size() ? values[i] : "", 1,
                UINT32_MAX);
            if (__builtin_mul_overflow(n, f, &n)) {
                throw core::parse_error("fingerprint", fp, "epoch grid overflows");
            }
        }
    } catch (const core::parse_error& e) {
        throw dataset_error(file, 0, 0, std::string("checkpoint fingerprint: ") + e.what());
    }
    return n;
}

}  // namespace

std::vector<fingerprint_field> campaign_fingerprint_fields(const campaign_config& cfg) {
    // v2: every double goes through hexd so the identity string is a pure
    // function of the config bits, not of decimal formatting. A fingerprint
    // is compared for equality (and positionally diffed on mismatch); only
    // its grid-size slots are ever read back (to bound a checkpoint's
    // total), so the version bump simply refuses to resume checkpoints
    // written by older binaries. The value serialization here must never
    // change without bumping the version field.
    std::vector<fingerprint_field> f;
    f.push_back({"version", "v2"});
    f.push_back({"paths", std::to_string(cfg.paths)});
    f.push_back({"traces_per_path", std::to_string(cfg.traces_per_path)});
    f.push_back({"epochs_per_trace", std::to_string(cfg.epochs_per_trace)});
    f.push_back({"seed", std::to_string(cfg.seed)});
    f.push_back({"second_set", std::to_string(cfg.second_set ? 1 : 0)});
    f.push_back({"faults", cfg.faults.spec()});
    f.push_back({"epoch.warmup_s", hexd(cfg.epoch.warmup.value())});
    f.push_back({"epoch.transfer_s", hexd(cfg.epoch.transfer.value())});
    f.push_back({"epoch.during_ping_interval_s",
                 hexd(cfg.epoch.during_ping_interval.value())});
    f.push_back({"epoch.large_window_bytes",
                 std::to_string(cfg.epoch.large_window_bytes)});
    f.push_back({"epoch.small_window_bytes",
                 std::to_string(cfg.epoch.small_window_bytes)});
    f.push_back({"epoch.run_small_window",
                 std::to_string(cfg.epoch.run_small_window ? 1 : 0)});
    f.push_back({"epoch.run_pathload", std::to_string(cfg.epoch.run_pathload ? 1 : 0)});
    f.push_back({"epoch.prior_ping.count", std::to_string(cfg.epoch.prior_ping.count)});
    f.push_back({"epoch.prior_ping.interval_s",
                 hexd(cfg.epoch.prior_ping.interval.value())});
    f.push_back({"epoch.pathload_max_rate_factor",
                 hexd(cfg.epoch.pathload_max_rate_factor)});
    f.push_back({"epoch.hard_cap_s", hexd(cfg.epoch.hard_cap.value())});
    for (std::size_t i = 0; i < cfg.epoch.prefix_s.size(); ++i) {
        f.push_back({"epoch.prefix_s[" + std::to_string(i) + "]",
                     "px" + hexd(cfg.epoch.prefix_s[i])});
    }
    return f;
}

std::string campaign_fingerprint(const campaign_config& cfg) {
    // Byte-compatible with the pre-field-diff v2 format: exactly the
    // '|'-join of the field values. (The old direct stream emitted bools as
    // 0/1 via operator<<, which to_string reproduces.)
    std::ostringstream os;
    bool first = true;
    for (const fingerprint_field& f : campaign_fingerprint_fields(cfg)) {
        if (!first) os << '|';
        os << f.value;
        first = false;
    }
    return os.str();
}

std::string describe_fingerprint_mismatch(const std::string& in_checkpoint,
                                          const std::string& requested) {
    const auto old_f = split_fields(in_checkpoint, '|');
    const auto new_f = split_fields(requested, '|');
    // Slot names come from the schema itself; slots past its fixed fields
    // are the variable-length prefix list.
    const campaign_config defaults;
    const auto schema = campaign_fingerprint_fields(defaults);
    const std::size_t n_fixed = schema.size() - defaults.epoch.prefix_s.size();
    const auto name_of = [&](std::size_t i) {
        return i < n_fixed ? schema[i].name
                           : "epoch.prefix_s[" + std::to_string(i - n_fixed) + "]";
    };
    std::ostringstream os;
    const std::size_t n = std::max(old_f.size(), new_f.size());
    for (std::size_t i = 0; i < n; ++i) {
        const std::string old_v = i < old_f.size() ? old_f[i] : "<absent>";
        const std::string new_v = i < new_f.size() ? new_f[i] : "<absent>";
        if (old_v == new_v) continue;
        os << "\n  " << name_of(i) << ": checkpoint=" << old_v
           << " requested=" << new_v;
    }
    if (os.str().empty()) return "\n  (fingerprints differ only in field count)";
    return os.str();
}

void save_checkpoint(const std::filesystem::path& file, const std::string& fingerprint,
                     const std::vector<char>& done,
                     const std::vector<epoch_record>& records) {
    TCPPRED_EXPECTS(records.size() == done.size());
    record_writer writer(file, fingerprint, {}, {}, &done);
    for (std::size_t i = 0; i < done.size(); ++i) {
        if (done[i]) writer.append(records[i]);
    }
    writer.finish();
}

void save_checkpoint(const campaign_checkpoint& ck, const std::filesystem::path& file) {
    TCPPRED_EXPECTS(ck.done.size() == ck.total);
    save_checkpoint(file, ck.fingerprint, ck.done, ck.records);
}

void check_checkpoint(const record_reader& reader, const std::filesystem::path& file,
                      const std::string& expected_fingerprint) {
    if (!reader.done_total()) {
        throw dataset_error(file, 0, 0, "record store is not a checkpoint (no done bitmap)");
    }
    if (!expected_fingerprint.empty() && reader.fingerprint() != expected_fingerprint) {
        throw dataset_error(
            file, 0, 0,
            "checkpoint belongs to a different campaign config (fingerprint "
            "mismatch) — refusing to resume; differing fields:" +
                describe_fingerprint_mismatch(reader.fingerprint(), expected_fingerprint));
    }
    const std::uint64_t want = fingerprint_epochs(reader.fingerprint(), file);
    if (*reader.done_total() != want) {
        throw dataset_error(file, 0, 0,
                            "checkpoint total " + std::to_string(*reader.done_total()) +
                                " disagrees with the campaign's " + std::to_string(want) +
                                " epochs");
    }
}

campaign_checkpoint load_checkpoint(std::istream& in, const std::filesystem::path& context,
                                    const std::string& expected_fingerprint) {
    record_reader reader(in, context);
    check_checkpoint(reader, context, expected_fingerprint);
    campaign_checkpoint ck;
    ck.fingerprint = reader.fingerprint();
    ck.total = *reader.done_total();
    ck.done.assign(ck.total, 0);
    ck.records.resize(ck.total);
    for (std::size_t i = 0; i < ck.total; ++i) {
        if (!reader.done(i)) continue;
        ck.done[i] = 1;
        const bool got = reader.next(ck.records[i]);  // the reader checked popcount == records
        TCPPRED_ASSERT(got);
    }
    return ck;
}

std::optional<campaign_checkpoint> load_checkpoint(
    const std::filesystem::path& file, const std::string& expected_fingerprint) {
    // Missing (or unreadable) file means "no checkpoint yet", not an error.
    std::ifstream in(file, std::ios::binary);
    if (!in) return std::nullopt;
    return load_checkpoint(in, file, expected_fingerprint);
}

}  // namespace tcppred::testbed
