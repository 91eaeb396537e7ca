#include "serve/snapshot.hpp"

#include <fstream>
#include <sstream>
#include <vector>

#include "core/checked_parse.hpp"
#include "core/hexfloat.hpp"
#include "obs/counters.hpp"
#include "testbed/dataset.hpp"
#include "testbed/record_codec.hpp"

namespace tcppred::serve {

namespace {

constexpr const char* k_magic = "tcppred-serve-snapshot,v1";

std::vector<std::string> split(const std::string& line, char sep) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = line.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, pos - start));
        start = pos + 1;
    }
}

[[noreturn]] void bad(const std::filesystem::path& file, std::size_t line_no,
                      const std::string& reason) {
    throw testbed::dataset_error(file, line_no, 0, reason);
}

}  // namespace

std::string join_specs(const std::vector<std::string>& specs) {
    std::string out;
    for (std::size_t j = 0; j < specs.size(); ++j) {
        if (j != 0) out += ';';
        out += specs[j];
    }
    return out;
}

std::string render_snapshot(const path_table& table) {
    std::ostringstream out;
    out << k_magic << '\n';
    out << "specs," << join_specs(table.specs()) << '\n';

    // Two passes under one visit: count first, then body — visit_sorted
    // holds every shard lock, so both passes see the same table.
    std::uint64_t total = 0;
    std::ostringstream body;
    std::size_t paths = 0;
    table.visit_sorted([&](const std::string& name, const path_state& st) {
        ++paths;
        body << "path," << name << ',' << st.log.size() << '\n';
        for (const observation& ev : st.log) {
            body << "ev," << ev.epoch << ',' << core::hexd(ev.avail_bw_bps) << ','
                 << core::hexd(ev.phat) << ',' << core::hexd(ev.phat_events)
                 << ',' << core::hexd(ev.that_s) << ','
                 << core::hexd(ev.r_large_bps) << ',' << ev.fault_flags << '\n';
            ++total;
        }
    });
    out << "paths," << paths << '\n';
    out << body.str();
    out << "end," << total << '\n';
    return out.str();
}

void write_snapshot(const path_table& table, const std::filesystem::path& file) {
    static const obs::counter c_written = obs::counter::get("serve.snapshots_written");
    testbed::atomic_write_text(file, render_snapshot(table));
    c_written.add();
}

snapshot_stats load_snapshot(path_table& table, const std::filesystem::path& file) {
    std::ifstream in(file);
    if (!in) bad(file, 0, "cannot open snapshot");

    std::string line;
    std::size_t line_no = 0;
    const auto next_line = [&]() -> bool {
        if (!std::getline(in, line)) return false;
        ++line_no;
        return true;
    };

    if (!next_line() || line != k_magic) bad(file, 1, "not a serve snapshot (bad magic)");
    if (!next_line() || line.rfind("specs,", 0) != 0) bad(file, line_no, "missing specs line");
    const std::string want = join_specs(table.specs());
    const std::string got = line.substr(6);
    if (got != want) {
        bad(file, line_no,
            "spec list mismatch: snapshot has \"" + got + "\", this daemon serves \"" +
                want + "\" — refusing to resume");
    }
    if (!next_line() || line.rfind("paths,", 0) != 0) bad(file, line_no, "missing paths line");
    std::size_t paths_declared = 0;
    try {
        paths_declared = static_cast<std::size_t>(
            core::parse_checked_u64("paths", line.substr(6), 0, 1ULL << 32));
    } catch (const core::parse_error& e) {
        bad(file, line_no, e.what());
    }

    snapshot_stats stats;
    std::string current_path;
    std::uint64_t remaining = 0;  // events still expected for current_path
    bool saw_end = false;
    while (next_line()) {
        if (line.rfind("path,", 0) == 0) {
            if (remaining != 0) bad(file, line_no, "path starts before previous one's events end");
            const std::vector<std::string> f = split(line, ',');
            if (f.size() != 3) bad(file, line_no, "malformed path line");
            if (!valid_path_name(f[1])) bad(file, line_no, "illegal path name");
            current_path = f[1];
            try {
                remaining = core::parse_checked_u64("events", f[2], 0, 1ULL << 40);
            } catch (const core::parse_error& e) {
                bad(file, line_no, e.what());
            }
            ++stats.paths;
        } else if (line.rfind("ev,", 0) == 0) {
            if (current_path.empty() || remaining == 0) {
                bad(file, line_no, "event outside a path block");
            }
            const std::vector<std::string> f = split(line, ',');
            if (f.size() != 8) bad(file, line_no, "malformed event line");
            observation ev;
            try {
                ev.epoch = core::parse_checked_int("epoch", f[1], 0, std::int64_t{1} << 40);
                ev.fault_flags = static_cast<std::uint32_t>(
                    core::parse_checked_u64("flags", f[7], 0, 0xffffffffULL));
                ev.avail_bw_bps = core::parse_hexd("availbw", f[2]);
                ev.phat = core::parse_hexd("phat", f[3]);
                ev.phat_events = core::parse_hexd("phat_events", f[4]);
                ev.that_s = core::parse_hexd("that_s", f[5]);
                ev.r_large_bps = core::parse_hexd("r_large", f[6]);
            } catch (const core::parse_error& e) {
                bad(file, line_no, e.what());
            }
            // Replay through the live apply path: predict-then-observe, so
            // restored state is bitwise what the writer held.
            table.observe(current_path, ev);
            --remaining;
            ++stats.events;
        } else if (line.rfind("end,", 0) == 0) {
            if (remaining != 0) bad(file, line_no, "end before last path's events");
            std::uint64_t declared = 0;
            try {
                declared = core::parse_checked_u64("end", line.substr(4), 0, 1ULL << 40);
            } catch (const core::parse_error& e) {
                bad(file, line_no, e.what());
            }
            if (declared != stats.events) {
                bad(file, line_no, "event count mismatch (truncated snapshot?)");
            }
            saw_end = true;
            break;
        } else if (line.empty()) {
            bad(file, line_no, "unexpected blank line");
        } else {
            bad(file, line_no, "unrecognized line");
        }
    }
    if (!saw_end) bad(file, line_no, "snapshot has no end marker (truncated?)");
    if (stats.paths != paths_declared) {
        bad(file, line_no, "path count mismatch (truncated snapshot?)");
    }
    return stats;
}

}  // namespace tcppred::serve
