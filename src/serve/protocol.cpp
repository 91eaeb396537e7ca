#include "serve/protocol.hpp"

#include <cmath>
#include <vector>

#include "core/checked_parse.hpp"
#include "core/hexfloat.hpp"

namespace tcppred::serve {

namespace {

bool path_char(char c) noexcept {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '.' || c == '/' || c == ':' || c == '-';
}

/// Split on runs of spaces. Any other control/whitespace byte is rejected
/// up front so a request can never smuggle a newline or NUL into a path.
std::vector<std::string_view> tokenize(std::string_view line) {
    for (const char c : line) {
        if (c == ' ') continue;
        if (static_cast<unsigned char>(c) < 0x21 || static_cast<unsigned char>(c) > 0x7e) {
            throw protocol_error("illegal byte in request line");
        }
    }
    std::vector<std::string_view> toks;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && line[i] == ' ') ++i;
        const std::size_t start = i;
        while (i < line.size() && line[i] != ' ') ++i;
        if (i > start) toks.push_back(line.substr(start, i - start));
    }
    return toks;
}

std::string take_path(std::string_view tok) {
    if (!valid_path_name(tok)) {
        throw protocol_error("illegal path name (want 1.." +
                             std::to_string(k_max_path_bytes) +
                             " chars of [A-Za-z0-9_./:-])");
    }
    return std::string(tok);
}

/// A measurement field: any finite double or NaN (a faulted field), never
/// ±inf. Whole-token or nothing, same as core::parse_checked_double.
double parse_meas(std::string_view field, std::string_view tok) {
    const std::string buf(tok);
    char* end = nullptr;
    const double v = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size() || end == buf.c_str()) {
        throw protocol_error("bad value for " + std::string(field) + ": \"" + buf +
                             "\" (expected a number)");
    }
    if (std::isinf(v)) {
        throw protocol_error("bad value for " + std::string(field) + ": \"" + buf +
                             "\" (must be finite or nan)");
    }
    return v;
}

/// A loss-rate field: as parse_meas, plus the probability invariant — the
/// value feeds core::probability, whose constructor asserts [0,1].
double parse_loss(std::string_view field, std::string_view tok) {
    const double v = parse_meas(field, tok);
    if (!std::isnan(v) && !(v >= 0.0 && v <= 1.0)) {
        throw protocol_error("bad value for " + std::string(field) + ": \"" +
                             std::string(tok) + "\" (loss rate must be in [0,1] or nan)");
    }
    return v;
}

}  // namespace

bool valid_path_name(std::string_view path) noexcept {
    if (path.empty() || path.size() > k_max_path_bytes) return false;
    for (const char c : path) {
        if (!path_char(c)) return false;
    }
    return true;
}

request parse_request_line(std::string_view line) {
    if (line.size() > k_max_line_bytes) throw protocol_error("request line too long");
    const std::vector<std::string_view> toks = tokenize(line);
    if (toks.empty()) throw protocol_error("empty request line");

    request req;
    const std::string_view verb = toks[0];
    try {
        if (verb == "OBSERVE") {
            if (toks.size() != 9) {
                throw protocol_error(
                    "OBSERVE wants 8 fields: <path> <epoch> <availbw> <phat> "
                    "<phat_events> <that_s> <r_large> <flags>");
            }
            req.kind = request_kind::observe;
            req.path = take_path(toks[1]);
            req.obs.epoch = core::parse_checked_int("epoch", toks[2], 0,
                                                    std::int64_t{1} << 40);
            req.obs.avail_bw_bps = parse_meas("availbw", toks[3]);
            req.obs.phat = parse_loss("phat", toks[4]);
            req.obs.phat_events = parse_loss("phat_events", toks[5]);
            req.obs.that_s = parse_meas("that_s", toks[6]);
            req.obs.r_large_bps = parse_meas("r_large", toks[7]);
            req.obs.fault_flags = static_cast<std::uint32_t>(
                core::parse_checked_u64("flags", toks[8], 0, 0xffffffffULL));
        } else if (verb == "PREDICT") {
            if (toks.size() != 3) {
                throw protocol_error("PREDICT wants 2 fields: <path> <spec>");
            }
            req.kind = request_kind::predict;
            req.path = take_path(toks[1]);
            req.spec = std::string(toks[2]);
        } else if (verb == "STATS") {
            if (toks.size() != 1) throw protocol_error("STATS takes no fields");
            req.kind = request_kind::stats;
        } else if (verb == "SNAPSHOT") {
            if (toks.size() != 1) throw protocol_error("SNAPSHOT takes no fields");
            req.kind = request_kind::snapshot;
        } else {
            throw protocol_error("unknown verb (want OBSERVE, PREDICT, STATS or "
                                 "SNAPSHOT)");
        }
    } catch (const core::parse_error& e) {
        throw protocol_error(e.what());
    }
    return req;
}

std::string format_observe(std::string_view path, const observation& obs) {
    std::string out = "OBSERVE ";
    out += path;
    out += ' ';
    out += std::to_string(obs.epoch);
    for (const double v : {obs.avail_bw_bps, obs.phat, obs.phat_events, obs.that_s,
                           obs.r_large_bps}) {
        out += ' ';
        out += core::hexd(v);
    }
    out += ' ';
    out += std::to_string(obs.fault_flags);
    return out;
}

}  // namespace tcppred::serve
