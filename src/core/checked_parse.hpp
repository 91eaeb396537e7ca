// Checked numeric parsing for every operator-facing knob: CLI flag values,
// environment variables, and daemon request fields share one strict parser,
// so "--paths foo", "REPRO_JOBS=banana" and "--jobs -3" fail loudly with a
// diagnostic naming the knob instead of silently becoming 0 (the std::atoi
// behaviour this replaces — PR 10's hardened-input sweep).
//
// Contract (mirrors predictor_spec_error): every rejection throws
// parse_error, a typed std::invalid_argument carrying the knob name and the
// offending text; tools map it to exit code 2 with the message on stderr.
// Accepted inputs parse the ENTIRE token — trailing garbage ("12x"), empty
// strings, overflow, and out-of-range values are all errors, never a
// truncated or defaulted number.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tcppred::core {

/// Thrown on any malformed or out-of-range knob value. `knob()` is the flag
/// or environment variable the value was given for (e.g. "--paths",
/// "REPRO_JOBS"); `text()` is the rejected input.
class parse_error : public std::invalid_argument {
public:
    parse_error(std::string knob, std::string text, const std::string& reason)
        : std::invalid_argument("bad value for " + knob + ": \"" + text + "\" (" +
                                reason + ")"),
          knob_(std::move(knob)),
          text_(std::move(text)) {}

    [[nodiscard]] const std::string& knob() const noexcept { return knob_; }
    [[nodiscard]] const std::string& text() const noexcept { return text_; }

private:
    std::string knob_;
    std::string text_;
};

/// Parse `text` as a decimal integer in [min, max]. Rejects empty input,
/// non-digit characters (including trailing garbage and internal spaces),
/// overflow, and values outside the range. A leading '-' is accepted
/// syntactically so "-3" is reported as out-of-range for a positive knob,
/// not as a malformed number.
[[nodiscard]] std::int64_t parse_checked_int(std::string_view knob, std::string_view text,
                                             std::int64_t min, std::int64_t max);

/// Same contract for unsigned 64-bit knobs (seeds). Rejects '-' outright.
[[nodiscard]] std::uint64_t parse_checked_u64(std::string_view knob,
                                              std::string_view text, std::uint64_t min,
                                              std::uint64_t max);

/// Parse `text` as a finite double in [min, max]. Accepts everything strtod
/// does (decimal, scientific, hexfloat — the repo's bit-exact interchange
/// format), but the whole token must parse and the result must be finite.
[[nodiscard]] double parse_checked_double(std::string_view knob, std::string_view text,
                                          double min, double max);

/// Parse `text` as exactly one of `choices` (case-sensitive, whole token)
/// and return its index in the list. The rejection names every choice.
[[nodiscard]] std::size_t parse_checked_choice(std::string_view knob, std::string_view text,
                                               const std::vector<std::string_view>& choices);

}  // namespace tcppred::core
