// Bit-exact double <-> text, shared by every bit-exact format (record stores
// and checkpoints, serve snapshots and replies). Decimal at any precision
// does not guarantee the round trip; "%a" hexfloat does, and strtod parses it
// back everywhere (istream extraction of hexfloat does not in libstdc++).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/checked_parse.hpp"

namespace tcppred::core {

[[nodiscard]] inline std::string hexd(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/// Parse a hexd()-formatted field back to the identical double. NaN and
/// infinities are legal; anything but hexd()'s own bytes for the value read
/// (leading whitespace, decimal, uppercase, "infinity", NaN payloads, ...)
/// throws parse_error naming `knob`, like the other checked parsers, so each
/// double has exactly one accepted encoding.
[[nodiscard]] inline double parse_hexd(std::string_view knob, const std::string& s) {
    // Re-encoding catches every other form, trailing bytes and unparsable
    // text included; a stack buffer keeps the check off the heap.
    const double v = std::strtod(s.c_str(), nullptr);
    char canonical[64];
    std::snprintf(canonical, sizeof(canonical), "%a", v);
    if (s != canonical) {
        throw parse_error(std::string(knob), s, "expected a float");
    }
    return v;
}

}  // namespace tcppred::core
