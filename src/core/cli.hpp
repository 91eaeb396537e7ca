// One declarative flag table per command-line tool (DESIGN.md §18): its
// entries drive parsing through core/checked_parse.hpp, the generated usage
// text and tcppred_campaign's worker command line. Rules that span flags
// and environment fallbacks stay ordinary code in the tool, after parse().
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/checked_parse.hpp"

namespace tcppred::core::cli {

/// Stores one flag's value: `binder(flag, value)` parses `value` into the
/// bound destination, throwing parse_error naming `flag` when it is
/// malformed. A switch is called with an empty value.
using binder = std::function<void(const std::string& flag, const std::string& value)>;

/// One table entry. The flag takes a value exactly when `metavar` (its
/// name in the usage: "N", "FILE") is non-empty; `help` may span several
/// lines ('\n').
struct flag {
    std::string name;
    std::string metavar;
    std::string help;
    binder bind;
};

/// One flag as parse() consumed it: the value is absent for a switch.
struct token {
    std::string flag;
    std::optional<std::string> value;
};

class table {
public:
    /// `synopsis` follows the program name on the usage line; each '\n'
    /// starts an alternative form. A duplicate flag name throws
    /// contract_violation.
    table(std::string synopsis, std::vector<flag> flags);

    /// Accept one positional argument (a token not starting with '-') into
    /// `dest`; without this, such a token is an unknown argument.
    table& positional(std::string& dest);

    /// The usage text for program `prog`, generated from the entries.
    [[nodiscard]] std::string usage(std::string_view prog) const;

    /// Parse argv[1..argc) into the bound destinations. Returns nullopt to
    /// go on, else the exit code: 0 after --help/-h; 1 for an unknown flag,
    /// an extra positional argument or a missing value; 2 for a malformed
    /// value (the parse_error names the flag). Usage goes to stderr.
    [[nodiscard]] std::optional<int> parse(int argc, const char* const* argv);

    /// The flags parse() consumed, in command-line order.
    [[nodiscard]] const std::vector<token>& consumed() const noexcept { return consumed_; }

private:
    std::string synopsis_;
    std::vector<flag> flags_;
    std::string* positional_{nullptr};
    std::vector<token> consumed_;
};

/// The value a destination stores: T for T and for std::optional<T> (an
/// optional destination records whether the flag was given).
template <class T> struct value_of { using type = T; };
template <class T> struct value_of<std::optional<T>> { using type = T; };
template <class T> using value_t = typename value_of<T>::type;

/// Decimal integer in [min, max].
template <class T>
binder integer(T& dest, std::int64_t min, std::int64_t max) {
    return [&dest, min, max](const std::string& f, const std::string& v) {
        dest = static_cast<value_t<T>>(parse_checked_int(f, v, min, max));
    };
}

/// Unsigned 64-bit integer in [min, max].
template <class T>
binder u64(T& dest, std::uint64_t min, std::uint64_t max) {
    return [&dest, min, max](const std::string& f, const std::string& v) {
        dest = parse_checked_u64(f, v, min, max);
    };
}

/// Finite double in [min, max].
template <class T>
binder real(T& dest, double min, double max) {
    return [&dest, min, max](const std::string& f, const std::string& v) {
        dest = parse_checked_double(f, v, min, max);
    };
}

/// Exactly one of the option names; stores the paired value.
template <class T>
binder choice(T& dest, std::vector<std::pair<std::string, value_t<T>>> options) {
    return [&dest, options = std::move(options)](const std::string& f,
                                                 const std::string& v) {
        std::vector<std::string_view> names;
        for (const auto& o : options) names.emplace_back(o.first);
        dest = options[parse_checked_choice(f, v, names)].second;
    };
}

/// Any text, stored as given (file names, specs parsed later).
template <class T>
binder text(T& dest) {
    return [&dest](const std::string&, const std::string& v) { dest = v; };
}

/// A switch: sets `dest` to true.
binder set(bool& dest);

/// A comma-separated list replacing `dest`. An empty item ("a,,b", "a,")
/// or an empty list is a malformed value.
binder list(std::vector<std::string>& dest);

}  // namespace tcppred::core::cli
