#include "core/cli.hpp"

#include <algorithm>
#include <cstdio>

#include "core/contracts.hpp"

namespace tcppred::core::cli {

namespace {

/// Calls fn on each `sep`-separated piece of `text` (an empty text is one
/// empty piece).
template <class Fn>
void split(std::string_view text, char sep, Fn fn) {
    for (std::size_t from = 0; from <= text.size();) {
        const std::size_t end = std::min(text.find(sep, from), text.size());
        fn(text.substr(from, end - from));
        from = end + 1;
    }
}

}  // namespace

table::table(std::string synopsis, std::vector<flag> flags)
    : synopsis_(std::move(synopsis)), flags_(std::move(flags)) {
    // Checked in every build type: a table is built once per process, and a
    // duplicate would silently shadow the second entry.
    for (std::size_t i = 0; i < flags_.size(); ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            if (flags_[j].name == flags_[i].name) {
                throw contract_violation("cli flag declared twice: " + flags_[i].name);
            }
        }
    }
}

table& table::positional(std::string& dest) {
    positional_ = &dest;
    return *this;
}

std::string table::usage(std::string_view prog) const {
    std::string out;
    std::string_view lead = "usage: ";
    split(synopsis_, '\n', [&](std::string_view form) {
        out.append(lead).append(prog).append(1, ' ').append(form).append(1, '\n');
        lead = "       ";
    });
    const auto label = [](const flag& f) {
        return f.metavar.empty() ? f.name : f.name + ' ' + f.metavar;
    };
    std::size_t width = 0;
    for (const flag& f : flags_) width = std::max(width, label(f).size());
    for (const flag& f : flags_) {
        std::string line = "  " + label(f);
        line.resize(width + 4, ' ');
        split(f.help, '\n', [&](std::string_view help) {
            out.append(line).append(help).append(1, '\n');
            line.assign(width + 4, ' ');
        });
    }
    return out;
}

std::optional<int> table::parse(int argc, const char* const* argv) {
    consumed_.clear();
    const std::string_view prog = argc > 0 ? argv[0] : "";
    const auto stop = [&](const std::string& message, int code) {
        std::fprintf(stderr, "%s\n%s", message.c_str(), usage(prog).c_str());
        return code;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage(prog).c_str(), stderr);
            return 0;
        }
        const auto it = std::find_if(flags_.begin(), flags_.end(),
                                     [&](const flag& f) { return f.name == arg; });
        if (it == flags_.end()) {
            if (positional_ == nullptr || (!arg.empty() && arg[0] == '-')) {
                return stop("unknown argument: " + arg, 1);
            }
            if (!positional_->empty()) return stop("unexpected extra argument: " + arg, 1);
            *positional_ = arg;
            continue;
        }
        token t{arg, std::nullopt};
        if (!it->metavar.empty()) {
            if (i + 1 >= argc) return stop("missing value for " + arg, 1);
            t.value = argv[++i];
        }
        try {
            it->bind(arg, t.value.value_or(""));
        } catch (const parse_error& e) {
            return stop(e.what(), 2);
        }
        consumed_.push_back(std::move(t));
    }
    return std::nullopt;
}

binder set(bool& dest) {
    return [&dest](const std::string&, const std::string&) { dest = true; };
}

binder list(std::vector<std::string>& dest) {
    return [&dest](const std::string& f, const std::string& v) {
        std::vector<std::string> items;
        split(v, ',', [&](std::string_view item) {
            if (item.empty()) throw parse_error(f, v, "empty item in comma list");
            items.emplace_back(item);
        });
        dest = std::move(items);
    };
}

}  // namespace tcppred::core::cli
