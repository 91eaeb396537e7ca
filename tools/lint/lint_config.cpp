#include "lint.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace tcppred::lint {

const std::vector<std::pair<std::string, std::string>>& rule_catalog() {
    static const std::vector<std::pair<std::string, std::string>> rules = {
        {"det-rng", "nondeterministic or library-defined randomness (random_device, rand, <random> in src/)"},
        {"det-clock", "wall-clock reads (time(), system/steady clocks) outside obs/"},
        {"det-env", "getenv outside the blessed config-from-env modules"},
        {"det-thread", "ad-hoc thread creation outside sim/thread_pool"},
        {"det-unordered-iter", "iteration over std::unordered_{map,set}"},
        {"ser-hexfloat", "bare double serialization in a hexfloat module"},
        {"units-boundary", "raw double for a dimensioned quantity in a public header"},
        {"layer-include", "include edge outside the declared module DAG"},
    };
    return rules;
}

namespace {

bool known_rule(const std::string& id) {
    for (const auto& [rule, desc] : rule_catalog()) {
        if (rule == id) return true;
    }
    return false;
}

bool glob_match_at(const std::string& pat, std::size_t pi, const std::string& s,
                   std::size_t si) {
    while (pi < pat.size()) {
        const char c = pat[pi];
        if (c == '*') {
            // Collapse consecutive stars, then try every suffix.
            while (pi < pat.size() && pat[pi] == '*') ++pi;
            if (pi == pat.size()) return true;
            for (std::size_t k = si; k <= s.size(); ++k) {
                if (glob_match_at(pat, pi, s, k)) return true;
            }
            return false;
        }
        if (si >= s.size()) return false;
        if (c != '?' && c != s[si]) return false;
        ++pi;
        ++si;
    }
    return si == s.size();
}

}  // namespace

bool glob_match(const std::string& pattern, const std::string& path) {
    return glob_match_at(pattern, 0, path, 0);
}

std::string config::module_override(const std::string& rel_path) const {
    std::string best;
    std::size_t best_len = 0;
    for (const auto& [prefix, name] : modules) {
        if (prefix.size() >= best_len && rel_path.rfind(prefix, 0) == 0) {
            best = name;
            best_len = prefix.size();
        }
    }
    return best;
}

config parse_config(const std::filesystem::path& file) {
    std::ifstream in(file);
    if (!in) {
        throw std::runtime_error("cannot open lint config " + file.string());
    }
    config cfg;
    std::string line;
    std::size_t line_no = 0;
    const auto fail = [&](const std::string& why) {
        throw std::runtime_error(file.string() + ":" + std::to_string(line_no) +
                                 ": " + why);
    };
    while (std::getline(in, line)) {
        ++line_no;
        if (const auto hash = line.find('#'); hash != std::string::npos) {
            line.erase(hash);
        }
        std::istringstream ss(line);
        std::string directive;
        if (!(ss >> directive)) continue;  // blank / comment-only
        if (directive == "layer") {
            std::string module;
            std::string colon;
            if (!(ss >> module) || !(ss >> colon) || colon != ":") {
                fail("expected 'layer <module> : [dep...]'");
            }
            auto& deps = cfg.layers[module];  // creates the (leaf) entry
            std::string dep;
            while (ss >> dep) deps.insert(dep);
        } else if (directive == "allow") {
            std::string rule;
            std::string glob;
            if (!(ss >> rule) || !(ss >> glob)) {
                fail("expected 'allow <rule-id> <path-glob>'");
            }
            if (!known_rule(rule)) fail("unknown rule id '" + rule + "'");
            std::string extra;
            if (ss >> extra) fail("one glob per allow line (got '" + extra + "')");
            cfg.allows[rule].push_back(glob);
        } else if (directive == "module") {
            std::string prefix;
            std::string name;
            if (!(ss >> prefix) || !(ss >> name)) {
                fail("expected 'module <path-prefix> <name>'");
            }
            std::string extra;
            if (ss >> extra) fail("one mapping per module line (got '" + extra + "')");
            cfg.modules.emplace_back(std::move(prefix), std::move(name));
        } else if (directive == "serialization") {
            std::string path;
            if (!(ss >> path)) fail("expected 'serialization <path>'");
            cfg.serialization_files.insert(path);
        } else if (directive == "skip") {
            std::string glob;
            if (!(ss >> glob)) fail("expected 'skip <path-glob>'");
            cfg.skips.push_back(glob);
        } else {
            fail("unknown directive '" + directive + "'");
        }
    }
    if (cfg.layers.empty()) fail("config declares no 'layer' table");
    // A module mapping must target a declared layer, or the override would
    // silently disable layer checking for those files.
    for (const auto& [prefix, name] : cfg.modules) {
        if (cfg.layers.find(name) == cfg.layers.end()) {
            throw std::runtime_error(file.string() + ": module mapping '" + prefix +
                                     "' targets undeclared module '" + name + "'");
        }
    }
    // Every dependency must itself be a declared module (or the wildcard) so
    // a table typo cannot silently open an edge.
    for (const auto& [module, deps] : cfg.layers) {
        for (const auto& dep : deps) {
            if (dep != "*" && cfg.layers.find(dep) == cfg.layers.end()) {
                throw std::runtime_error(file.string() + ": layer '" + module +
                                         "' depends on undeclared module '" + dep +
                                         "'");
            }
        }
    }
    return cfg;
}

std::vector<std::filesystem::path> include_dirs_from_compile_commands(
    const std::filesystem::path& file) {
    std::vector<std::filesystem::path> dirs;
    std::ifstream in(file);
    if (!in) return dirs;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    // cmake emits plain absolute paths after -I (optionally space-separated);
    // that is all this needs — no full JSON parse.
    std::set<std::string> seen;
    for (std::size_t pos = text.find("-I"); pos != std::string::npos;
         pos = text.find("-I", pos + 2)) {
        std::size_t start = pos + 2;
        while (start < text.size() && text[start] == ' ') ++start;
        std::size_t end = start;
        while (end < text.size() && text[end] != ' ' && text[end] != '"' &&
               text[end] != '\\') {
            ++end;
        }
        if (end > start) {
            std::string dir = text.substr(start, end - start);
            if (seen.insert(dir).second) dirs.emplace_back(std::move(dir));
        }
    }
    return dirs;
}

}  // namespace tcppred::lint
