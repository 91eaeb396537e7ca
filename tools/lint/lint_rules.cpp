#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <regex>
#include <sstream>

namespace tcppred::lint {

namespace {

bool is_word(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Pull every `tcppred-lint: allow(a,b): reason` out of one comment.
void collect_pragmas(const std::string& comment, std::size_t line,
                     std::map<std::size_t, std::set<std::string>>& pragmas) {
    static const std::regex re(R"(tcppred-lint:\s*allow\(([^)]*)\))");
    for (auto it = std::sregex_iterator(comment.begin(), comment.end(), re);
         it != std::sregex_iterator(); ++it) {
        std::istringstream rules((*it)[1].str());
        std::string id;
        while (std::getline(rules, id, ',')) {
            id.erase(std::remove_if(id.begin(), id.end(),
                                    [](unsigned char c) { return std::isspace(c); }),
                     id.end());
            if (!id.empty()) pragmas[line].insert(id);
        }
    }
}

std::string module_of(const std::string& rel_path) {
    // src/<mod>/... lints as <mod>; anything else (tools/, tests/, bench/,
    // examples/) lints as its top directory.
    std::size_t start = 0;
    if (rel_path.rfind("src/", 0) == 0) start = 4;
    const auto slash = rel_path.find('/', start);
    if (slash == std::string::npos) return rel_path.substr(start);
    return rel_path.substr(start, slash - start);
}

}  // namespace

source_file prepare_source(const std::string& rel_path, const std::string& text) {
    source_file out;
    out.rel_path = rel_path;
    out.module = module_of(rel_path);
    out.is_header = rel_path.ends_with(".hpp") || rel_path.ends_with(".h");

    // One pass: blank comments and string/char literals with spaces so that
    // banned tokens inside them never match, collecting allow-pragmas from
    // the comment text as it goes. Preprocessor lines are kept verbatim
    // (minus comments) so `#include "..."` survives for the layering rule.
    std::string code;
    code.reserve(text.size());
    enum class st { normal, line_comment, block_comment, dquote, squote, raw };
    st state = st::normal;
    std::string comment;          // text of the comment being scanned
    std::size_t comment_line = 0;
    std::string raw_close;        // )delim" of an active raw string
    bool preprocessor = false;    // current line started with '#'
    bool line_has_code = false;
    std::size_t line = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        if (c == '\n') {
            if (state == st::line_comment) {
                collect_pragmas(comment, comment_line, out.pragmas);
                comment.clear();
                state = st::normal;
            }
            code += '\n';
            ++line;
            preprocessor = false;
            line_has_code = false;
            continue;
        }
        switch (state) {
            case st::normal:
                if (!line_has_code && c == '#') preprocessor = true;
                if (c == '/' && next == '/') {
                    state = st::line_comment;
                    comment_line = line;
                    code += "  ";
                    ++i;
                } else if (c == '/' && next == '*') {
                    state = st::block_comment;
                    comment_line = line;
                    code += "  ";
                    ++i;
                } else if (c == 'R' && next == '"' && (i == 0 || !is_word(text[i - 1]))) {
                    const auto paren = text.find('(', i + 2);
                    if (paren != std::string::npos) {
                        raw_close = ")" + text.substr(i + 2, paren - i - 2) + "\"";
                        state = st::raw;
                        code += "  ";
                        i = paren;  // loop's ++i skips the '('
                    } else {
                        code += c;
                    }
                } else if (c == '"' && !preprocessor) {
                    state = st::dquote;
                    code += ' ';
                } else if (c == '\'' && !preprocessor &&
                           (i == 0 || !is_word(text[i - 1]))) {
                    state = st::squote;
                    code += ' ';
                } else {
                    code += c;
                    if (!std::isspace(static_cast<unsigned char>(c))) {
                        line_has_code = true;
                    }
                }
                break;
            case st::line_comment:
                comment += c;
                code += ' ';
                break;
            case st::block_comment:
                if (c == '*' && next == '/') {
                    collect_pragmas(comment, comment_line, out.pragmas);
                    comment.clear();
                    state = st::normal;
                    code += "  ";
                    ++i;
                } else {
                    comment += c;
                    code += ' ';
                }
                break;
            case st::dquote:
                if (c == '\\') {
                    code += "  ";
                    if (next != '\n') ++i;
                } else if (c == '"') {
                    state = st::normal;
                    code += ' ';
                } else {
                    code += ' ';
                }
                break;
            case st::squote:
                if (c == '\\') {
                    code += "  ";
                    if (next != '\n') ++i;
                } else if (c == '\'') {
                    state = st::normal;
                    code += ' ';
                } else {
                    code += ' ';
                }
                break;
            case st::raw:
                if (c == ')' && text.compare(i, raw_close.size(), raw_close) == 0) {
                    // Blank the close marker too, minus embedded newlines.
                    for (std::size_t k = 0; k < raw_close.size(); ++k) code += ' ';
                    i += raw_close.size() - 1;
                    state = st::normal;
                } else {
                    code += ' ';
                }
                break;
        }
    }
    if (state == st::line_comment || state == st::block_comment) {
        collect_pragmas(comment, comment_line, out.pragmas);
    }

    std::istringstream ss(code);
    std::string l;
    while (std::getline(ss, l)) out.lines.push_back(l);
    return out;
}

namespace {

/// Shared per-file scan state so each rule stays a small function.
class scanner {
public:
    scanner(const source_file& src, const config& cfg,
            const std::vector<std::filesystem::path>& include_dirs,
            std::vector<finding>& out)
        : src_(src), cfg_(cfg), include_dirs_(include_dirs), out_(out) {}

    void report(const std::string& rule, std::size_t line0, std::string message) {
        if (suppressed(rule, line0)) return;
        out_.push_back(finding{src_.rel_path, line0 + 1, rule, std::move(message)});
    }

    [[nodiscard]] bool suppressed(const std::string& rule, std::size_t line0) const {
        for (const std::size_t l : {line0, line0 == 0 ? line0 : line0 - 1}) {
            const auto it = src_.pragmas.find(l);
            if (it != src_.pragmas.end() && it->second.count(rule) > 0) return true;
        }
        const auto globs = cfg_.allows.find(rule);
        if (globs != cfg_.allows.end()) {
            for (const auto& g : globs->second) {
                if (glob_match(g, src_.rel_path)) return true;
            }
        }
        return false;
    }

    // --- det-rng / det-clock / det-env / det-thread: banned identifiers ----
    void banned_tokens() {
        struct ban {
            const char* rule;
            const std::regex re;
            const char* what;
            bool src_only{false};  ///< tests/ and bench/ may use it as a reference
        };
        static const std::vector<ban> bans = {
            {"det-rng", std::regex(R"(\brandom_device\b)"),
             "std::random_device — use a sim::rng stream seeded from the campaign seed"},
            {"det-rng", std::regex(R"(\bs?rand\s*\()"),
             "rand()/srand() — use a sim::rng stream seeded from the campaign seed"},
            {"det-rng", std::regex(R"(\bdrand48\b)"),
             "drand48 — use a sim::rng stream seeded from the campaign seed"},
            // <random>'s distributions are library-defined algorithms: a
            // stream drawn through them ties dataset bytes to one standard
            // library. sim/rng.hpp owns the engine and every distribution.
            {"det-rng", std::regex(R"(^\s*#\s*include\s*<random>)"),
             "<random> — sim/rng.hpp owns the engine and distributions", true},
            {"det-rng", std::regex(R"(\bstd\s*::\s*mt19937)"),
             "std::mt19937* — draw from a sim::rng stream (its engine is sim::mt19937_64)", true},
            {"det-rng", std::regex(R"(\bstd\s*::\s*\w+_distribution\b)"),
             "std:: distribution — library-defined algorithm; use sim::rng's", true},
            {"det-rng", std::regex(R"(\bgenerate_canonical\b)"),
             "generate_canonical — library-defined algorithm; use sim::rng::uniform", true},
            {"det-clock", std::regex(R"(\b(system_clock|steady_clock|high_resolution_clock)\b)"),
             "wall clock — simulated time only; real-time measurement belongs in obs/"},
            {"det-clock", std::regex(R"(\b(gettimeofday|clock_gettime|localtime|gmtime)\b)"),
             "wall clock — simulated time only; real-time measurement belongs in obs/"},
            {"det-clock", std::regex(R"(\b(time|clock)\s*\()"),
             "wall clock — simulated time only; real-time measurement belongs in obs/"},
            {"det-env", std::regex(R"(\b(getenv|secure_getenv)\b)"),
             "environment read — only the blessed config-from-env modules may getenv"},
            {"det-thread", std::regex(R"(\bstd\s*::\s*thread\b(?!\s*::))"),
             "thread creation — all parallelism goes through sim/thread_pool"},
            {"det-thread", std::regex(R"(\b(jthread|pthread_create)\b)"),
             "thread creation — all parallelism goes through sim/thread_pool"},
            {"det-thread", std::regex(R"(\bstd\s*::\s*async\s*\()"),
             "thread creation — all parallelism goes through sim/thread_pool"},
        };
        const bool in_src = src_.rel_path.rfind("src/", 0) == 0;
        for (std::size_t l = 0; l < src_.lines.size(); ++l) {
            for (const auto& b : bans) {
                if (b.src_only && !in_src) continue;
                if (std::regex_search(src_.lines[l], b.re)) {
                    report(b.rule, l, b.what);
                }
            }
        }
    }

    // --- det-unordered-iter ------------------------------------------------
    // Track names declared with an unordered type in this file, then flag
    // range-fors and .begin()/.end() walks over them (and over any range
    // expression that itself names an unordered type). Same-file tracking
    // only — cross-TU members are out of lexical reach — but every current
    // serializing/accumulating loop declares its container in-file.
    void unordered_iteration() {
        static const std::regex decl_re(
            R"(\bunordered_(?:multi)?(?:map|set)\s*<)");
        static const std::regex for_re(R"(\bfor\s*\()");
        std::set<std::string> names;
        for (const auto& ln : src_.lines) {
            for (auto it = std::sregex_iterator(ln.begin(), ln.end(), decl_re);
                 it != std::sregex_iterator(); ++it) {
                // Skip the <...> argument list (line-local; a declaration
                // whose template arguments span lines is rare enough to
                // accept the miss — the range-for check below still fires
                // on the literal `unordered` spelling).
                std::size_t i = static_cast<std::size_t>(it->position()) +
                                static_cast<std::size_t>(it->length());
                int depth = 1;
                while (i < ln.size() && depth > 0) {
                    if (ln[i] == '<') ++depth;
                    if (ln[i] == '>') --depth;
                    ++i;
                }
                while (i < ln.size() && (ln[i] == ' ' || ln[i] == '&')) ++i;
                std::size_t start = i;
                while (i < ln.size() && is_word(ln[i])) ++i;
                if (i > start) names.insert(ln.substr(start, i - start));
            }
        }
        for (std::size_t l = 0; l < src_.lines.size(); ++l) {
            const std::string& ln = src_.lines[l];
            std::smatch m;
            if (std::regex_search(ln, m, for_re)) {
                const auto colon = ln.find(':', static_cast<std::size_t>(m.position()));
                if (colon != std::string::npos && colon + 1 < ln.size() &&
                    ln[colon + 1] != ':' && (colon == 0 || ln[colon - 1] != ':')) {
                    std::string range = ln.substr(colon + 1);
                    if (const auto paren = range.rfind(')'); paren != std::string::npos) {
                        range.erase(paren);
                    }
                    if (range.find("unordered_") != std::string::npos ||
                        names_in(range, names)) {
                        report("det-unordered-iter", l,
                               "range-for over an unordered container — "
                               "iteration order is implementation-defined; use an "
                               "ordered container or sort before consuming");
                    }
                }
            }
            for (const auto& name : names) {
                if (ln.find(name + ".begin()") != std::string::npos ||
                    ln.find(name + ".cbegin()") != std::string::npos) {
                    report("det-unordered-iter", l,
                           "iterator walk over unordered container '" + name +
                               "' — iteration order is implementation-defined");
                }
            }
        }
    }

    static bool names_in(const std::string& expr, const std::set<std::string>& names) {
        // The range expression's trailing identifier component (after any
        // `obj.` / `obj->` qualification) is what the declaration tracked.
        std::size_t end = expr.size();
        while (end > 0 && std::isspace(static_cast<unsigned char>(expr[end - 1]))) {
            --end;
        }
        std::size_t start = end;
        while (start > 0 && is_word(expr[start - 1])) --start;
        return end > start && names.count(expr.substr(start, end - start)) > 0;
    }

    // --- ser-hexfloat ------------------------------------------------------
    void serialization_hygiene() {
        if (cfg_.serialization_files.count(src_.rel_path) == 0) return;
        static const std::regex fmt_re(
            R"((\bsetprecision\b|\.\s*precision\s*\(|\bstd::fixed\b|\bstd::scientific\b|\bstd::defaultfloat\b))");
        // A streamed operand that names a double by this repo's conventions:
        // strong-type .value() reads, unit-suffixed fields, or the paper's
        // measurement names.
        static const std::regex double_operand(
            R"(^[A-Za-z_][\w.>\[\]()-]*$)");
        static const std::regex double_name(
            R"((\.value\(\)$|(^|[._])(phat\w*|ptilde|that_s|ttilde\w*|goodputs?|utilization|loss\w*|rtt\w*)$|_(s|bps|bytes|rate|fraction|hz)$))");
        for (std::size_t l = 0; l < src_.lines.size(); ++l) {
            const std::string& ln = src_.lines[l];
            if (std::regex_search(ln, fmt_re)) {
                report("ser-hexfloat", l,
                       "decimal float formatting in a serialization module — "
                       "doubles must round-trip bit-exactly (hexd / "
                       "json_line::num)");
            }
            if (ln.find("<<") == std::string::npos) continue;
            std::size_t pos = 0;
            while (true) {
                const auto op = ln.find("<<", pos);
                if (op == std::string::npos) break;
                std::size_t end = ln.find("<<", op + 2);
                if (end == std::string::npos) end = ln.size();
                std::string operand = ln.substr(op + 2, end - op - 2);
                trim(operand);
                if (const auto semi = operand.find(';'); semi != std::string::npos) {
                    operand.erase(semi);
                    trim(operand);
                }
                pos = op + 2;
                if (operand.empty() || operand.rfind("hexd(", 0) == 0) continue;
                if (operand.ends_with(".size()") || operand.ends_with(".count()")) {
                    continue;
                }
                if (!std::regex_match(operand, double_operand)) continue;
                // Last identifier component decides (m.phat -> "phat").
                std::string last = operand;
                if (const auto dot = last.find_last_of("."); dot != std::string::npos &&
                                                            !last.ends_with(".value()")) {
                    last = last.substr(dot + 1);
                }
                if (std::regex_search(operand, double_name) ||
                    std::regex_search(last, double_name)) {
                    report("ser-hexfloat", l,
                           "double '" + operand +
                               "' streamed with bare operator<< in a "
                               "serialization module — wrap in hexd() or emit "
                               "via json_line::num");
                }
            }
        }
    }

    static void trim(std::string& s) {
        while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
            s.erase(s.begin());
        }
        while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
            s.pop_back();
        }
    }

    // --- units-boundary ----------------------------------------------------
    // Public headers only: a `double` whose name reads like a dimensioned
    // quantity must either be a core::units strong type or carry an explicit
    // unit/dimension suffix (the documented serialization-record convention).
    // Private members (trailing '_') are an implementation detail and exempt.
    void units_boundary() {
        if (!src_.is_header || src_.module == "tests") return;
        static const std::regex decl_re(R"(\bdouble\s+([A-Za-z_]\w*))");
        static const std::regex dimensioned(R"(rtt|loss|bandwidth|timeout|delay)");
        static const std::regex exempt(
            R"((_$|_(s|ms|us|bps|mbps|bytes|rate|fraction|frac|factor|weight|prob|length|count|pkts|hz|events)$|fraction|ratio))");
        for (std::size_t l = 0; l < src_.lines.size(); ++l) {
            const std::string& ln = src_.lines[l];
            for (auto it = std::sregex_iterator(ln.begin(), ln.end(), decl_re);
                 it != std::sregex_iterator(); ++it) {
                const std::string name = (*it)[1].str();
                if (!std::regex_search(name, dimensioned)) continue;
                if (std::regex_search(name, exempt)) continue;
                report("units-boundary", l,
                       "'double " + name +
                           "' names a dimensioned quantity — use a core::units "
                           "strong type (core::seconds, core::bits_per_second, "
                           "core::probability) or a unit-suffixed name");
            }
        }
    }

    // --- layer-include -----------------------------------------------------
    void layering() {
        static const std::regex inc_re(R"re(^\s*#\s*include\s*"([^"]+)")re");
        const auto self = cfg_.layers.find(src_.module);
        for (std::size_t l = 0; l < src_.lines.size(); ++l) {
            std::smatch m;
            if (!std::regex_match(src_.lines[l], m, inc_re)) continue;
            const std::string inc = m[1].str();
            const auto slash = inc.find('/');
            if (slash == std::string::npos) continue;  // same-directory include
            std::string target = inc.substr(0, slash);
            // First-party includes are rooted at src/; a "module" mapping on
            // the included file reassigns it (e.g. testbed/record_store.hpp
            // is module "store").
            if (const std::string ov = cfg_.module_override("src/" + inc);
                !ov.empty()) {
                target = ov;
            }
            if (cfg_.layers.find(target) == cfg_.layers.end()) {
                continue;  // not a first-party module prefix (e.g. vendored)
            }
            if (!include_dirs_.empty()) {
                bool found = false;
                for (const auto& dir : include_dirs_) {
                    std::error_code ec;
                    if (std::filesystem::exists(dir / inc, ec)) {
                        found = true;
                        break;
                    }
                }
                if (!found) {
                    report("layer-include", l,
                           "include \"" + inc +
                               "\" does not resolve in any -I directory of "
                               "compile_commands.json");
                    continue;
                }
            }
            if (target == src_.module) continue;
            if (self == cfg_.layers.end()) {
                report("layer-include", l,
                       "module '" + src_.module +
                           "' is not in the layer table but includes \"" + inc + "\"");
                continue;
            }
            if (self->second.count("*") > 0 || self->second.count(target) > 0) {
                continue;
            }
            report("layer-include", l,
                   "layering violation: '" + src_.module + "' may not include '" +
                       target + "' (\"" + inc + "\"); allowed: {" +
                       join(self->second) + "}");
        }
    }

    static std::string join(const std::set<std::string>& s) {
        std::string out;
        for (const auto& e : s) {
            if (!out.empty()) out += ", ";
            out += e;
        }
        return out;
    }

private:
    const source_file& src_;
    const config& cfg_;
    const std::vector<std::filesystem::path>& include_dirs_;
    std::vector<finding>& out_;
};

}  // namespace

std::vector<finding> lint_file(const source_file& src, const config& cfg,
                               const std::vector<std::filesystem::path>& include_dirs) {
    std::vector<finding> out;
    // "module" directives override the path-derived module (prepare_source
    // has no config, so the reassignment happens here).
    source_file patched;
    const source_file* use = &src;
    if (const std::string ov = cfg.module_override(src.rel_path);
        !ov.empty() && ov != src.module) {
        patched = src;
        patched.module = ov;
        use = &patched;
    }
    scanner sc(*use, cfg, include_dirs, out);
    sc.banned_tokens();
    sc.unordered_iteration();
    sc.serialization_hygiene();
    sc.units_boundary();
    sc.layering();
    std::sort(out.begin(), out.end(), [](const finding& a, const finding& b) {
        if (a.file != b.file) return a.file < b.file;
        if (a.line != b.line) return a.line < b.line;
        return a.rule < b.rule;
    });
    return out;
}

}  // namespace tcppred::lint
