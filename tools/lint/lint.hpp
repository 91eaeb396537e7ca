// tcppred_lint — repo-specific static analysis for the determinism,
// layering, units and output-hygiene invariants (DESIGN.md §14).
//
// This is deliberately a lexical linter, not a compiler plugin: every rule
// it enforces is a *textual* contract of this repository (banned
// identifiers, include edges, naming-convention boundaries), so a
// comment/string-aware token scan is both sufficient and fast, and the
// binary builds in seconds with no LLVM dependency. Type-level enforcement
// (narrowing, use-after-move, ...) stays with clang-tidy; tcppred_lint
// covers what no off-the-shelf tool can know about this codebase.
//
// Rule catalogue (stable IDs — tests and allowlists key on these):
//   det-rng            std::random_device / rand / srand / drand48: all
//                      randomness must come from sim/rng.hpp seeded streams.
//                      Under src/ also <random>, std::mt19937*, std::
//                      *_distribution and generate_canonical, whose
//                      algorithms belong to the standard library.
//   det-clock          wall clocks (time(), *_clock, gettimeofday, ...):
//                      simulated time only; real time lives in obs/.
//   det-env            getenv outside the blessed config-from-env modules:
//                      hidden inputs break replayability.
//   det-thread         std::thread / jthread / async / pthread_create
//                      outside sim/thread_pool and the trace drain thread.
//   det-unordered-iter iteration over std::unordered_{map,set}: the order
//                      is implementation-defined, so any accumulation or
//                      serialization over it is nondeterministic.
//   ser-hexfloat       in serialization modules, doubles must cross the
//                      text boundary through the hexfloat/shortest-round-
//                      trip helpers, never bare operator<< or setprecision.
//   units-boundary     public-header double parameters/members named like a
//                      dimensioned quantity (rtt/loss/bw/timeout/...) must
//                      be core::units strong types or carry a unit suffix.
//   layer-include      first-party includes must follow the module DAG
//                      declared in the config ("layer" directives).
//
// Suppression, most specific first:
//   - inline, same line or the line above:
//       // tcppred-lint: allow(rule-id[,rule-id...]): reason
//   - config file: `allow <rule-id> <path-glob>` (reason as a # comment).
#pragma once

#include <cstddef>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace tcppred::lint {

struct finding {
    std::string file;  ///< repo-relative path
    std::size_t line{0};
    std::string rule;
    std::string message;
};

/// Parsed `tcppred_lint.conf`. See parse_config() for the directive grammar.
struct config {
    /// module -> allowed first-party include modules ("*" = anything).
    /// A module's own name is always an implied allowed target.
    std::map<std::string, std::set<std::string>> layers;
    /// repo-relative path prefix -> module name ("module" directives).
    /// Longest matching prefix wins; carves a sub-module with its own layer
    /// entry out of a parent directory (src/testbed/record_store.* lints as
    /// "store", not "testbed").
    std::vector<std::pair<std::string, std::string>> modules;
    /// rule id -> repo-relative path globs exempt from that rule.
    std::map<std::string, std::vector<std::string>> allows;
    /// Files holding the ser-hexfloat contract (repo-relative paths).
    std::set<std::string> serialization_files;
    /// Globs never walked at all (fixtures, corpora, compile-fail probes).
    std::vector<std::string> skips;

    /// The module a path belongs to per the "module" directives, or "" when
    /// no prefix matches (use the path-derived default).
    [[nodiscard]] std::string module_override(const std::string& rel_path) const;
};

/// One source file prepared for rule scans.
struct source_file {
    std::string rel_path;            ///< repo-relative, '/'-separated
    std::string module;              ///< "core", "sim", ..., "tools", "tests"
    bool is_header{false};
    std::vector<std::string> lines;  ///< comments/strings blanked, 0-based
    /// line (0-based) -> rule ids suppressed by an inline pragma there.
    std::map<std::size_t, std::set<std::string>> pragmas;
};

// --- lint_config.cpp -------------------------------------------------------

/// Shell-style glob match ('*' spans path separators, '?' one char).
[[nodiscard]] bool glob_match(const std::string& pattern, const std::string& path);

/// Parse the rule table. Throws std::runtime_error with file:line context on
/// unknown directives or unknown rule IDs (config typos must not silently
/// disable a rule).
[[nodiscard]] config parse_config(const std::filesystem::path& file);

/// -I include directories mined from compile_commands.json (crude but
/// sufficient: cmake writes plain absolute paths). Missing/unparsable file
/// yields an empty list; the caller decides whether that is fatal.
[[nodiscard]] std::vector<std::filesystem::path> include_dirs_from_compile_commands(
    const std::filesystem::path& file);

/// All known rule IDs, for --list-rules and config validation.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& rule_catalog();

// --- lint_rules.cpp --------------------------------------------------------

/// Blank comments and string/char literals (preserving line structure and
/// preprocessor lines) and collect inline allow-pragmas.
[[nodiscard]] source_file prepare_source(const std::string& rel_path,
                                         const std::string& text);

/// Run every rule over one prepared file. `include_dirs` resolves quoted
/// includes for layer-include existence checking.
[[nodiscard]] std::vector<finding> lint_file(
    const source_file& src, const config& cfg,
    const std::vector<std::filesystem::path>& include_dirs);

}  // namespace tcppred::lint
