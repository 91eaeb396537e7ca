// perfbench — the benchmark harness. Runs one workload for a fixed time and
// prints, as its last stdout line, one JSON object: correctness, operations
// attempted and failed, and every metric it measured by name and unit.
// run.py builds this binary, selects the metrics BENCHMARK.json names for
// the mode, stamps the result and prints the final line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --serve-bin PATH --work-dir DIR [--corrupt CHECK]
//   perfbench --stamp        compiler, build type, flags and LTO as JSON
//
// --trace 0 measures the end-to-end metrics with spans off. --trace 1 runs
// the workload in alternating untraced and traced slices
// (obs.trace_overhead_pct), then the per-layer suite (layers.cpp), and
// writes the spans to DIR/spans-<workload>.jsonl.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "core/checked_parse.hpp"

namespace {

void print_json(const perfbench::run_result& r) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    bool first = true;
    for (const auto& [name, m] : r.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                    name.c_str(), m.value, m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
    using tcppred::core::parse_checked_int;
    if (argc == 2 && std::string(argv[1]) == "--stamp") {
        // The build half of the result stamp (run.py adds machine and code).
        std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\", \"flags\": \"%s\", "
                    "\"lto\": %s}\n",
                    PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS,
                    PERFBENCH_LTO ? "true" : "false");
        return 0;
    }
    perfbench::options opt;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", arg.c_str());
                return 2;
            }
            const char* val = argv[++i];
            if (arg == "--workload") {
                opt.workload = val;
            } else if (arg == "--seed") {
                opt.seed = tcppred::core::parse_checked_u64(arg, val, 0, ~0ULL);
            } else if (arg == "--seconds") {
                opt.seconds = tcppred::core::parse_checked_double(arg, val, 0.05, 3600.0);
            } else if (arg == "--trace") {
                opt.trace = parse_checked_int(arg, val, 0, 1) == 1;
            } else if (arg == "--serve-bin") {
                opt.serve_bin = val;
            } else if (arg == "--work-dir") {
                opt.work_dir = val;
            } else if (arg == "--corrupt") {
                opt.corrupt = val;
            } else {
                std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
                return 2;
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    perfbench::run_result r;
    try {
        if (opt.trace) perfbench::set_spans_enabled(true);
        if (opt.workload == "campaign_packet") {
            perfbench::run_campaign_workload(opt, false, r);
        } else if (opt.workload == "campaign_fluid") {
            perfbench::run_campaign_workload(opt, true, r);
        } else {
            std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
            return 2;
        }
        if (opt.trace) {
            perfbench::set_spans_enabled(true);
            perfbench::run_layer_suite(opt, r);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    print_json(r);
    return 0;
}
