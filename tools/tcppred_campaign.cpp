// tcppred_campaign — run a measurement campaign from the command line and
// write the dataset CSV. The operational entry point for producing new
// datasets without writing C++.
//
//   tcppred_campaign --out data/my.csv [options]   (--help lists the flags)
//
// Multi-process modes (DESIGN.md §15): --workers N supervises N worker
// processes (one shard each) and merges their checkpoints into the CSV;
// --shard i/N runs one shard (what a worker does; its product is the shard
// checkpoint, not a CSV); --merge N merges existing shard checkpoints.
// $REPRO_CHAOS (e.g. kill=0.05,hang=0.01) makes workers crash/wedge on a
// seeded schedule so supervision is testable.
//
// Exit codes: 0 success; 1 usage error (missing --out, an unknown flag or a
// missing value, conflicting modes); 2 a malformed flag value or
// environment knob, or a runtime failure; 130 interrupted (SIGINT;
// progress is checkpointed when enabled).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cli.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace_writer.hpp"
#include "sim/chaos.hpp"
#include "sim/fault_injector.hpp"
#include "testbed/campaign.hpp"
#include "testbed/record_store.hpp"
#include "testbed/shard.hpp"
#include "testbed/supervisor.hpp"

using namespace tcppred::testbed;

namespace {

// SIGINT: stop claiming epochs; the campaign loop flushes a checkpoint and
// the tool exits 130. sig_atomic_t keeps the handler async-signal-safe.
volatile std::sig_atomic_t g_interrupted = 0;
void on_sigint(int) { g_interrupted = 1; }

// Flags that configure this process only. A supervisor's worker command
// line is ours minus these (each worker gets --shard/--jobs/--resume
// appended by the supervisor; traces and metrics stay in this process).
constexpr std::string_view k_process_local[] = {
    "--workers", "--worker-jobs", "--hang-timeout-s", "--max-attempts", "--jobs",
    "--trace",   "--merge",       "--shard",          "--format",       "--convert",
    "--metrics-summary", "--resume"};

}  // namespace

int main(int argc, char** argv) {
    namespace cli = tcppred::core::cli;
    using tcppred::net::cross_model;
    campaign_run_options run_opts;
    std::string out;
    // The campaign shape is applied after parsing, on top of the base
    // config --second-set selects, so flag order does not matter.
    bool second_set = false;
    std::optional<int> paths;
    std::optional<int> traces;
    std::optional<int> epochs;
    std::optional<std::uint64_t> seed;
    std::optional<double> transfer_s;
    std::optional<cross_model> cross;
    const std::vector<std::pair<std::string, cross_model>> cross_models = {
        {"packet", cross_model::packet}, {"fluid", cross_model::fluid}};
    std::optional<int> checkpoint_every;
    int jobs = 0;
    bool metrics_summary = false;
    std::string trace_file;
    int workers = 0;             // > 0 = supervisor mode
    int worker_jobs = 1;
    double hang_timeout_s = 30.0;
    int max_attempts = 50;
    int merge_n = 0;             // > 0 = merge mode
    bool store_mode = false;
    std::string convert_from;    // non-empty = convert mode
    std::optional<shard_ref> shard;  // set = worker mode
    tcppred::sim::fault_profile faults;
    tcppred::sim::chaos_profile chaos;
    int chaos_attempt = 0;
    try {
        faults = tcppred::sim::fault_profile::from_env();
        chaos = tcppred::sim::chaos_profile::from_env();
        // Read eagerly: a garbled $REPRO_CHAOS_ATTEMPT must fail here with
        // the other environment knobs, not throw mid-campaign.
        chaos_attempt = tcppred::sim::chaos_attempt_from_env();
    } catch (const tcppred::core::parse_error& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    cli::table flags(
        "--out FILE [options]",
        {{"--out", "FILE", "output CSV (required)", cli::text(out)},
         {"--paths", "N", "number of paths (default 35)", cli::integer(paths, 1, 1000000)},
         {"--traces", "N", "traces per path (default 2)", cli::integer(traces, 1, 1000000)},
         {"--epochs", "N", "epochs per trace (default 120)",
          cli::integer(epochs, 1, 1000000000)},
         {"--seed", "S", "campaign seed (default 20040501)", cli::u64(seed, 0, UINT64_MAX)},
         {"--transfer-s", "T", "target transfer length (default 10)",
          cli::real(transfer_s, 1e-9, 1e9)},
         {"--second-set", "", "campaign-2 catalogue & plan (the flags above still apply)",
          cli::set(second_set)},
         {"--cross-model", "M", "cross traffic: packet (default), fluid ($REPRO_CROSS_MODEL)",
          cli::choice(cross, cross_models)},
         {"--jobs", "N", "threads; 1 = serial (default $REPRO_JOBS, else all cores)",
          cli::integer(jobs, 0, 4096)},
         {"--faults", "SPEC",
          "measurement-fault rates, e.g. pathload=0.1,abort=0.05 (keys: pathload,\n"
          "ping-timeout, ping-truncate, abort, outage, seed; default $REPRO_FAULTS)",
          [&](const std::string& f, const std::string& v) {
              try {
                  faults = tcppred::sim::fault_profile::parse(v);
              } catch (const std::invalid_argument& e) {
                  throw tcppred::core::parse_error(f, v, e.what());
              }
          }},
         {"--checkpoint-every", "N", "flush FILE.ckpt every N epochs (32 under --resume)",
          cli::integer(checkpoint_every, 1, 1000000000)},
         {"--resume", "", "resume from FILE.ckpt if present", cli::set(run_opts.resume)},
         {"--workers", "N", "supervise N shard worker processes, then merge into FILE",
          cli::integer(workers, 1, 4096)},
         {"--worker-jobs", "N", "threads per worker process (default 1)",
          cli::integer(worker_jobs, 1, 4096)},
         {"--hang-timeout-s", "T", "SIGKILL a worker whose heartbeat stalls this long (30)",
          cli::real(hang_timeout_s, 1e-3, 1e9)},
         {"--max-attempts", "N", "launch attempts per shard (default 50)",
          cli::integer(max_attempts, 1, 1000000000)},
         {"--shard", "i/N", "run shard i of N into FILE.shard-i-of-N.ckpt ($REPRO_CHAOS)",
          [&](const std::string& f, const std::string& v) {
              shard = parse_shard(v);
              if (!shard) throw tcppred::core::parse_error(f, v, "want i/N with 0 <= i < N");
          }},
         {"--merge", "N", "merge shard checkpoints 0..N-1 into FILE",
          cli::integer(merge_n, 1, 1000000)},
         {"--format", "F", "csv (default) or store (chunked record store, DESIGN.md §16)",
          cli::choice(store_mode, {{"csv", false}, {"store", true}})},
         {"--convert", "STORE", "convert a record store to the CSV at --out; no campaign",
          cli::text(convert_from)},
         {"--trace", "FILE", "write a JSONL run trace (also $REPRO_TRACE)",
          cli::text(trace_file)},
         {"--metrics-summary", "", "print counters and timings on exit ($REPRO_METRICS)",
          cli::set(metrics_summary)}});
    if (const auto rc = flags.parse(argc, argv)) return *rc;
    // An empty $REPRO_CROSS_MODEL means unset, as for $REPRO_JOBS.
    if (const char* env = std::getenv("REPRO_CROSS_MODEL");  // NOLINT(concurrency-mt-unsafe)
        !cross && env != nullptr && *env != '\0') {
        try {
            cli::choice(cross, cross_models)("REPRO_CROSS_MODEL", env);
        } catch (const tcppred::core::parse_error& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }
    if (out.empty()) {
        std::fputs(flags.usage(argv[0]).c_str(), stderr);
        return 1;
    }

    campaign_config cfg =
        second_set ? campaign2_config(campaign_scale::normal) : campaign_config{};
    if (paths) cfg.paths = *paths;
    if (traces) cfg.traces_per_path = *traces;
    if (epochs) cfg.epochs_per_trace = *epochs;
    if (seed) cfg.seed = *seed;
    if (transfer_s) cfg.epoch.transfer = tcppred::core::seconds{*transfer_s};
    if (cross) cfg.epoch.cross = *cross;
    cfg.jobs = jobs;
    cfg.faults = faults;
    if (checkpoint_every) run_opts.checkpoint_every = *checkpoint_every;
    bool checkpointing = checkpoint_every || run_opts.resume;
    if ((workers > 0) + (merge_n > 0) + (shard ? 1 : 0) > 1) {
        std::fprintf(stderr, "--workers, --shard and --merge are mutually exclusive\n");
        return 1;
    }
    if (!convert_from.empty() &&
        (workers > 0 || merge_n > 0 || shard || checkpointing)) {
        std::fprintf(stderr,
                     "--convert is a standalone mode (no campaign/shard/merge flags)\n");
        return 1;
    }
    if (store_mode && checkpointing) {
        std::fprintf(stderr,
                     "--format store does not checkpoint (--resume/--checkpoint-every);"
                     " use --workers for crash tolerance\n");
        return 1;
    }
    if (store_mode && shard) {
        std::fprintf(stderr,
                     "--shard writes a shard checkpoint, not a store; use --format "
                     "store on the --workers or --merge side\n");
        return 1;
    }
    if (checkpointing) run_opts.checkpoint = out + ".ckpt";
    if (shard) {
        // Worker mode: claim only our slice; the shard checkpoint is the
        // product (the merge step consumes it), so keep it on completion.
        run_opts.epoch_filter = shard_filter(*shard);
        run_opts.keep_checkpoint = true;
        run_opts.checkpoint = shard_checkpoint_path(out, *shard);
        checkpointing = true;
    }
    if (chaos.enabled() && workers == 0 && merge_n == 0) {
        // Process-level chaos (sim/chaos.hpp): SIGKILL or wedge ourselves
        // just before a planned epoch. Checkpoint every epoch so each
        // attempt's progress survives its planned crash — that is what makes
        // chaos runs converge instead of looping.
        if (checkpointing) run_opts.checkpoint_every = 1;
        const int attempt = chaos_attempt;
        const std::uint64_t chaos_campaign_seed = cfg.seed;
        run_opts.epoch_hook = [chaos, chaos_campaign_seed, attempt](std::size_t idx) {
            switch (tcppred::sim::plan_chaos(chaos, chaos_campaign_seed, attempt, idx)) {
                case tcppred::sim::chaos_action::kill:
                    std::raise(SIGKILL);
                    break;
                case tcppred::sim::chaos_action::hang:
                    // Wedge without exiting: heartbeats stop, the supervisor
                    // must notice and SIGKILL us.
                    for (double t = 0.0; t < chaos.hang_s; t += 0.1) {
                        ::usleep(100000);
                    }
                    break;
                case tcppred::sim::chaos_action::none:
                    break;
            }
        };
    }
    run_opts.cancelled = [] { return g_interrupted != 0; };
    std::signal(SIGINT, on_sigint);

    // --trace opens first so init_from_env() skips $REPRO_TRACE (the flag
    // overrides the environment, with no stray env-named file).
    if (!trace_file.empty()) {
        try {
            tcppred::obs::trace_writer::instance().open(trace_file);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    // Runs on every exit path (success, SIGINT, runtime failure): the
    // summary covers whatever work completed, and close() surfaces drain
    // write errors that would otherwise vanish with the process.
    const auto finish_observability = [&]() -> int {
        if (metrics_summary) tcppred::obs::write_metrics_summary(std::cerr);
        if (!trace_file.empty()) {
            try {
                tcppred::obs::trace_writer::instance().close();
            } catch (const std::exception& e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return 2;
            }
        }
        return 0;
    };

    try {
        // Inside the try: a garbage $REPRO_METRICS exits 2 naming it.
        tcppred::obs::init_from_env();
        if (metrics_summary) tcppred::obs::set_metrics_enabled(true);
        if (!convert_from.empty()) {
            record_reader reader(convert_from);
            const std::size_t n = reader.total();
            store_to_csv(reader, out);
            std::fprintf(stderr, "converted %zu epoch records from %s to %s\n", n,
                         convert_from.c_str(), out.c_str());
            return finish_observability();
        }

        if (merge_n > 0) {
            // Merge mode: read-only over the shard checkpoints (rerunnable);
            // the supervisor's auto-merge is the consuming variant.
            std::vector<std::filesystem::path> ckpts;
            for (int i = 0; i < merge_n; ++i) {
                ckpts.push_back(shard_checkpoint_path(out, shard_ref{i, merge_n}));
            }
            std::size_t merged = 0;
            if (store_mode) {
                merged = merge_shard_checkpoints_to_store(cfg, ckpts, out);
            } else {
                const dataset data = merge_shard_checkpoints(cfg, ckpts);
                save_csv(data, out);
                merged = data.records.size();
            }
            std::fprintf(stderr, "merged %d shard(s), %zu epoch records, into %s\n",
                         merge_n, merged, out.c_str());
            return finish_observability();
        }

        if (workers > 0) {
            supervisor_options sup;
            sup.cfg = cfg;
            sup.out = out;
            sup.workers = workers;
            sup.worker_jobs = worker_jobs;
            sup.hang_timeout_s = hang_timeout_s;
            sup.max_attempts = max_attempts;
            sup.cancelled = [] { return g_interrupted != 0; };
            if (store_mode) {
                // Workers still checkpoint their shards (that is the crash-
                // tolerance story); only the final merge streams into a
                // store instead of loading everything for save_csv.
                sup.merge = [](const campaign_config& mcfg,
                               const std::vector<std::filesystem::path>& ckpts,
                               const std::filesystem::path& dest) {
                    return merge_shard_checkpoints_to_store(mcfg, ckpts, dest);
                };
            }
            sup.worker_argv.push_back(argv[0]);
            for (const cli::token& t : flags.consumed()) {
                if (std::find(std::begin(k_process_local), std::end(k_process_local),
                              t.flag) != std::end(k_process_local)) {
                    continue;
                }
                sup.worker_argv.push_back(t.flag);
                if (t.value) sup.worker_argv.push_back(*t.value);
            }
            std::fprintf(stderr,
                         "supervising %d worker(s) over %d paths x %d traces x %d "
                         "epochs (seed %llu%s)...\n",
                         workers, cfg.paths, cfg.traces_per_path, cfg.epochs_per_trace,
                         static_cast<unsigned long long>(cfg.seed),
                         chaos.enabled() ? (", chaos " + chaos.spec()).c_str() : "");
            const supervisor_result res = run_supervisor(sup);
            if (res.interrupted) {
                std::fprintf(stderr,
                             "interrupted; shard checkpoints are resumable — rerun "
                             "the same --workers command\n");
                finish_observability();
                return 130;
            }
            if (!res.complete) {
                std::fprintf(stderr, "error: %s\n", res.error.c_str());
                finish_observability();
                return 2;
            }
            std::fprintf(stderr,
                         "wrote %zu epoch records to %s (%d launch(es), %d "
                         "restart(s), %d hang(s) killed)\n",
                         res.epochs_merged, out.c_str(), res.workers_spawned,
                         res.worker_restarts, res.hangs_killed);
            return finish_observability();
        }

        std::fprintf(stderr, "running %d paths x %d traces x %d epochs (seed %llu%s%s%s)...\n",
                     cfg.paths, cfg.traces_per_path, cfg.epochs_per_trace,
                     static_cast<unsigned long long>(cfg.seed),
                     cfg.faults.enabled()
                         ? (", faults " + cfg.faults.spec()).c_str()
                         : "",
                     chaos.enabled() ? (", chaos " + chaos.spec()).c_str() : "",
                     shard ? (", shard " + std::to_string(shard->index) + "/" +
                              std::to_string(shard->count))
                                 .c_str()
                           : "");
        if (store_mode) {
            // Streamed sweep: epochs flow straight into the store's chunk
            // sink; nothing grid-sized is ever resident.
            streamed_campaign_options sopts;
            sopts.cancelled = [] { return g_interrupted != 0; };
            int last = -1;
            const tcppred::obs::stopwatch watch;
            const streamed_campaign_outcome outcome =
                run_campaign_streamed(cfg, out, sopts, [&](int done, int total) {
                    const int pct = done * 100 / std::max(1, total);
                    if (pct / 10 != last / 10) {
                        std::fprintf(stderr, "  %d%%\n", pct);
                        last = pct;
                    }
                });
            const double wall_s = watch.elapsed_s();
            if (!outcome.complete) {
                std::fprintf(stderr,
                             "interrupted after %d epoch(s); store runs are not "
                             "checkpointed — rerun from scratch (or use --workers)\n",
                             outcome.epochs_completed);
                finish_observability();
                return 130;
            }
            const std::size_t n = campaign_total_epochs(cfg);
            std::fprintf(stderr, "wrote %zu epoch records to %s\n", n, out.c_str());
            std::fprintf(stderr, "%zu epochs in %.2f s (%.1f epochs/s)\n", n, wall_s,
                         wall_s > 0 ? static_cast<double>(n) / wall_s : 0.0);
            return finish_observability();
        }
        // Worker heartbeat: one atomic write per completed epoch, from the
        // progress path on purpose — a wedged worker must stop heartbeating.
        const int total_epochs = cfg.paths * cfg.traces_per_path * cfg.epochs_per_trace;
        const int claimed =
            shard ? static_cast<int>(
                        shard_size(static_cast<std::size_t>(total_epochs), *shard))
                  : total_epochs;
        const std::filesystem::path hb_path =
            shard ? shard_heartbeat_path(out, *shard) : std::filesystem::path{};
        std::uint64_t hb_seq = 0;
        if (shard) {
            write_heartbeat(hb_path, shard_heartbeat{::getpid(), ++hb_seq, 0, claimed});
        }
        int last = -1;
        const tcppred::obs::stopwatch watch;
        const campaign_outcome outcome =
            run_campaign_resumable(cfg, run_opts, [&](int done, int) {
                if (shard) {
                    write_heartbeat(hb_path, shard_heartbeat{::getpid(), ++hb_seq,
                                                             done, claimed});
                }
                const int pct = done * 100 / std::max(1, claimed);
                if (pct / 10 != last / 10) {
                    std::fprintf(stderr, "  %d%%\n", pct);
                    last = pct;
                }
            });
        const double wall_s = watch.elapsed_s();
        if (outcome.epochs_resumed > 0) {
            std::fprintf(stderr, "resumed %d completed epoch(s) from %s\n",
                         outcome.epochs_resumed, run_opts.checkpoint.string().c_str());
        }
        if (!outcome.complete) {
            std::fprintf(stderr,
                         "interrupted after %d epoch(s)%s%s; rerun with --resume\n",
                         outcome.epochs_completed,
                         checkpointing ? "; progress saved to " : "",
                         checkpointing ? run_opts.checkpoint.string().c_str() : "");
            finish_observability();  // partial summary/trace is still useful
            return 130;
        }
        if (shard) {
            // A shard's output is its checkpoint; only the merge step (or
            // the supervisor) writes the CSV.
            std::fprintf(stderr, "shard %d/%d complete: %d epoch(s) in %s\n",
                         shard->index, shard->count, outcome.epochs_completed,
                         run_opts.checkpoint.string().c_str());
            return finish_observability();
        }
        save_csv(outcome.data, out);
        std::fprintf(stderr, "wrote %zu epoch records to %s\n",
                     outcome.data.records.size(), out.c_str());
        std::fprintf(stderr, "%zu epochs in %.2f s (%.1f epochs/s)\n",
                     outcome.data.records.size(), wall_s,
                     wall_s > 0
                         ? static_cast<double>(outcome.data.records.size()) / wall_s
                         : 0.0);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        finish_observability();
        return 2;
    }
    return finish_observability();
}
