// tcppred_serve — the online prediction daemon (DESIGN.md §17): holds live
// per-path predictor state behind the line protocol of serve/protocol.hpp,
// on a Unix-domain or loopback TCP socket.
//
//   tcppred_serve --socket PATH | --port N [options]
//
// Prints "READY <socket|port>" on stdout once listening. SIGINT/SIGTERM is
// the documented stop: drain connections, write the final snapshot (when
// --snapshot is set), exit 0. A daemon restarted with --resume replays the
// snapshot through the live apply path and answers PREDICT requests
// bitwise-identically to the process that wrote it.
//
// Exit codes (the flag-table contract of core/cli.hpp): 0 success
// (including signal-driven shutdown), 1 bad arguments (unknown flag,
// missing value, no listen address), 2 a malformed flag value (including
// an empty --specs item) or a runtime failure (bad predictor spec,
// socket/snapshot errors).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/predictor_registry.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace_writer.hpp"
#include "serve/path_table.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"

namespace {

// Lock-free atomics are async-signal-safe; the handler writes the same flag
// the server's accept loop and connection workers poll every tick.
std::atomic<bool> g_stop{false};
void on_stop_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
    std::string socket_path;
    int port = -1;
    std::vector<std::string> specs{"fb:pftk"};
    std::size_t shards = 8;
    tcppred::serve::server_config scfg;
    bool resume = false;
    bool metrics_summary = false;

    namespace cli = tcppred::core::cli;
    cli::table flags(
        "--socket PATH | --port N [options]",
        {{"--socket", "PATH", "listen on a Unix-domain socket", cli::text(socket_path)},
         {"--port", "N", "listen on 127.0.0.1:N (0 = ephemeral, printed after READY)",
          cli::integer(port, 0, 65535)},
         {"--specs", "LIST", "comma-separated predictor specs (default fb:pftk)",
          cli::list(specs)},
         {"--shards", "N", "path-table mutex stripes (default 8)",
          cli::integer(shards, 1, 4096)},
         {"--workers", "N", "connection workers (default 4)",
          cli::integer(scfg.workers, 1, 4096)},
         {"--max-inflight", "N", "admission bound (default 64)",
          cli::integer(scfg.max_inflight, 1, 65536)},
         {"--snapshot", "FILE", "snapshot file, written on SIGINT and SNAPSHOT requests",
          cli::text(scfg.snapshot_file)},
         {"--snapshot-every", "N", "also snapshot every N observations (default off)",
          cli::integer(scfg.snapshot_every, 1, 1000000000)},
         {"--resume", "", "replay --snapshot FILE at startup when it exists",
          cli::set(resume)},
         {"--metrics-summary", "", "print counters to stderr on exit",
          cli::set(metrics_summary)}});
    if (const auto rc = flags.parse(argc, argv)) return *rc;

    if (socket_path.empty() && port < 0) {
        std::fprintf(stderr, "need a listen address: --socket PATH or --port N\n");
        std::fputs(flags.usage(argv[0]).c_str(), stderr);
        return 1;
    }
    if (resume && scfg.snapshot_file.empty()) {
        std::fprintf(stderr, "--resume needs --snapshot FILE\n");
        return 1;
    }
    if (scfg.snapshot_every > 0 && scfg.snapshot_file.empty()) {
        std::fprintf(stderr, "--snapshot-every needs --snapshot FILE\n");
        return 1;
    }

    int rc = 0;
    try {
        // Inside the try: a garbage $REPRO_METRICS exits 2 naming it.
        tcppred::obs::init_from_env();
        if (metrics_summary) tcppred::obs::set_metrics_enabled(true);
        tcppred::serve::path_table table(specs, {}, shards);
        if (resume && std::filesystem::exists(scfg.snapshot_file)) {
            const tcppred::serve::snapshot_stats st =
                tcppred::serve::load_snapshot(table, scfg.snapshot_file);
            std::fprintf(stderr, "resumed %zu path(s), %llu observation(s) from %s\n",
                         st.paths, static_cast<unsigned long long>(st.events),
                         scfg.snapshot_file.string().c_str());
        }

        scfg.unix_socket = socket_path;
        scfg.tcp_port = port;
        tcppred::serve::server srv(table, scfg);
        std::signal(SIGINT, on_stop_signal);
        std::signal(SIGTERM, on_stop_signal);
        std::signal(SIGPIPE, SIG_IGN);  // client hangups surface as write errors

        if (!socket_path.empty()) {
            std::printf("READY %s\n", socket_path.c_str());
        } else {
            std::printf("READY %d\n", srv.port());
        }
        std::fflush(stdout);

        srv.run(g_stop);

        if (!scfg.snapshot_file.empty()) {
            tcppred::serve::write_snapshot(table, scfg.snapshot_file);
            std::fprintf(stderr, "final snapshot: %s\n",
                         scfg.snapshot_file.string().c_str());
        }
        std::fprintf(stderr, "served %llu observation(s) over %zu path(s)\n",
                     static_cast<unsigned long long>(table.observations()),
                     table.path_count());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        rc = 2;
    }
    if (metrics_summary) tcppred::obs::write_metrics_summary(std::cerr);
    return rc;
}
