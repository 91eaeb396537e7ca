// The per-layer table every traced run prints. Each probe calls one layer's
// public functions from outside on seeded inputs, inside spans named after
// the layer, and reports work per unit of time for that layer alone:
//
//   testbed / probe   sample epochs of the campaign slice: events, host time,
//                     per-class epoch time, and the epoch phases measured
//                     by differential run_epoch calls (epoch_config switches)
//   sim / net / tcp   scheduler events, link packets (packet and fluid
//                     cross traffic), TCP simulated seconds
//   store / core /    record store encode/decode, predictor steps per spec,
//   analysis          the stream fold's self time, engine grouping and
//                     parallel efficiency
//   serve             parse, table and handle_line in process; client round
//                     trips, RSS growth, generator lateness and epoch latency
//                     against a live daemon
//
// The analysis and serve probes also check their outputs: evaluate_stream
// must equal evaluation_engine, and the live daemon's PREDICT answers must
// equal the offline engine's. The suite ends with a consistency report:
// epoch phases must account for run_epoch, and no in-process serve stage
// may exceed the client round trip.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>

#include "analysis/evaluation.hpp"
#include "bench.hpp"
#include "core/predictor_registry.hpp"
#include "net/cross_traffic.hpp"
#include "net/link.hpp"
#include "net/path.hpp"
#include "serve/path_table.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve_client.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "tcp/tcp.hpp"
#include "testbed/campaign.hpp"
#include "testbed/load_process.hpp"
#include "testbed/record_store.hpp"

namespace perfbench {

namespace tb = tcppred::testbed;
namespace an = tcppred::analysis;
namespace sim = tcppred::sim;
namespace net = tcppred::net;
namespace sv = tcppred::serve;

namespace {

/// Offered load of the serve probe's open loop: epoch transactions (one
/// OBSERVE and a PREDICT per spec) per second.
constexpr double k_open_epochs_per_s = 1000.0;

double since_ns(std::int64_t t0) { return static_cast<double>(now_ns() - t0); }

/// Time `fn` inside a span; returns nanoseconds.
template <class Fn>
double timed(const char* name, Fn&& fn) {
    const span sp(name);
    const std::int64_t t0 = now_ns();
    fn();
    return since_ns(t0);
}

// ---- testbed / probe ----------------------------------------------------

/// The phases of one epoch, isolated: each phase alone on top of the base
/// epoch (warm-up and the during-flow grace, nothing measured).
struct phase_cost {
    double events{0.0};
    double ns{0.0};
};

void campaign_layers(const options& opt, run_result& out, std::vector<std::string>& report) {
    constexpr int k_epochs = 2;
    tb::epoch_config full = tb::campaign1_config(tb::campaign_scale::normal).epoch;
    tb::epoch_config base = full;
    base.run_pathload = false;
    base.run_small_window = false;
    base.prior_ping.count = 0;
    base.transfer = tcppred::core::seconds{1e-3};
    tb::epoch_config with_pathload = base;
    with_pathload.run_pathload = true;
    tb::epoch_config with_ping = base;
    with_ping.prior_ping.count = full.prior_ping.count;
    tb::epoch_config with_bulk = base;
    with_bulk.transfer = full.transfer;
    tb::epoch_config with_bulk_small = with_bulk;
    with_bulk_small.run_small_window = true;
    tb::epoch_config fluid = full;
    fluid.cross = net::cross_model::fluid;

    const std::uint64_t cseed = sim::derive_seed(opt.seed, "campaign");
    std::map<std::string, std::vector<double>> class_ms;
    phase_cost c_full, c_base, c_pl, c_ping, c_bulk, c_bulk_small, c_fluid;
    const auto run = [&](const char* name, const tb::path_profile& p, const tb::load_state& l,
                         std::uint64_t seed, const tb::epoch_config& cfg, phase_cost& acc) {
        tb::epoch_measurement m;
        const double ns = timed(name, [&] { m = tb::run_epoch(p, l, seed, cfg); });
        acc.events += static_cast<double>(m.events);
        acc.ns += ns;
        return ns;
    };
    int n = 0;
    for (const int i : k_sample_paths) {
        const tb::path_profile& p = catalogue()[static_cast<std::size_t>(i)];
        const auto loads = tb::load_trajectory(
            p, sim::derive_seed(cseed, "trace", static_cast<std::uint64_t>(p.id), 0), k_epochs);
        for (int e = 0; e < k_epochs; ++e) {
            const std::uint64_t seed =
                sim::derive_seed(cseed, "epoch", static_cast<std::uint64_t>(p.id), 0,
                                 static_cast<std::uint64_t>(e));
            const tb::load_state& l = loads[static_cast<std::size_t>(e)];
            const double ns = run("testbed.run_epoch", p, l, seed, full, c_full);
            class_ms[std::string(tb::to_string(p.klass))].push_back(ns * 1e-6);
            run("testbed.run_epoch.base", p, l, seed, base, c_base);
            run("probe.pathload", p, l, seed, with_pathload, c_pl);
            run("probe.prior_ping", p, l, seed, with_ping, c_ping);
            run("probe.bulk", p, l, seed, with_bulk, c_bulk);
            run("probe.small_window", p, l, seed, with_bulk_small, c_bulk_small);
            run("testbed.run_epoch.fluid", p, l, seed, fluid, c_fluid);
            ++n;
        }
    }
    const double dn = n;
    out.set("testbed.events_per_epoch.packet", c_full.events / dn, "count");
    out.set("testbed.events_per_epoch.fluid", c_fluid.events / dn, "count");
    out.set("testbed.host_ns_per_event.packet", c_full.ns / c_full.events, "ns");
    out.set("testbed.host_ns_per_event.fluid", c_fluid.ns / c_fluid.events, "ns");
    for (const auto& [klass, v] : class_ms) out.set("testbed.epoch_ms." + klass, median(v), "ms");

    const auto phase = [&](const std::string& name, const phase_cost& with,
                           const phase_cost& without) {
        const phase_cost d{(with.events - without.events) / dn, (with.ns - without.ns) / dn};
        out.set("probe." + name + ".events", d.events, "count");
        out.set("probe." + name + ".ms", d.ns * 1e-6, "ms");
        return d;
    };
    const phase_cost pl = phase("pathload", c_pl, c_base);
    const phase_cost ping = phase("prior_ping", c_ping, c_base);
    const phase_cost bulk = phase("bulk", c_bulk, c_base);
    const phase_cost small = phase("small_window", c_bulk_small, c_bulk);
    const double full_ev = c_full.events / dn;
    const double parts_ev =
        c_base.events / dn + pl.events + ping.events + bulk.events + small.events;
    const double resid = (full_ev - parts_ev) / full_ev * 100.0;
    out.set("probe.phase_residual_pct", resid, "%");
    const double full_ns = c_full.ns / dn;
    const double parts_ns = c_base.ns / dn + pl.ns + ping.ns + bulk.ns + small.ns;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "epoch phases + base vs run_epoch: events %.2f%% residual, host time %.2f%%",
                  resid, (full_ns - parts_ns) / full_ns * 100.0);
    report.emplace_back(line);
    out.check(std::fabs(resid) <= 5.0, "epoch phases account for run_epoch events (5%)");
}

// ---- sim / net / tcp ----------------------------------------------------

void substrate_layers(const options& opt, run_result& out) {
    {
        // Scheduler: 64 concurrent event chains at random delays.
        sim::scheduler s;
        sim::rng r(sim::derive_seed(opt.seed, "sched"));
        constexpr std::uint64_t k_events = 400000;
        std::uint64_t fired = 0;
        std::function<void()> tick = [&] {
            if (++fired < k_events) s.schedule_in(r.uniform(1e-6, 1e-3), tick);
        };
        for (int i = 0; i < 64; ++i) s.schedule_in(r.uniform(1e-6, 1e-3), tick);
        const double ns = timed("sim.scheduler", [&] { s.run_all(); });
        out.set("sim.scheduler_ns_per_event", ns / static_cast<double>(s.fired()), "ns");
    }
    // A 10 Mb/s bottleneck fed by Poisson packet arrivals at 80% load, with
    // (fluid) or without cross-traffic fluid sharing it.
    const auto link_probe = [&](const char* name, bool fluid) {
        sim::scheduler s;
        net::link l(s, 10e6, 0.01, 100);
        std::uint64_t delivered = 0;
        l.set_sink([&](net::packet) { ++delivered; });
        if (fluid) {
            l.set_fluid_mean_packet_bytes(1000.0);
            l.add_fluid_rate(4e6);
        }
        sim::rng r(sim::derive_seed(opt.seed, "link"));
        constexpr int k_packets = 100000;
        const double rate_pps = (fluid ? 4e6 : 8e6) / (1000.0 * 8.0);
        int sent = 0;
        std::function<void()> arrive = [&] {
            net::packet p;
            p.flow = 1;
            p.size_bytes = 1000;
            l.enqueue(p);
            if (++sent < k_packets) s.schedule_in(r.exponential(1.0 / rate_pps), arrive);
        };
        s.schedule_in(0.0, arrive);
        const double ns = timed(name, [&] { s.run_all(); });
        return ns / k_packets;
    };
    out.set("net.link_ns_per_packet", link_probe("net.link", false), "ns");
    out.set("net.fluid_link_ns_per_packet", link_probe("net.link.fluid", true), "ns");
    {
        // TCP alone on a 10 Mb/s, 40 ms path: host time per simulated second.
        sim::scheduler sched;
        using tcppred::core::bits_per_second;
        using tcppred::core::seconds;
        std::vector<net::hop_config> fwd{
            net::hop_config{bits_per_second{10e6}, seconds{0.020}, 100}};
        std::vector<net::hop_config> rev{
            net::hop_config{bits_per_second{100e6}, seconds{0.020}, 512}};
        net::duplex_path path(sched, fwd, rev);
        net::path_conduit conduit(path);
        tcppred::tcp::tcp_config cfg;
        cfg.initial_ssthresh_segments = 128;
        tcppred::tcp::tcp_connection conn(sched, conduit, 1, cfg);
        constexpr double k_sim_s = 20.0;
        const double ns = timed("tcp.connection", [&] {
            conn.start();
            sched.run_until(k_sim_s);
            conn.quiesce();
        });
        out.set("tcp.host_ms_per_sim_s", ns * 1e-6 / k_sim_s, "ms");
    }
}

// ---- store / core / analysis --------------------------------------------

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

/// Every per-trace RMSRE (and the trace keys, counts and names) bitwise equal.
bool summaries_equal(const std::vector<an::stream_predictor_summary>& stream,
                     const std::vector<an::predictor_result>& engine) {
    if (stream.empty() || stream.size() != engine.size()) return false;
    for (std::size_t j = 0; j < stream.size(); ++j) {
        const auto& s = stream[j];
        const auto& e = engine[j];
        if (s.name != e.name || s.traces.empty() || s.traces.size() != e.traces.size() ||
            s.traces_unscored != e.traces_unscored) {
            return false;
        }
        for (std::size_t t = 0; t < s.traces.size(); ++t) {
            if (s.traces[t].path_id != e.traces[t].path_id ||
                s.traces[t].trace_id != e.traces[t].trace_id ||
                s.traces[t].epochs != e.traces[t].epochs.size() ||
                !same_bits(s.traces[t].rmsre, e.traces[t].rmsre)) {
                return false;
            }
        }
    }
    return true;
}

void analysis_layers(const options& opt, run_result& out) {
    const tb::dataset data = synthetic_dataset(1, opt.seed);
    const double n = static_cast<double>(data.records.size());
    const std::filesystem::path store = opt.work_dir / "layers.store";

    std::vector<double> enc, dec;
    for (int i = 0; i < 5; ++i) {
        enc.push_back(timed("testbed.record_writer", [&] {
            tb::record_writer w(store, "perfbench-synthetic", tb::csv_catalog_lines(data.paths));
            for (const tb::epoch_record& r : data.records) w.append(r);
            w.finish();
        }));
        std::size_t read = 0;
        dec.push_back(timed("testbed.record_reader", [&] {
            tb::record_reader rd(store);
            tb::epoch_record rec;
            while (rd.next(rec)) ++read;
        }));
        out.check(read == data.records.size(), "store decodes every record it encoded");
    }
    const double dec_ns = median(dec);
    out.set("testbed.store_encode_records_per_s", n / (median(enc) * 1e-9), "1/s");
    out.set("testbed.store_decode_records_per_s", n / (dec_ns * 1e-9), "1/s");
    out.set("testbed.store_bytes_per_record",
            static_cast<double>(std::filesystem::file_size(store)) / n, "B");

    // Predictor steps: predict then observe, per spec, over every trace
    // (median of three sweeps).
    const auto traces = data.traces();
    double step_ns_sum = 0.0;
    for (const std::string& spec : spec_mix()) {
        const auto proto = tcppred::core::make_predictor(spec);
        std::vector<double> sweeps;
        for (int i = 0; i < 3; ++i) {
            double ns = 0.0;
            for (const auto& [key, recs] : traces) {
                const auto p = proto->clone_empty();
                ns += timed("core.predictor.step", [&] {
                    for (const tb::epoch_record* r : recs) {
                        const an::record_view v = an::view_of_record(*r);
                        static_cast<void>(p->predict(v.inputs));
                        p->observe_maybe(v.actual_bps);
                    }
                });
            }
            sweeps.push_back(ns / n);
        }
        out.set("core.step_ns." + metric_safe(spec), median(sweeps), "ns");
        step_ns_sum += median(sweeps);
    }

    // The stream fold's self time: the pass minus decode and steps.
    std::vector<double> pass;
    std::vector<an::stream_predictor_summary> streamed;
    for (int i = 0; i < 3; ++i) {
        pass.push_back(timed("analysis.evaluate_stream", [&] {
            tb::record_reader rd(store);
            streamed = an::evaluate_stream(
                [&](tb::epoch_record& rec) { return rd.next(rec); }, spec_mix());
        }));
    }
    out.set("analysis.fold_ns_per_record", median(pass) / n - dec_ns / n - step_ns_sum, "ns");
    std::filesystem::remove(store);

    std::vector<double> group;
    for (int i = 0; i < 5; ++i) {
        group.push_back(timed("testbed.dataset.traces", [&] { static_cast<void>(data.traces()); }));
    }
    out.set("analysis.engine_group_ms", median(group) * 1e-6, "ms");

    const unsigned jobs = hw_threads();
    std::vector<an::predictor_result> engine_result;
    const auto engine_rate = [&](int j) {
        an::engine_options eo;
        eo.jobs = j;
        const an::evaluation_engine engine(eo);
        const double ns = timed("analysis.evaluation_engine.run",
                                [&] { engine_result = engine.run(data, spec_mix()); });
        return n / (ns * 1e-9);
    };
    const double one = engine_rate(1);
    const double all = engine_rate(static_cast<int>(jobs));
    out.set("analysis.engine_jobs1_records_per_s", one, "1/s");
    out.set("analysis.engine_parallel_efficiency", all / (one * jobs), "ratio");

    if (corrupting(opt, "analyze_stream") && !streamed.empty() && !streamed[0].traces.empty()) {
        double& x = streamed[0].traces[0].rmsre;
        x = std::nextafter(x, 1e300);
    }
    out.check(summaries_equal(streamed, engine_result),
              "evaluate_stream == evaluation_engine (every trace RMSRE, bitwise)");
}

// ---- serve --------------------------------------------------------------

void serve_layers(const options& opt, run_result& out, std::vector<std::string>& report) {
    // One request stream (OBSERVE + a PREDICT per spec, per epoch, over 16
    // paths at a time) for every in-process stage.
    replay gen(opt.seed, 16);
    std::vector<std::string> lines;
    std::vector<request_meta> metas;
    for (int i = 0; i < 30000; ++i) {
        request_meta m;
        std::string l = gen.next(m);
        l.pop_back();
        lines.push_back(std::move(l));
        metas.push_back(m);
    }
    std::vector<sv::request> reqs;
    const double parse_ns = timed("serve.parse_request_line", [&] {
        for (const std::string& l : lines) reqs.push_back(sv::parse_request_line(l));
    });
    out.set("serve.parse_ns", parse_ns / static_cast<double>(lines.size()), "ns");

    {
        sv::path_table table(spec_mix());
        double obs_ns = 0.0, pred_ns = 0.0;
        std::size_t n_obs = 0, n_pred = 0;
        std::map<int, std::pair<double, int>> by_history;  // bucket -> (ns, count)
        const span sp("serve.path_table");
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const std::int64_t t0 = now_ns();
            if (reqs[i].kind == sv::request_kind::observe) {
                table.observe(reqs[i].path, reqs[i].obs);
                const double ns = since_ns(t0);
                obs_ns += ns;
                ++n_obs;
                const int e = metas[i].epoch;
                const int bucket = e < 20 ? 10 : (e >= 40 && e < 60) ? 50 : e >= 140 ? 150 : 0;
                if (bucket != 0) {
                    by_history[bucket].first += ns;
                    ++by_history[bucket].second;
                }
            } else {
                static_cast<void>(table.predict(reqs[i].path, reqs[i].spec));
                pred_ns += since_ns(t0);
                ++n_pred;
            }
        }
        out.set("serve.table_observe_ns", obs_ns / static_cast<double>(n_obs), "ns");
        out.set("serve.table_predict_ns", pred_ns / static_cast<double>(n_pred), "ns");
        for (const auto& [h, v] : by_history) {
            out.set("serve.observe_ns_by_history.h" + std::to_string(h), v.first / v.second, "ns");
        }
    }

    // Lock wait: the same observes from two threads on one table (disjoint
    // paths, shared shards) against one thread alone.
    {
        const auto observe_ns = [&](unsigned threads) {
            sv::path_table table(spec_mix());
            std::vector<double> per(threads, 0.0);
            std::vector<std::size_t> cnt(threads, 0);
            std::vector<std::thread> ts;
            for (unsigned t = 0; t < threads; ++t) {
                ts.emplace_back([&, t] {
                    for (std::size_t i = 0; i < reqs.size(); ++i) {
                        if (reqs[i].kind != sv::request_kind::observe) continue;
                        const std::string path = reqs[i].path + "." + std::to_string(t);
                        const std::int64_t t0 = now_ns();
                        table.observe(path, reqs[i].obs);
                        per[t] += since_ns(t0);
                        ++cnt[t];
                    }
                });
            }
            for (auto& th : ts) th.join();
            double ns = 0.0;
            std::size_t c = 0;
            for (unsigned t = 0; t < threads; ++t) {
                ns += per[t];
                c += cnt[t];
            }
            return ns / static_cast<double>(c);
        };
        const double alone = observe_ns(1);
        const double contended = observe_ns(2);
        out.set("serve.lock_wait_ns", contended - alone, "ns");
    }

    // handle_line: parse + table + render, as a daemon worker runs it.
    std::vector<double> hl_all;
    {
        const std::string sock = (opt.work_dir / "layers.sock").string();
        sv::path_table table(spec_mix());
        sv::server_config cfg;
        cfg.unix_socket = sock;
        sv::server srv(table, cfg);
        double obs_ns = 0.0, pred_ns = 0.0;
        std::size_t n_obs = 0, n_pred = 0;
        const span sp("serve.handle_line");
        for (std::size_t i = 0; i < lines.size(); ++i) {
            const std::int64_t t0 = now_ns();
            static_cast<void>(srv.handle_line(lines[i]));
            const double ns = since_ns(t0);
            hl_all.push_back(ns);
            if (metas[i].spec < 0) {
                obs_ns += ns;
                ++n_obs;
            } else {
                pred_ns += ns;
                ++n_pred;
            }
        }
        out.set("serve.handle_line_ns.observe", obs_ns / static_cast<double>(n_obs), "ns");
        out.set("serve.handle_line_ns.predict", pred_ns / static_cast<double>(n_pred), "ns");
    }

    // Live daemon: round trips on one closed-loop connection, RSS growth,
    // then the open-loop generator's lateness; every PREDICT answer is then
    // checked against the offline engine.
    const std::string sock = (opt.work_dir / "layers-daemon.sock").string();
    daemon_process daemon(opt, sock);
    connection conn(sock);
    const std::uint64_t live_seed = sim::derive_seed(opt.seed, "layers");
    replay live(live_seed, 16);
    client_stats warm;
    closed_loop(conn, live, 0.2, warm);  // paths, allocator
    const double rss0 = rss_now_bytes(daemon.pid());
    client_stats closed;
    closed_loop(conn, live, 1.5, closed);
    const double obs_sent = static_cast<double>(closed.rtt_observe_us.size());
    out.set("serve.rss_bytes_per_observation",
            (rss_now_bytes(daemon.pid()) - rss0) / std::max(1.0, obs_sent), "B");
    std::vector<double> rtt = closed.rtt_observe_us;
    rtt.insert(rtt.end(), closed.rtt_predict_us.begin(), closed.rtt_predict_us.end());
    const double rtt50 = percentile(rtt, 0.50);
    const double hl50 = percentile(hl_all, 0.50) * 1e-3;
    out.set("serve.transport_us_p50", rtt50 - hl50, "us");
    out.set("serve.transport_us_p99", percentile(rtt, 0.99) - percentile(hl_all, 0.99) * 1e-3,
            "us");
    out.set("serve.stage_share_of_rtt_pct", hl50 / rtt50 * 100.0, "%");
    client_stats open;
    open_loop(conn, live, k_open_epochs_per_s, 1.0, open);
    out.set("serve.gen_late_us_p99", percentile(open.late_us, 0.99), "us");
    out.set("serve.epoch_us_p50", percentile(open.latency_us, 0.50), "us");
    out.set("serve.epoch_us_p95", percentile(open.latency_us, 0.95), "us");
    out.check(warm.failed + closed.failed + open.failed == 0,
              "serve probe requests all answered OK");
    char line[200];
    std::snprintf(line, sizeof(line),
                  "serve handle_line p50 %.2f us vs client round trip p50 %.2f us (%.0f%%)", hl50,
                  rtt50, hl50 / rtt50 * 100.0);
    report.emplace_back(line);
    out.check(hl50 <= rtt50, "in-process serve stages within the client round trip");
    const int rc = daemon.stop();
    out.check(rc == 0, "daemon exits 0 on SIGINT");

    std::vector<answer> answers = warm.answers;
    answers.insert(answers.end(), closed.answers.begin(), closed.answers.end());
    answers.insert(answers.end(), open.answers.begin(), open.answers.end());
    const std::size_t checked =
        verify_answers(answers, live.used(), live_seed, corrupting(opt, "serve_predict"));
    std::fprintf(stderr, "serve: %zu PREDICT answers checked over %zu paths\n", checked,
                 live.used().size());
    out.check(checked > 0, "live PREDICT answers == offline evaluation_engine");
}

}  // namespace

void run_layer_suite(const options& opt, run_result& out) {
    std::vector<std::string> report;
    campaign_layers(opt, out, report);
    substrate_layers(opt, out);
    analysis_layers(opt, out);
    serve_layers(opt, out, report);
    const auto overhead = out.metrics.find("obs.trace_overhead_pct");
    if (overhead != out.metrics.end()) {
        char line[120];
        std::snprintf(line, sizeof(line), "tracing overhead on %s: %.2f%%", opt.workload.c_str(),
                      overhead->second.value);
        report.emplace_back(line);
    }
    const std::vector<span_rec> spans = drain_spans();
    write_spans_jsonl(spans, opt.work_dir / ("spans-" + opt.workload + ".jsonl"));
    std::fprintf(stderr, "consistency report:\n");
    for (const std::string& l : report) std::fprintf(stderr, "  %s\n", l.c_str());
    std::fprintf(stderr, "per-layer spans (%zu recorded):\n", spans.size());
    for (const auto& [name, t] : summarize_spans(spans)) {
        std::fprintf(stderr, "  %-36s %9llu calls %12.3f ms total %12.3f ms self\n", name.c_str(),
                     static_cast<unsigned long long>(t.count), t.total_ns * 1e-6, t.self_ns * 1e-6);
    }
}

}  // namespace perfbench
