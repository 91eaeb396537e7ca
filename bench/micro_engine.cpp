// google-benchmark micro-benchmarks for the simulation substrate: random
// draws, event scheduling throughput, link forwarding, and end-to-end TCP
// simulation cost — what bounds the wall-clock of a measurement campaign.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "net/cross_traffic.hpp"
#include "net/packet.hpp"
#include "net/path.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "tcp/tcp.hpp"
#include "testbed/campaign.hpp"
#include "testbed/epoch_runner.hpp"
#include "testbed/load_process.hpp"
#include "testbed/path_catalog.hpp"

using namespace tcppred;

namespace {

/// One uniform draw: the engine plus the scaling every distribution uses.
void bm_rng_uniform(benchmark::State& state) {
    sim::rng r(20040501);
    for (auto _ : state) benchmark::DoNotOptimize(r.uniform());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_rng_uniform);

/// One normal draw (the polar method: about 2.5 uniforms, a log and a sqrt),
/// at the load process's jitter parameters.
void bm_rng_normal(benchmark::State& state) {
    sim::rng r(20040501);
    for (auto _ : state) benchmark::DoNotOptimize(r.normal(0.0, 0.015));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_rng_normal);

/// Campaign set-up's random work: the load trajectories of 35 campaign-1
/// paths x 8 traces x 150 epochs, each from a freshly seeded stream, with
/// the per-trace seed derivation run_campaign uses. Items are trajectories.
void bm_load_trajectory(benchmark::State& state) {
    const std::vector<testbed::path_profile> paths = testbed::ron_like_catalog(35, 20040501);
    const std::uint64_t seed =
        testbed::campaign1_config(testbed::campaign_scale::normal).seed;
    constexpr int k_traces = 8;
    constexpr int k_epochs = 150;
    for (auto _ : state) {
        for (const testbed::path_profile& p : paths) {
            for (int t = 0; t < k_traces; ++t) {
                const auto loads = testbed::load_trajectory(
                    p,
                    sim::derive_seed(seed, "trace", static_cast<std::uint64_t>(p.id),
                                     static_cast<std::uint64_t>(t)),
                    k_epochs);
                benchmark::DoNotOptimize(loads.data());
            }
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(paths.size() * k_traces));
}
BENCHMARK(bm_load_trajectory);

void bm_scheduler_throughput(benchmark::State& state) {
    for (auto _ : state) {
        sim::scheduler s;
        int fired = 0;
        std::function<void()> chain = [&] {
            if (++fired < 10000) s.schedule_in(0.001, chain);
        };
        s.schedule_in(0.001, chain);
        s.run_all();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(bm_scheduler_throughput);

/// The campaign's actual event shape: about 40 concurrent chains (the
/// packets in flight on a loaded path), every event capturing a component
/// pointer plus a net::packet by value — 64 bytes, where
/// bm_scheduler_throughput's single chain captures 8. Chains run at
/// slightly different periods so their events interleave in the queue.
class packet_chains {
public:
    static constexpr int k_chains = 40;
    static constexpr std::uint64_t k_events = 10000;

    explicit packet_chains(sim::scheduler& s) : s_(&s) {
        for (int k = 0; k < k_chains; ++k) {
            net::packet p;
            p.flow = static_cast<net::flow_id>(k);
            p.size_bytes = 1500;
            forward(p);
        }
    }

    [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

private:
    void forward(net::packet p) {
        const double period = 1e-3 * (1.0 + static_cast<double>(p.flow) / k_chains);
        const auto hop = [this, p] { on_hop(p); };
        static_assert(sizeof(hop) == sizeof(void*) + sizeof(net::packet));
        s_->schedule_in(period, hop);
    }

    void on_hop(net::packet p) {
        if (++fired_ + k_chains > k_events) return;  // drain: exactly k_events fire
        ++p.seq;
        forward(p);
    }

    sim::scheduler* s_;
    std::uint64_t fired_{0};
};

void bm_scheduler_packet_capture(benchmark::State& state) {
    for (auto _ : state) {
        sim::scheduler s;
        packet_chains chains(s);
        s.run_all();
        benchmark::DoNotOptimize(chains.fired());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(packet_chains::k_events));
}
BENCHMARK(bm_scheduler_packet_capture);

void bm_link_forwarding(benchmark::State& state) {
    for (auto _ : state) {
        sim::scheduler s;
        net::link l(s, 1e9, 0.001, 4096);
        std::uint64_t delivered = 0;
        l.set_sink([&](net::packet) { ++delivered; });
        for (int i = 0; i < 4096; ++i) {
            net::packet p;
            p.flow = 1;
            p.size_bytes = 1500;
            l.enqueue(p);
        }
        s.run_all();
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(bm_link_forwarding);

void bm_tcp_transfer_second(benchmark::State& state) {
    // Cost of simulating one second of a saturating TCP flow at 10 Mbps.
    for (auto _ : state) {
        sim::scheduler sched;
        std::vector<net::hop_config> fwd{net::hop_config{
            core::bits_per_second{10e6}, core::seconds{0.020}, 100}};
        std::vector<net::hop_config> rev{net::hop_config{
            core::bits_per_second{100e6}, core::seconds{0.020}, 512}};
        net::duplex_path path(sched, fwd, rev);
        net::path_conduit conduit(path);
        tcp::tcp_config cfg;
        cfg.initial_ssthresh_segments = 128;
        tcp::tcp_connection conn(sched, conduit, 1, cfg);
        conn.start();
        sched.run_until(1.0);
        conn.quiesce();
        benchmark::DoNotOptimize(conn.sender().acked_bytes());
    }
}
BENCHMARK(bm_tcp_transfer_second);

void bm_loaded_path_second(benchmark::State& state) {
    // One second of TCP + Poisson cross traffic: the campaign's hot loop.
    for (auto _ : state) {
        sim::scheduler sched;
        std::vector<net::hop_config> fwd{net::hop_config{
            core::bits_per_second{10e6}, core::seconds{0.020}, 100}};
        std::vector<net::hop_config> rev{net::hop_config{
            core::bits_per_second{100e6}, core::seconds{0.020}, 512}};
        net::duplex_path path(sched, fwd, rev);
        net::poisson_source cross(sched, path, 0, 99, 7, 5e6);
        cross.start();
        net::path_conduit conduit(path);
        tcp::tcp_config cfg;
        cfg.initial_ssthresh_segments = 128;
        tcp::tcp_connection conn(sched, conduit, 1, cfg);
        conn.start();
        sched.run_until(1.0);
        conn.quiesce();
        cross.stop();
        benchmark::DoNotOptimize(sched.fired());
    }
}
BENCHMARK(bm_loaded_path_second);

/// Fixed work at the top of the stack: the first epoch of the first 12
/// campaign-1 catalogue paths at the campaign-1 seed, each through
/// testbed::run_epoch with the seed and load the campaign derives for it.
/// Items are fired events, so items/s is the whole epoch loop's event rate
/// (scheduler, links, TCP and probes together).
void run_first_epochs(benchmark::State& state, net::cross_model model) {
    testbed::campaign_config cfg = testbed::campaign1_config(testbed::campaign_scale::normal);
    cfg.epoch.cross = model;
    const std::vector<testbed::path_profile> paths = testbed::campaign_catalog(cfg);
    constexpr std::size_t k_paths = 12;
    std::vector<testbed::load_state> loads;
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < k_paths; ++i) {
        const auto id = static_cast<std::uint64_t>(paths[i].id);
        loads.push_back(testbed::load_trajectory(
            paths[i], sim::derive_seed(cfg.seed, "trace", id, std::uint64_t{0}), 1)[0]);
        seeds.push_back(sim::derive_seed(cfg.seed, "epoch", id, std::uint64_t{0},
                                         std::uint64_t{0}));
    }
    std::uint64_t events = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < k_paths; ++i) {
            events += testbed::run_epoch(paths[i], loads[i], seeds[i], cfg.epoch).events;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

void bm_run_epoch_packet(benchmark::State& state) {
    run_first_epochs(state, net::cross_model::packet);
}
BENCHMARK(bm_run_epoch_packet);

void bm_run_epoch_fluid(benchmark::State& state) {
    run_first_epochs(state, net::cross_model::fluid);
}
BENCHMARK(bm_run_epoch_fluid);

}  // namespace

BENCHMARK_MAIN();
