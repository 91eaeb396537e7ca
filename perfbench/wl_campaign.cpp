// campaign_packet / campaign_fluid: a serial (jobs=1) campaign over a slice
// of the campaign-1 grid (every catalogue path, so all four path classes,
// eight traces each, walked epoch-major), one
// testbed::simulate_campaign_epoch call per measured epoch. The two
// workloads differ only in the cross-traffic model, so a gain in per-packet
// cross-traffic forwarding shows on campaign_packet alone while a gain in
// TCP or the scheduler shows on both.
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "sim/rng.hpp"
#include "testbed/campaign.hpp"
#include "testbed/load_process.hpp"

namespace perfbench {

namespace tb = tcppred::testbed;
namespace sim = tcppred::sim;

namespace {

/// Many independent series keep the measured epoch mix, and so its tail,
/// the same from seed to seed.
constexpr int k_traces = 8;
constexpr int k_plan_epochs = 150;

/// Record digest of the correctness canary (the first epoch of the sample
/// paths at the campaign-1 seed) per cross-traffic model. A change that
/// alters any simulated record changes these, exactly as it would break the
/// repository's byte-identity gates.
constexpr std::uint64_t k_canary_packet = 0x9d206b8d31863539ULL;
constexpr std::uint64_t k_canary_fluid = 0xbe8850811f5e8082ULL;

struct plan_entry {
    std::size_t slot{0};
    int trace{0};
    int epoch{0};
};

struct campaign_setup {
    tb::campaign_config cfg;
    std::vector<const tb::path_profile*> paths;
    std::vector<std::vector<tb::load_state>> loads;  // slot * k_traces + trace
    std::vector<plan_entry> plan;                    // epoch-major interleave

    [[nodiscard]] const tb::load_state& load(const plan_entry& e) const {
        return loads[e.slot * k_traces + static_cast<std::size_t>(e.trace)]
                    [static_cast<std::size_t>(e.epoch)];
    }
    [[nodiscard]] tb::epoch_record simulate(const plan_entry& e) const {
        return tb::simulate_campaign_epoch(cfg, *paths[e.slot], load(e), e.trace, e.epoch);
    }
};

campaign_setup make_setup(std::uint64_t seed, bool fluid) {
    campaign_setup s;
    s.cfg = tb::campaign1_config(tb::campaign_scale::normal);
    s.cfg.seed = sim::derive_seed(seed, "campaign");
    s.cfg.jobs = 1;
    s.cfg.epoch.cross = fluid ? tcppred::net::cross_model::fluid
                              : tcppred::net::cross_model::packet;
    for (const tb::path_profile& p : catalogue()) {
        s.paths.push_back(&p);
        for (int t = 0; t < k_traces; ++t) {
            // The same per-trace seed derivation run_campaign uses.
            s.loads.push_back(tb::load_trajectory(
                p,
                sim::derive_seed(s.cfg.seed, "trace", static_cast<std::uint64_t>(p.id),
                                 static_cast<std::uint64_t>(t)),
                k_plan_epochs));
        }
    }
    // Epoch-major: every (path, trace) series advances one epoch per round.
    // Within a round the paths are visited with a stride coprime to their
    // count, so consecutive epochs cycle through the path classes and any
    // second of the run sees the same class mix.
    const std::size_t n = s.paths.size();
    const std::size_t stride = 13;
    for (int e = 0; e < k_plan_epochs; ++e) {
        for (int t = 0; t < k_traces; ++t) {
            for (std::size_t i = 0; i < n; ++i) s.plan.push_back({i * stride % n, t, e});
        }
    }
    return s;
}

/// The canary: run_campaign (jobs=1) at the campaign-1 seed, restricted to
/// the sample paths, first epoch of the first trace.
std::uint64_t canary_digest(bool fluid, bool corrupt) {
    tb::campaign_config cfg = tb::campaign1_config(tb::campaign_scale::normal);
    cfg.traces_per_path = 1;
    cfg.epochs_per_trace = 1;
    cfg.jobs = 1;
    cfg.epoch.cross = fluid ? tcppred::net::cross_model::fluid
                            : tcppred::net::cross_model::packet;
    tb::campaign_run_options opts;
    // One trace of one epoch per path: the linear epoch index is the path's.
    opts.epoch_filter = [](std::size_t idx) {
        for (const int i : k_sample_paths) {
            if (static_cast<std::size_t>(i) == idx) return true;
        }
        return false;
    };
    tb::campaign_outcome out = tb::run_campaign_resumable(cfg, opts);
    if (corrupt) out.data.records[k_sample_paths[0]].m.r_large_bps += 1.0;
    std::uint64_t h = 1469598103934665603ULL;
    for (const int i : k_sample_paths) {
        h = record_digest(out.data.records[static_cast<std::size_t>(i)], h);
    }
    return h;
}

}  // namespace

void run_campaign_workload(const options& opt, bool fluid, run_result& out) {
    // Set-up: per-trace load trajectories and the epoch plan.
    std::vector<double> setups;
    campaign_setup s;
    for (int i = 0; i < 9; ++i) {
        const std::int64_t t0 = now_ns();
        s = make_setup(opt.seed, fluid);
        setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    out.set("setup_s", median(setups), "s");

    std::size_t next = 0;
    std::vector<double> lat_ms;
    std::vector<std::int64_t> done_ns;
    std::vector<std::pair<std::size_t, std::uint64_t>> digests;  // plan index, digest
    // Runs epochs for `seconds`; returns the median over 1 s windows of
    // epochs per second.
    const auto loop = [&](double seconds) {
        const std::int64_t start = now_ns();
        done_ns.clear();
        const auto limit = static_cast<std::int64_t>(seconds * 1e9);
        while (now_ns() - start < limit) {
            const std::size_t idx = next++ % s.plan.size();
            const std::int64_t t0 = now_ns();
            tb::epoch_record rec;
            {
                const span sp("testbed.simulate_campaign_epoch");
                rec = s.simulate(s.plan[idx]);
            }
            const std::int64_t t1 = now_ns();
            lat_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
            done_ns.push_back(t1);
            digests.emplace_back(idx, record_digest(rec));
            ++out.attempted;
            if (rec.m.fault_flags != 0 || !std::isfinite(rec.m.r_large_bps) ||
                rec.m.r_large_bps <= 0.0 || rec.m.events == 0) {
                ++out.failed;
            }
        }
        return windowed_rate(done_ns, start, now_ns(), 1000000000);
    };

    if (opt.trace) {
        trace_overhead(opt.seconds, out, loop);
    } else {
        out.set("epochs_per_s", loop(opt.seconds), "1/s");
        out.set("epoch_ms_p50", windowed_percentile(lat_ms, 200, 0.50), "ms");
        out.set("epoch_ms_p95", windowed_percentile(lat_ms, 200, 0.95), "ms");
        out.set("rss_peak_mb", rss_peak_bytes() / 1048576.0, "MB");
        std::fprintf(stderr, "campaign: %zu epochs\n", lat_ms.size());
    }

    // Correctness 1: pinned digest of the canary at the campaign-1 seed.
    const std::uint64_t want = fluid ? k_canary_fluid : k_canary_packet;
    const std::uint64_t got = canary_digest(fluid, corrupting(opt, "campaign_digest"));
    std::fprintf(stderr, "campaign canary digest 0x%016llx (pinned 0x%016llx)\n",
                 static_cast<unsigned long long>(got), static_cast<unsigned long long>(want));
    out.check(got == want, "campaign canary digest matches the pinned value");

    // Correctness 2: sampled epochs of this run re-simulate bitwise.
    sim::rng pick(sim::derive_seed(opt.seed, "resim"));
    bool same = !digests.empty();
    for (int i = 0; i < 16 && !digests.empty(); ++i) {
        const auto& [idx, digest] = digests[static_cast<std::size_t>(
            pick.uniform_int(0, static_cast<std::int64_t>(digests.size()) - 1))];
        std::uint64_t again = record_digest(s.simulate(s.plan[idx]));
        if (i == 0 && corrupting(opt, "campaign_resim")) again ^= 1;
        same = same && again == digest;
    }
    out.check(same, "sampled epochs re-simulate bitwise");
}

}  // namespace perfbench
