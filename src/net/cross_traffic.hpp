// Unresponsive (open-loop) cross-traffic sources. They inject packets into
// a single queue of a path: the background load against which the target
// flow, the probes and the elastic flows compete.
#pragma once

#include <array>
#include <cstdint>

#include "net/packet.hpp"
#include "net/path.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace tcppred::net {

/// How unresponsive cross traffic is realized at the shared queue.
///
///  - `packet`: every cross packet is a scheduler event transiting the link
///    (exact drop-tail interaction; the default, and the model all default
///    goldens are pinned against).
///  - `fluid`: the aggregate is a piecewise-constant fluid rate applied to
///    the link (net::link::add_fluid_rate). Foreground packets wait behind
///    the fluid backlog and are dropped when packets + fluid overflow the
///    buffer, but no per-packet cross events exist — a Poisson source costs
///    zero events, an on/off source two per burst cycle. Statistically
///    equivalent at burst granularity, not packet granularity: see
///    DESIGN.md §13.5 for the equivalence argument and pinned goldens.
enum class cross_model {
    packet,
    fluid,
};

/// Empirical-style Internet packet size mix (40/576/1500 with the classic
/// trimodal weights). Gives the cross traffic realistic per-packet
/// granularity at the queue.
struct packet_size_mix {
    std::array<std::uint32_t, 3> sizes{40, 576, 1500};
    std::array<double, 3> weights{0.3, 0.2, 0.5};

    [[nodiscard]] double mean_bytes() const noexcept {
        double m = 0.0;
        for (std::size_t i = 0; i < sizes.size(); ++i) m += weights[i] * sizes[i];
        return m;
    }

    [[nodiscard]] std::uint32_t draw(sim::rng& r) const {
        double u = r.uniform();
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            if (u < weights[i]) return sizes[i];
            u -= weights[i];
        }
        return sizes.back();
    }
};

/// Poisson packet-arrival source at a configurable bit rate. In packet mode
/// its single pending arrival is an event stream (DESIGN.md §13.7).
class poisson_source final : public sim::event_stream {
public:
    poisson_source(sim::scheduler& sched, duplex_path& path, std::size_t link_index,
                   flow_id flow, std::uint64_t seed, double rate_bps,
                   packet_size_mix mix = {}, cross_model model = cross_model::packet);

    /// Begin emitting packets (idempotent). In fluid mode this applies the
    /// constant rate to the link instead — no events at all. Restarting
    /// before a stopped source's pending arrival fired resumes that arrival.
    void start();
    /// Stop emitting (already-queued packets still drain; the pending
    /// arrival still fires, as a no-op).
    void stop();
    /// Change the offered load; takes effect from the next arrival (packet
    /// mode) or immediately (fluid mode).
    void set_rate(double rate_bps);
    [[nodiscard]] double rate_bps() const noexcept { return rate_bps_; }

private:
    void schedule_next();
    void fire_head() override;

    duplex_path* path_;
    std::size_t link_index_;
    flow_id flow_;
    sim::rng rng_;
    double rate_bps_;
    packet_size_mix mix_;
    double mean_packet_bits_;  ///< mix_.mean_bytes() * 8.0, once per source
    cross_model model_;
    bool running_{false};
    std::uint64_t seq_{0};
};

/// Parameters of a Pareto on/off source: heavy-tailed ON periods at a fixed
/// peak rate, exponential OFF periods. The standard model for bursty,
/// LRD-like background traffic; its mean rate is peak * on/(on+off).
struct pareto_onoff_config {
    double peak_rate_bps{4e6};
    double mean_on_s{0.20};
    double mean_off_s{0.30};
    double pareto_shape{1.9};  ///< ON-period tail index (1,2] = very bursty
    std::uint32_t packet_bytes{1500};
};

/// In packet mode the in-burst emit chain is an event stream (one pending
/// emission, DESIGN.md §13.7); the burst boundaries stay scheduler timers.
class pareto_onoff_source final : public sim::event_stream {
public:
    pareto_onoff_source(sim::scheduler& sched, duplex_path& path, std::size_t link_index,
                        flow_id flow, std::uint64_t seed, pareto_onoff_config cfg,
                        cross_model model = cross_model::packet);

    /// Begin the on/off cycle (idempotent). Restarting before a stopped
    /// source's pending cycle event fired resumes that cycle.
    void start();
    void stop();

    /// Long-run average offered rate.
    [[nodiscard]] double mean_rate_bps() const noexcept {
        return cfg_.peak_rate_bps * cfg_.mean_on_s / (cfg_.mean_on_s + cfg_.mean_off_s);
    }

    /// Scale the peak rate so the mean offered rate equals `rate_bps`.
    void set_mean_rate(double rate_bps);

private:
    void begin_on_period();
    void end_on_period();
    void schedule_begin();
    void emit();
    void fire_head() override;

    duplex_path* path_;
    std::size_t link_index_;
    flow_id flow_;
    sim::rng rng_;
    pareto_onoff_config cfg_;
    cross_model model_;
    bool running_{false};
    bool cycle_pending_{false};     ///< a burst-boundary timer is pending
    double burst_until_{0.0};       ///< end of the current ON period (packet mode)
    double applied_rate_bps_{0.0};  ///< fluid rate currently on the link
    std::uint64_t seq_{0};
};

}  // namespace tcppred::net
