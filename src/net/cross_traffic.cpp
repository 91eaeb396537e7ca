#include "net/cross_traffic.hpp"

#include <cmath>

namespace tcppred::net {

poisson_source::poisson_source(sim::scheduler& sched, duplex_path& path,
                               std::size_t link_index, flow_id flow, std::uint64_t seed,
                               double rate_bps, packet_size_mix mix, cross_model model)
    : sim::event_stream(sched),
      path_(&path),
      link_index_(link_index),
      flow_(flow),
      rng_(seed),
      rate_bps_(rate_bps),
      mix_(mix),
      mean_packet_bits_(mix.mean_bytes() * 8.0),
      model_(model) {}

void poisson_source::start() {
    if (running_) return;
    running_ = true;
    if (model_ == cross_model::fluid) {
        // A Poisson aggregate is a constant-rate fluid: no events, ever.
        path_->forward_link(link_index_).add_fluid_rate(rate_bps_);
        return;
    }
    if (!has_head()) schedule_next();
}

void poisson_source::stop() {
    if (running_ && model_ == cross_model::fluid) {
        path_->forward_link(link_index_).add_fluid_rate(-rate_bps_);
    }
    running_ = false;
}

void poisson_source::set_rate(double rate_bps) {
    if (running_ && model_ == cross_model::fluid) {
        path_->forward_link(link_index_).add_fluid_rate(rate_bps - rate_bps_);
    }
    rate_bps_ = rate_bps;
}

void poisson_source::schedule_next() {
    if (!running_ || rate_bps_ <= 0.0) return;
    const double mean_interarrival = mean_packet_bits_ / rate_bps_;
    set_head(admit_in(rng_.exponential(mean_interarrival)));
}

void poisson_source::fire_head() {
    release();
    clear_head();
    if (!running_) return;
    packet p;
    p.flow = flow_;
    p.kind = packet_kind::cross;
    p.size_bytes = mix_.draw(rng_);
    p.seq = seq_++;
    p.sent_at = sched().now();
    path_->inject_forward(link_index_, p);
    schedule_next();
}

pareto_onoff_source::pareto_onoff_source(sim::scheduler& sched, duplex_path& path,
                                         std::size_t link_index, flow_id flow,
                                         std::uint64_t seed, pareto_onoff_config cfg,
                                         cross_model model)
    : sim::event_stream(sched),
      path_(&path),
      link_index_(link_index),
      flow_(flow),
      rng_(seed),
      cfg_(cfg),
      model_(model) {}

void pareto_onoff_source::start() {
    if (running_) return;
    running_ = true;
    if (cycle_pending_ || has_head()) return;
    // Random initial OFF phase so concurrent sources don't synchronize.
    schedule_begin();
}

void pareto_onoff_source::schedule_begin() {
    cycle_pending_ = true;
    sched().schedule_in(rng_.exponential(cfg_.mean_off_s), [this] {
        cycle_pending_ = false;
        begin_on_period();
    });
}

void pareto_onoff_source::stop() {
    if (applied_rate_bps_ != 0.0) {
        path_->forward_link(link_index_).add_fluid_rate(-applied_rate_bps_);
        applied_rate_bps_ = 0.0;
    }
    running_ = false;
}

void pareto_onoff_source::set_mean_rate(double rate_bps) {
    const double peak =
        rate_bps * (cfg_.mean_on_s + cfg_.mean_off_s) / cfg_.mean_on_s;
    if (applied_rate_bps_ != 0.0) {
        // Mid-ON-period rate change: re-apply the fluid delta immediately.
        path_->forward_link(link_index_).add_fluid_rate(peak - applied_rate_bps_);
        applied_rate_bps_ = peak;
    }
    cfg_.peak_rate_bps = peak;
}

void pareto_onoff_source::begin_on_period() {
    if (!running_) return;
    // Pareto with mean = mean_on_s: xmin = mean * (shape-1)/shape.
    const double xmin = cfg_.mean_on_s * (cfg_.pareto_shape - 1.0) / cfg_.pareto_shape;
    const double on = rng_.pareto(cfg_.pareto_shape, xmin);
    if (model_ == cross_model::fluid) {
        // One burst = two events: rate up now, rate down at the burst end.
        path_->forward_link(link_index_).add_fluid_rate(cfg_.peak_rate_bps);
        applied_rate_bps_ = cfg_.peak_rate_bps;
        cycle_pending_ = true;
        sched().schedule_in(on, [this] {
            cycle_pending_ = false;
            end_on_period();
        });
        return;
    }
    burst_until_ = sched().now() + on;
    emit();
}

void pareto_onoff_source::end_on_period() {
    if (applied_rate_bps_ != 0.0) {
        path_->forward_link(link_index_).add_fluid_rate(-applied_rate_bps_);
        applied_rate_bps_ = 0.0;
    }
    if (!running_) return;
    schedule_begin();
}

void pareto_onoff_source::fire_head() {
    release();
    clear_head();
    emit();
}

void pareto_onoff_source::emit() {
    if (!running_) return;
    if (sched().now() >= burst_until_) {
        schedule_begin();
        return;
    }
    packet p;
    p.flow = flow_;
    p.kind = packet_kind::cross;
    p.size_bytes = cfg_.packet_bytes;
    p.seq = seq_++;
    p.sent_at = sched().now();
    path_->inject_forward(link_index_, p);
    const double spacing = cfg_.packet_bytes * 8.0 / cfg_.peak_rate_bps;
    // A zero mean rate (a path without a bursty share) means a zero peak
    // rate: the burst's first packet is its last, and the source falls
    // silent for good rather than parking an event at t = +inf.
    if (!std::isfinite(spacing)) return;
    set_head(admit_in(spacing));
}

}  // namespace tcppred::net
