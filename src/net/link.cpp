#include "net/link.hpp"

#include <algorithm>

namespace tcppred::net {

void link::set_random_loss(double probability, std::uint64_t seed,
                           double burst_duration_s) {
    random_loss_ = probability;
    loss_burst_s_ = burst_duration_s;
    loss_rng_.emplace(seed);
    in_bad_state_ = false;
    if (burst_duration_s > 0.0 && probability > 0.0 && probability < 1.0) {
        // Start inside a good period of the stationary process.
        const double mean_good = burst_duration_s * (1.0 - probability) / probability;
        state_until_ = sched().now() + loss_rng_->exponential(mean_good);
    } else {
        state_until_ = 0.0;
    }
}

bool link::random_loss_hit() {
    if (random_loss_ <= 0.0 || !loss_rng_) return false;
    if (loss_burst_s_ <= 0.0) return loss_rng_->chance(random_loss_);

    // Gilbert-Elliott in time: advance the two-state machine lazily to now.
    // Mean good duration G solves loss = bad/(bad+good): G = B(1-p)/p.
    const double now = sched().now();
    while (now >= state_until_) {
        if (in_bad_state_) {
            in_bad_state_ = false;
            const double mean_good = loss_burst_s_ * (1.0 - random_loss_) / random_loss_;
            state_until_ += loss_rng_->exponential(mean_good);
        } else {
            in_bad_state_ = true;
            state_until_ += loss_rng_->exponential(loss_burst_s_);
        }
    }
    return in_bad_state_;
}

void link::set_outage(double from_s, double until_s) {
    outage_from_ = from_s;
    outage_until_ = until_s;
}

void link::add_fluid_rate(double delta_bps) {
    if (!fluid_active_) {
        fluid_active_ = true;
        fluid_updated_ = sched().now();
    }
    advance_fluid();  // integrate the old rate up to the change instant
    fluid_rate_ += delta_bps;
    if (fluid_rate_ < 0.0) fluid_rate_ = 0.0;
}

void link::advance_fluid() {
    const double now = sched().now();
    const double dt = now - fluid_updated_;
    fluid_updated_ = now;
    if (dt <= 0.0) return;
    if (transmitting_) {
        // The server is held by a packet: fluid accumulates behind the queue.
        const double arrived = fluid_rate_ * dt;
        fluid_tail_bits_ += arrived;
        fluid_total_bits_ += arrived;
    } else {
        // Idle server: fluid is served at capacity while arriving at its
        // rate. All fluid is tail fluid here (no packets are queued).
        const double delta = (fluid_rate_ - capacity_bps_) * dt;
        fluid_tail_bits_ = std::max(0.0, fluid_tail_bits_ + delta);
        fluid_total_bits_ = fluid_tail_bits_;
    }
    // Fluid overflowing the shared drop-tail buffer is lost, exactly like a
    // cross packet arriving to a full queue.
    const double cap_bits =
        (static_cast<double>(buffer_packets_) - static_cast<double>(queue_.size())) *
        fluid_pkt_bits_;
    if (fluid_total_bits_ > cap_bits) {
        const double excess = fluid_total_bits_ - std::max(cap_bits, 0.0);
        const double removed = std::min(excess, fluid_tail_bits_);
        fluid_tail_bits_ -= removed;
        fluid_total_bits_ -= removed;
    }
}

bool link::enqueue(packet p) {
    const double now = sched().now();
    if (now >= outage_from_ && now < outage_until_) {
        ++stats_.dropped;
        return false;
    }
    if (random_loss_hit()) {
        ++stats_.dropped;
        return false;
    }
    if (fluid_active_) advance_fluid();
    if (!transmitting_) {
        // Fluid already queued ahead may fill the buffer on its own.
        if (fluid_active_ &&
            fluid_total_bits_ / fluid_pkt_bits_ >= static_cast<double>(buffer_packets_)) {
            ++stats_.dropped;
            return false;
        }
        ++stats_.enqueued;
        const double ahead = fluid_tail_bits_;
        fluid_tail_bits_ = 0.0;
        start_transmission(p, ahead);
        publish_head();
        return true;
    }
    double occupancy = static_cast<double>(queue_.size());
    if (fluid_active_) occupancy += fluid_total_bits_ / fluid_pkt_bits_;
    if (occupancy >= static_cast<double>(buffer_packets_)) {
        ++stats_.dropped;
        return false;
    }
    ++stats_.enqueued;
    queue_.push_back(queued{p, fluid_tail_bits_});
    fluid_tail_bits_ = 0.0;
    return true;
}

void link::start_transmission(packet p, double fluid_ahead_bits) {
    transmitting_ = true;
    double tx = tx_time(p.size_bytes);
    if (fluid_ahead_bits > 0.0) {
        // Serve the fluid queued ahead of this packet first (FIFO): its
        // flush time delays the packet's transmission completion.
        tx += fluid_ahead_bits / capacity_bps_;
        fluid_total_bits_ = std::max(0.0, fluid_total_bits_ - fluid_ahead_bits);
    }
    stats_.busy_time += tx;
    tx_key_ = admit_in(tx);
    tx_packet_ = p;
}

void link::publish_head() {
    // A new transmission can complete before the wire's front arrives: the
    // head may move earlier as well as later.
    head_is_tx_ = transmitting_ && (wire_.empty() || tx_key_ < wire_.front().key);
    if (head_is_tx_) {
        set_head(tx_key_);
    } else if (!wire_.empty()) {
        set_head(wire_.front().key);
    } else {
        clear_head();
    }
}

void link::fire_head() {
    if (head_is_tx_) {
        complete_transmission();
        return;
    }
    // A propagated packet reaches the far end.
    const packet p = wire_.pop_front().value;
    release();
    publish_head();
    if (sink_) sink_(p);
}

void link::complete_transmission() {
    release();
    if (fluid_active_) advance_fluid();
    ++stats_.delivered;
    stats_.bytes_delivered += tx_packet_.size_bytes;
    // Key order of the two admissions: the delivery first, then the next
    // transmission's completion.
    wire_.push_back({admit_in(prop_delay_), tx_packet_});
    if (queue_.empty()) {
        transmitting_ = false;
    } else {
        const queued next = queue_.pop_front();
        start_transmission(next.p, next.fluid_ahead_bits);
    }
    publish_head();
}

}  // namespace tcppred::net
