// Randomized equivalence test for the timer-array scheduler: drives the
// real scheduler and a trivially-correct reference queue with the same
// operation stream and requires identical firing order. This pins the
// dispatch contract (DESIGN.md §13.2) — strictly by (when, id), FIFO among
// simultaneous events, cancellation a safe no-op at any time — which is
// exactly the property that makes campaign CSVs byte-identical across
// scheduler implementations. The reference also models event streams
// (§13.7): their entries are ordinary (when, id) entries that are never
// cancelled, so a stream event must fire exactly where the same event as a
// timer would have.
#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <utility>
#include <vector>

namespace tcppred::sim {
namespace {

/// Reference priority queue with the same semantics as any correct
/// implementation of the scheduler contract: min by (when, id) among
/// never-cancelled entries. O(n) pop by linear scan — obviously right.
class reference_queue {
public:
    void schedule(double when, std::uint64_t id) { entries_.push_back({when, id, true}); }

    /// Cancels a pending entry; returns false when it already fired or was
    /// already cancelled (the real scheduler must treat that as a no-op).
    bool cancel(std::uint64_t id) {
        for (entry& e : entries_) {
            if (e.id == id && e.alive) {
                e.alive = false;
                return true;
            }
        }
        return false;
    }

    /// Pops the (when, id)-minimum live entry; 0 when empty.
    std::uint64_t pop_min() {
        entry* best = nullptr;
        for (entry& e : entries_) {
            if (!e.alive) continue;
            if (best == nullptr || e.when < best->when ||
                (e.when == best->when && e.id < best->id)) {
                best = &e;
            }
        }
        if (best == nullptr) return 0;
        best->alive = false;
        return best->id;
    }

    [[nodiscard]] std::size_t live() const {
        return static_cast<std::size_t>(
            std::count_if(entries_.begin(), entries_.end(),
                          [](const entry& e) { return e.alive; }));
    }

private:
    struct entry {
        double when;
        std::uint64_t id;
        bool alive;
    };
    std::vector<entry> entries_;
};

/// A stream shaped like a link: a FIFO whose keys are admitted in order,
/// plus one slot that may hold a key anywhere relative to the FIFO (a
/// transmission completing before the wire's front). Its head therefore
/// moves later when an entry fires and earlier when the slot fills.
class slotted_fifo final : public event_stream {
public:
    slotted_fifo(scheduler& s, std::vector<std::uint64_t>& log, std::function<void()> on_fire)
        : event_stream(s), log_(&log), on_fire_(std::move(on_fire)) {}

    [[nodiscard]] double back_when() const {
        return fifo_.empty() ? sched().now() : fifo_.back().when;
    }
    [[nodiscard]] bool slot_free() const { return !slot_.has_value(); }

    /// Admit a FIFO entry `delay` from now; the caller keeps FIFO order.
    event_key push(double delay) {
        fifo_.push_back(admit_in(delay));
        publish();
        return fifo_.back();
    }

    /// Fill the slot `delay` from now. Precondition: slot_free().
    event_key fill_slot(double delay) {
        slot_ = admit_in(delay);
        publish();
        return *slot_;
    }

private:
    void publish() {
        if (slot_ && (fifo_.empty() || *slot_ < fifo_.front())) {
            set_head(*slot_);
        } else if (!fifo_.empty()) {
            set_head(fifo_.front());
        } else {
            clear_head();
        }
    }

    void fire_head() override {
        event_key k;
        if (slot_ && (fifo_.empty() || *slot_ < fifo_.front())) {
            k = *slot_;
            slot_.reset();
        } else {
            k = fifo_.front();
            fifo_.pop_front();
        }
        release();
        publish();
        EXPECT_EQ(k.when, sched().now());
        log_->push_back(k.id);
        on_fire_();
    }

    std::vector<std::uint64_t>* log_;
    std::function<void()> on_fire_;
    std::deque<event_key> fifo_;
    std::optional<event_key> slot_;
};

TEST(scheduler_stress, streams_merge_with_timers_like_reference) {
    // Every time is a multiple of 2^-20 s below 2^20 s, so now() + delay is
    // exact: FIFO pushes can land exactly on the back's `when`, and stream
    // heads exactly on timers' and other heads' times. A coarse
    // grid makes such ties common.
    std::mt19937_64 gen(20051005);
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    const auto draw_delay = [&] {
        if (u01(gen) < 0.5) return std::ldexp(static_cast<double>(gen() % 8), -4);  // ties
        return std::ldexp(static_cast<double>(gen() % (1u << 22)), -20);  // up to 4 s
    };

    scheduler s;
    reference_queue ref;
    std::vector<std::uint64_t> real_order;
    std::vector<event_handle> handles;
    std::vector<std::unique_ptr<slotted_fifo>> streams;

    // One random scheduling operation, mirrored into the reference. Also
    // run from inside firing handlers, so streams are re-entered mid-fire.
    std::function<void()> random_op = [&] {
        const double dice = u01(gen);
        if (dice < 0.3) {
            const double when = s.now() + draw_delay();
            const event_handle h =
                s.schedule_at(when, [&real_order, &handles, slot = handles.size()] {
                    real_order.push_back(handles[slot].id);
                });
            handles.push_back(h);
            ref.schedule(when, h.id);
        } else if (dice < 0.4 && !handles.empty()) {
            const event_handle h = handles[gen() % handles.size()];
            ref.cancel(h.id);
            s.cancel(h);
        } else {
            slotted_fifo& st = *streams[gen() % streams.size()];
            if (dice < 0.55 && st.slot_free()) {
                const event_key k = st.fill_slot(draw_delay());
                ref.schedule(k.when, k.id);
            } else {
                // Keep FIFO order: never earlier than the current back.
                const double delay = std::max(draw_delay(), st.back_when() - s.now());
                const event_key k = st.push(delay);
                ref.schedule(k.when, k.id);
            }
        }
    };
    const auto on_fire = [&] {
        if (u01(gen) < 0.3) random_op();
    };
    for (int i = 0; i < 6; ++i) {
        streams.push_back(std::make_unique<slotted_fifo>(s, real_order, on_fire));
    }

    std::vector<std::uint64_t> ref_order;
    constexpr int k_ops = 40000;
    for (int i = 0; i < k_ops; ++i) {
        if (u01(gen) < 0.55 || ref.live() == 0) {
            random_op();
        } else {
            const std::uint64_t want = ref.pop_min();
            ref_order.push_back(want);
            ASSERT_TRUE(s.step());
            // pending() counts timers and stream entries alike, and a
            // cancelled timer leaves it at once: it equals the reference's
            // live entries, which include every unfired stream entry.
            EXPECT_EQ(s.pending(), ref.live());
        }
    }
    // Drain in lockstep: handlers keep scheduling (and cancelling) while
    // the queues empty, and the streams refill after emptying.
    for (std::uint64_t want = ref.pop_min(); want != 0; want = ref.pop_min()) {
        ref_order.push_back(want);
        ASSERT_TRUE(s.step());
    }
    EXPECT_FALSE(s.step());
    EXPECT_EQ(real_order, ref_order);
    EXPECT_EQ(s.pending(), 0u);
    EXPECT_EQ(s.fired(), real_order.size());
}

TEST(scheduler_stress, randomized_firing_order_matches_reference) {
    // Mixed continuous and grid-quantized times: the grid forces many exact
    // timestamp collisions, stressing the FIFO tie-break of the sorted
    // insertion; the continuous part spreads timers over very different
    // horizons.
    std::mt19937_64 gen(20040501);
    std::uniform_real_distribution<double> u01(0.0, 1.0);

    scheduler s;
    reference_queue ref;
    std::vector<event_handle> live_handles;

    constexpr int k_ops = 60000;
    for (int i = 0; i < k_ops; ++i) {
        const double dice = u01(gen);
        if (dice < 0.55 || ref.live() == 0) {
            double dt = u01(gen) < 0.3
                            ? 0.001 * static_cast<double>(gen() % 50)  // grid: ties
                            : u01(gen) * 10.0;                         // continuous
            if (u01(gen) < 0.02) dt = 0.0;  // schedule exactly at now()
            const double when = s.now() + dt;
            const event_handle h = s.schedule_at(when, [] {});
            ref.schedule(when, h.id);
            live_handles.push_back(h);
        } else if (dice < 0.75 && !live_handles.empty()) {
            // Cancel a random handle: maybe pending, maybe already fired —
            // both must be safe, and only a pending one may change the order.
            const std::size_t pick = gen() % live_handles.size();
            const event_handle h = live_handles[pick];
            const bool was_live = ref.cancel(h.id);
            s.cancel(h);
            (void)was_live;
        } else {
            const std::uint64_t want = ref.pop_min();
            if (want == 0) {
                EXPECT_FALSE(s.step());
            } else {
                const std::uint64_t fired_before = s.fired();
                ASSERT_TRUE(s.step());
                EXPECT_EQ(s.fired(), fired_before + 1);
            }
        }
    }
    // Drain both queues completely and compare the tail order too.
    while (true) {
        const std::uint64_t want = ref.pop_min();
        if (want == 0) {
            EXPECT_FALSE(s.step());
            break;
        }
        ASSERT_TRUE(s.step());
    }
    EXPECT_EQ(s.pending(), 0u);
}

TEST(scheduler_stress, firing_order_is_tracked_per_event) {
    // The structural variant above checks pop-for-pop agreement; this one
    // checks the actual identity of every fired event against the reference,
    // with heavy same-timestamp collision and interleaved cancellation.
    std::mt19937_64 gen(19880315);
    std::uniform_real_distribution<double> u01(0.0, 1.0);

    scheduler s;
    reference_queue ref;
    std::vector<std::uint64_t> real_order;
    std::vector<std::uint64_t> ref_order;
    std::vector<event_handle> handles;

    constexpr int k_events = 20000;
    for (int i = 0; i < k_events; ++i) {
        // 16-slot grid => massive tie groups.
        const double when = 0.25 * static_cast<double>(gen() % 16);
        event_handle h{};
        h = s.schedule_at(when, [&real_order, &handles, slot = handles.size()] {
            real_order.push_back(handles[slot].id);
        });
        handles.push_back(h);
        ref.schedule(when, h.id);
        if (u01(gen) < 0.25 && !handles.empty()) {
            const std::size_t pick = gen() % handles.size();
            s.cancel(handles[pick]);
            ref.cancel(handles[pick].id);
        }
    }
    while (s.step()) {
    }
    for (std::uint64_t id = ref.pop_min(); id != 0; id = ref.pop_min()) {
        ref_order.push_back(id);
    }
    EXPECT_EQ(real_order, ref_order);
}

TEST(scheduler_stress, stale_handle_never_cancels_a_reused_node) {
    scheduler s;
    // Fill and cancel a batch so the pool has nodes to reuse.
    std::vector<event_handle> first;
    for (int i = 0; i < 512; ++i) {
        first.push_back(s.schedule_at(1.0, [] {}));
    }
    for (const event_handle& h : first) s.cancel(h);

    // New events very likely reuse the cancelled batch's nodes.
    int fired = 0;
    std::vector<event_handle> second;
    for (int i = 0; i < 512; ++i) {
        second.push_back(s.schedule_at(2.0, [&fired] { ++fired; }));
    }
    // Stale cancels against the FIRST batch's handles must not kill the
    // second batch's events, even where the node pointer was recycled.
    for (const event_handle& h : first) s.cancel(h);
    s.run_all();
    EXPECT_EQ(fired, 512);

    // And cancelling after firing is a no-op too (ids never match again).
    for (const event_handle& h : second) s.cancel(h);
    EXPECT_EQ(s.pending(), 0u);
}

TEST(scheduler_stress, pool_reuse_keeps_fifo_order_after_cancellations) {
    scheduler s;
    std::vector<int> order;
    std::vector<event_handle> doomed;
    // Interleave survivors and doomed events at the same timestamp.
    for (int i = 0; i < 100; ++i) {
        if (i % 2 == 0) {
            s.schedule_at(5.0, [&order, i] { order.push_back(i); });
        } else {
            doomed.push_back(s.schedule_at(5.0, [] { ADD_FAILURE(); }));
        }
    }
    for (const event_handle& h : doomed) s.cancel(h);
    // Reused nodes get fresh (higher) ids: they must fire after survivors.
    for (int i = 100; i < 150; ++i) {
        s.schedule_at(5.0, [&order, i] { order.push_back(i); });
    }
    s.run_all();
    ASSERT_EQ(order.size(), 100u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    EXPECT_EQ(order.front(), 0);
    EXPECT_EQ(order.back(), 149);
}

TEST(scheduler_stress, wide_horizon_mix_stays_ordered) {
    // Microsecond-spaced events against hour-scale timers: a later event
    // must never fire first.
    scheduler s;
    std::vector<double> times;
    s.schedule_at(3600.0, [&times, &s] { times.push_back(s.now()); });
    s.schedule_at(7200.0, [&times, &s] { times.push_back(s.now()); });
    for (int i = 0; i < 1000; ++i) {
        s.schedule_at(1e-6 * static_cast<double>(i),
                      [&times, &s] { times.push_back(s.now()); });
    }
    s.run_all();
    ASSERT_EQ(times.size(), 1002u);
    EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
    EXPECT_DOUBLE_EQ(times.back(), 7200.0);
}

}  // namespace
}  // namespace tcppred::sim
