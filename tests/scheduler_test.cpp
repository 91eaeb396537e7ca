#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "net/packet.hpp"
#include "sim/ring.hpp"

namespace tcppred::sim {
namespace {

TEST(scheduler, starts_at_time_zero) {
    scheduler s;
    EXPECT_DOUBLE_EQ(s.now(), 0.0);
    EXPECT_EQ(s.pending(), 0u);
}

TEST(scheduler, fires_events_in_time_order) {
    scheduler s;
    std::vector<int> order;
    s.schedule_at(2.0, [&] { order.push_back(2); });
    s.schedule_at(1.0, [&] { order.push_back(1); });
    s.schedule_at(3.0, [&] { order.push_back(3); });
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(scheduler, simultaneous_events_fire_fifo) {
    scheduler s;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        s.schedule_at(1.0, [&order, i] { order.push_back(i); });
    }
    s.run_all();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(scheduler, schedule_in_is_relative_to_now) {
    scheduler s;
    double fired_at = -1.0;
    s.schedule_at(5.0, [&] { s.schedule_in(2.5, [&] { fired_at = s.now(); }); });
    s.run_all();
    EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(scheduler, rejects_events_in_the_past) {
    scheduler s;
    s.schedule_at(10.0, [] {});
    s.run_all();
    EXPECT_THROW(s.schedule_at(5.0, [] {}), std::invalid_argument);
}

TEST(scheduler, cancelled_event_does_not_fire) {
    scheduler s;
    bool fired = false;
    const event_handle h = s.schedule_at(1.0, [&] { fired = true; });
    s.cancel(h);
    s.run_all();
    EXPECT_FALSE(fired);
}

TEST(scheduler, cancelling_invalid_handle_is_safe) {
    scheduler s;
    s.cancel(event_handle{});
    s.cancel(event_handle{12345});
    bool fired = false;
    s.schedule_at(1.0, [&] { fired = true; });
    s.run_all();
    EXPECT_TRUE(fired);
}

TEST(scheduler, run_until_stops_at_horizon) {
    scheduler s;
    std::vector<double> fired;
    for (double t = 1.0; t <= 5.0; t += 1.0) {
        s.schedule_at(t, [&fired, &s] { fired.push_back(s.now()); });
    }
    s.run_until(3.0);
    EXPECT_EQ(fired.size(), 3u);
    EXPECT_DOUBLE_EQ(s.now(), 3.0);
    s.run_until(10.0);
    EXPECT_EQ(fired.size(), 5u);
    EXPECT_DOUBLE_EQ(s.now(), 10.0);
}

TEST(scheduler, cancel_leaves_pending_at_once) {
    // A cancelled event leaves pending() the moment it is cancelled, and its
    // callable is destroyed then; stale and spent handles change nothing.
    scheduler s;
    auto owned = std::make_shared<int>(1);
    const event_handle early = s.schedule_at(1.0, [owned] {});
    const event_handle late = s.schedule_at(2.0, [] {});
    EXPECT_EQ(s.pending(), 2u);
    s.cancel(early);
    EXPECT_EQ(s.pending(), 1u);
    EXPECT_EQ(owned.use_count(), 1);
    s.cancel(early);  // already cancelled
    EXPECT_EQ(s.pending(), 1u);
    EXPECT_TRUE(s.step());
    EXPECT_DOUBLE_EQ(s.now(), 2.0);
    s.cancel(late);  // already fired
    EXPECT_EQ(s.pending(), 0u);
    EXPECT_EQ(s.fired(), 1u);
}

TEST(scheduler, arm_cancel_churn_keeps_pending_at_live_count) {
    // The delayed-ACK pattern: a timer armed and cancelled before it fires,
    // over and over, next to one far-future timer that stays live. pending()
    // must track the live timers exactly on every cycle.
    scheduler s;
    bool far_fired = false;
    s.schedule_at(1e6, [&] { far_fired = true; });
    int ticks = 0;
    std::size_t mismatches = 0;
    constexpr int k_cycles = 100000;
    for (int i = 0; i < k_cycles; ++i) {
        const event_handle h = s.schedule_in(0.2 + 1e-3 * (i % 7), [] { ADD_FAILURE(); });
        if (s.pending() != 2u) ++mismatches;
        s.cancel(h);
        if (s.pending() != 1u) ++mismatches;
        if (i % 10 == 0) {  // let simulated time advance between bursts
            s.schedule_in(0.01, [&] { ++ticks; });
            if (!s.step()) ++mismatches;
            if (s.pending() != 1u) ++mismatches;
        }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(ticks, k_cycles / 10);
    s.run_all();
    EXPECT_TRUE(far_fired);
    EXPECT_EQ(s.fired(), static_cast<std::uint64_t>(k_cycles / 10 + 1));
    EXPECT_EQ(s.pending(), 0u);
}

TEST(scheduler, run_until_skips_cancelled_head) {
    scheduler s;
    bool late_fired = false;
    const event_handle h = s.schedule_at(1.0, [] {});
    s.schedule_at(5.0, [&] { late_fired = true; });
    s.cancel(h);
    s.run_until(2.0);
    EXPECT_FALSE(late_fired);
    EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(scheduler, events_scheduled_while_running_fire) {
    scheduler s;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 100) s.schedule_in(0.1, chain);
    };
    s.schedule_in(0.1, chain);
    s.run_all();
    EXPECT_EQ(count, 100);
    EXPECT_NEAR(s.now(), 10.0, 1e-9);
}

TEST(scheduler, fired_counts_events) {
    scheduler s;
    for (int i = 0; i < 7; ++i) s.schedule_at(static_cast<double>(i), [] {});
    s.run_all();
    EXPECT_EQ(s.fired(), 7u);
}

TEST(scheduler, step_returns_false_when_empty) {
    scheduler s;
    EXPECT_FALSE(s.step());
    s.schedule_at(1.0, [] {});
    EXPECT_TRUE(s.step());
    EXPECT_FALSE(s.step());
}

TEST(scheduler, rejects_non_finite_event_times) {
    scheduler s;
    constexpr double inf = std::numeric_limits<double>::infinity();
    bool fired = false;
    EXPECT_THROW(s.schedule_at(std::nan(""), [&] { fired = true; }), std::invalid_argument);
    EXPECT_THROW(s.schedule_at(inf, [&] { fired = true; }), std::invalid_argument);
    EXPECT_THROW(s.schedule_at(-inf, [&] { fired = true; }), std::invalid_argument);
    EXPECT_THROW(s.schedule_in(std::nan(""), [&] { fired = true; }), std::invalid_argument);
    EXPECT_THROW(s.schedule_in(inf, [&] { fired = true; }), std::invalid_argument);
    EXPECT_EQ(s.pending(), 0u);
    // A rejected schedule leaves the scheduler fully usable.
    s.schedule_at(1.0, [&] { fired = true; });
    s.run_all();
    EXPECT_TRUE(fired);
    EXPECT_EQ(s.fired(), 1u);
}

TEST(scheduler, far_future_events_keep_dispatch_order) {
    // Times far beyond any simulated horizon must still order correctly
    // among themselves and after near events.
    scheduler s;
    std::vector<int> order;
    s.schedule_at(1e300, [&] { order.push_back(3); });
    s.schedule_at(1e299, [&] { order.push_back(2); });
    s.schedule_at(1e300, [&] { order.push_back(4); });
    s.schedule_at(1.0, [&] { order.push_back(1); });
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(scheduler, cancelling_own_handle_inside_callback_is_noop) {
    scheduler s;
    event_handle self;
    std::vector<int> order;
    self = s.schedule_at(1.0, [&] {
        order.push_back(1);
        s.cancel(self);  // before anything is scheduled: nothing to cancel
        EXPECT_EQ(s.pending(), 0u);
        s.schedule_in(1.0, [&] { order.push_back(2); });
        s.cancel(self);  // after: must not hit the event just scheduled
        EXPECT_EQ(s.pending(), 1u);
    });
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(s.fired(), 2u);
    EXPECT_EQ(s.pending(), 0u);
}

TEST(scheduler, throwing_callback_leaves_scheduler_usable) {
    scheduler s;
    auto owned = std::make_shared<int>(7);
    std::vector<int> order;
    s.schedule_at(3.0, [&] { order.push_back(3); });
    s.schedule_at(1.0, [owned] { throw std::runtime_error("boom"); });
    s.schedule_at(2.0, [&] { order.push_back(2); });
    EXPECT_EQ(owned.use_count(), 2);
    EXPECT_THROW(s.run_all(), std::runtime_error);
    // The throwing event counts as fired, its callable is destroyed, and the
    // remaining events are still pending and fire in order.
    EXPECT_EQ(owned.use_count(), 1);
    EXPECT_DOUBLE_EQ(s.now(), 1.0);
    EXPECT_EQ(s.fired(), 1u);
    EXPECT_EQ(s.pending(), 2u);
    s.schedule_at(2.5, [&] { order.push_back(25); });
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{2, 25, 3}));
    EXPECT_EQ(s.pending(), 0u);
}

/// Minimal event stream: a fixed-delay FIFO whose entries run `on_fire`
/// with their admission index.
class fifo_stream final : public event_stream {
public:
    fifo_stream(scheduler& s, std::function<void(int)> on_fire)
        : event_stream(s), on_fire_(std::move(on_fire)) {}

    void push_in(double delay) {
        ring_.push_back({admit_in(delay), next_++});
        if (ring_.size() == 1) set_head(ring_.front().key);
    }

    [[nodiscard]] std::size_t size() const { return ring_.size(); }

private:
    void fire_head() override {
        const int v = ring_.pop_front().value;
        release();
        if (ring_.empty()) {
            clear_head();
        } else {
            set_head(ring_.front().key);
        }
        on_fire_(v);
    }

    std::function<void(int)> on_fire_;
    ring<keyed<int>> ring_;
    int next_{0};
};

TEST(scheduler_streams, interleave_with_timers_by_key) {
    scheduler s;
    std::vector<int> order;
    fifo_stream st(s, [&](int v) { order.push_back(100 + v); });
    s.schedule_at(1.0, [&] { order.push_back(1); });
    st.push_in(1.0);  // same instant, admitted later: fires after the event
    s.schedule_at(0.5, [&] { order.push_back(0); });
    st.push_in(2.0);
    s.schedule_at(2.0, [&] { order.push_back(2); });  // admitted after the entry
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 100, 101, 2}));
    EXPECT_EQ(s.fired(), 5u);
    EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(scheduler_streams, pending_counts_stream_entries) {
    scheduler s;
    fifo_stream st(s, [](int) {});
    st.push_in(1.0);
    st.push_in(2.0);
    s.schedule_at(1.5, [] {});
    EXPECT_EQ(s.pending(), 3u);
    EXPECT_TRUE(s.step());
    EXPECT_EQ(s.pending(), 2u);
    s.run_all();
    EXPECT_EQ(s.pending(), 0u);
    // An emptied stream refills and is merged again.
    st.push_in(0.25);
    EXPECT_EQ(s.pending(), 1u);
    EXPECT_TRUE(s.step());
    EXPECT_DOUBLE_EQ(s.now(), 2.25);
    EXPECT_FALSE(s.step());
}

TEST(scheduler_streams, throwing_handler_leaves_scheduler_usable) {
    scheduler s;
    std::vector<int> order;
    fifo_stream st(s, [&](int v) {
        if (v == 0) throw std::runtime_error("boom");
        order.push_back(v);
    });
    st.push_in(1.0);
    st.push_in(3.0);
    s.schedule_at(2.0, [&] { order.push_back(-2); });
    EXPECT_THROW(s.run_all(), std::runtime_error);
    // The throwing entry left the stream before its handler ran: it counts
    // as fired, is not pending, and the rest fire in order.
    EXPECT_DOUBLE_EQ(s.now(), 1.0);
    EXPECT_EQ(s.fired(), 1u);
    EXPECT_EQ(s.pending(), 2u);
    EXPECT_EQ(st.size(), 1u);
    s.run_all();
    EXPECT_EQ(order, (std::vector<int>{-2, 1}));
    EXPECT_EQ(s.pending(), 0u);
}

TEST(scheduler_streams, run_until_stops_at_stream_head_past_horizon) {
    scheduler s;
    int fired = 0;
    fifo_stream st(s, [&](int) { ++fired; });
    st.push_in(1.0);
    st.push_in(5.0);
    s.schedule_at(2.0, [&] { ++fired; });
    s.run_until(3.0);
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(s.now(), 3.0);
    EXPECT_EQ(s.pending(), 1u);
    // No timer pending: the stream head alone bounds the run.
    s.run_until(4.0);
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(s.now(), 4.0);
    s.run_until(5.0);  // inclusive, like timers
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(s.pending(), 0u);
}

TEST(scheduler_streams, detaching_a_non_empty_stream_drops_its_entries) {
    scheduler s;
    int fired = 0;
    auto st = std::make_unique<fifo_stream>(s, [&](int) { ++fired; });
    fifo_stream other(s, [&](int) { ++fired; });
    st->push_in(1.0);
    st->push_in(2.0);
    other.push_in(1.5);
    s.schedule_at(3.0, [&] { ++fired; });
    EXPECT_EQ(s.pending(), 4u);
    st.reset();
    EXPECT_EQ(s.pending(), 2u);
    s.run_all();
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(scheduler_streams, stream_may_outlive_its_scheduler) {
    auto s = std::make_unique<scheduler>();
    fifo_stream st(*s, [](int) {});
    st.push_in(1.0);
    s.reset();  // the stream's destructor must not reach the dead scheduler
    SUCCEED();
}

TEST(scheduler_streams, rejects_non_finite_delays) {
    scheduler s;
    fifo_stream st(s, [](int) {});
    EXPECT_THROW(st.push_in(std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    EXPECT_THROW(st.push_in(-1.0), std::invalid_argument);
    EXPECT_EQ(s.pending(), 0u);
    EXPECT_FALSE(s.step());
}

TEST(scheduler, packet_capture_fits_inline) {
    // The steady-state event shape: a component pointer plus a packet by
    // value (net/link.cpp, net/path.cpp) must not spill to the heap.
    const net::packet p{};
    const void* self = nullptr;
    const auto capture = [self, p] { (void)self, (void)p; };
    static_assert(sizeof(capture) <= small_callback::k_inline_bytes);
    EXPECT_LE(sizeof(capture), small_callback::k_inline_bytes);
}

TEST(scheduler, oversized_callable_uses_heap_fallback) {
    scheduler s;
    auto owned = std::make_shared<int>(0);
    std::array<unsigned char, small_callback::k_inline_bytes + 16> big{};
    static_assert(sizeof(big) > small_callback::k_inline_bytes);
    big.front() = 11;
    big.back() = 31;
    int sum = 0;
    s.schedule_at(1.0, [big, owned, &sum] { sum = big.front() + big.back() + *owned; });
    const event_handle doomed = s.schedule_at(2.0, [big, owned, &sum] { sum = big[0] + *owned - 1; });
    EXPECT_EQ(owned.use_count(), 3);
    s.cancel(doomed);  // cancelling frees the heap copy at once
    EXPECT_EQ(owned.use_count(), 2);
    s.run_all();
    EXPECT_EQ(sum, 42);
    EXPECT_EQ(owned.use_count(), 1);
}

TEST(scheduler, move_only_callables_are_accepted) {
    scheduler s;
    int got = 0;
    auto small = std::make_unique<int>(5);
    s.schedule_at(1.0, [p = std::move(small), &got] { got += *p; });
    std::array<unsigned char, small_callback::k_inline_bytes> pad{};
    auto large = std::make_unique<int>(37);
    s.schedule_at(2.0, [p = std::move(large), pad, &got] { got += *p + pad[0]; });
    s.run_all();
    EXPECT_EQ(got, 42);
}

TEST(scheduler, destroys_unfired_callables) {
    auto owned = std::make_shared<int>(0);
    {
        scheduler s;
        s.schedule_at(1.0, [owned] {});
        std::array<unsigned char, small_callback::k_inline_bytes + 1> big{};
        s.schedule_at(2.0, [owned, big] { (void)big; });
        EXPECT_EQ(owned.use_count(), 3);
    }
    EXPECT_EQ(owned.use_count(), 1);
}

}  // namespace
}  // namespace tcppred::sim
