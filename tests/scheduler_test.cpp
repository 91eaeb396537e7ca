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
    // Times whose bucket number overflows any integer key must still order
    // correctly among themselves and after near events.
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
