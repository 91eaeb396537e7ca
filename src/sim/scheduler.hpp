// Discrete-event scheduler: the clock and event queue every simulated
// component (links, TCP endpoints, probers, traffic sources) runs on.
//
// Implementation: a calendar queue (Brown 1988) over pool-allocated event
// nodes whose callbacks are constructed and invoked in place in inline
// small-buffer storage (sim/callback.hpp) — the steady-state schedule/fire
// cycle performs no heap allocation and never moves a callback. Design and
// contracts: DESIGN.md §13.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callback.hpp"

namespace tcppred::sim {

/// Simulated time in seconds since the start of the simulation.
using time_point = double;

/// Opaque handle for a scheduled event, usable to cancel it before it fires.
/// A handle never dangles: cancelling after the event fired (or was itself
/// cancelled, or the slot was reused by a later event) is a safe no-op,
/// because the (node, id) pair only matches while the original event is
/// still pending.
struct event_handle {
    std::uint64_t id{0};
    void* node{nullptr};

    [[nodiscard]] bool valid() const noexcept { return id != 0; }
};

/// Single-threaded discrete-event scheduler.
///
/// Events are callbacks tagged with an absolute firing time. The dispatch
/// order contract (DESIGN.md §13.2):
///   - strictly by ascending firing time;
///   - events scheduled for the same instant fire in the order they were
///     scheduled (FIFO tie-breaking, by monotonically increasing event id),
///     which keeps packet-level simulations deterministic.
///
/// Callbacks are constructed directly in their pooled event node and invoked
/// there; they never move. While a callback runs, its own handle is already
/// spent (cancelling it is a no-op) and the node stays off the free list, so
/// events it schedules never reuse it.
///
/// Cancellation is O(1): `cancel()` marks the node dead and destroys its
/// callback immediately; the node itself is reclaimed when the queue next
/// walks past it (or on rebucketing). `pending()` counts such dead-but-not-
/// yet-reclaimed events, exactly as the previous heap-based implementation
/// counted cancelled-but-not-yet-popped entries.
class scheduler {
public:
    scheduler();
    ~scheduler();
    scheduler(const scheduler&) = delete;
    scheduler& operator=(const scheduler&) = delete;

    /// Current simulated time.
    [[nodiscard]] time_point now() const noexcept { return now_; }

    /// Schedule the `void()` callable `f` at absolute time `when`, which must
    /// be finite and >= now(); throws std::invalid_argument otherwise.
    template <typename F>
    event_handle schedule_at(time_point when, F&& f) {
        if (!(when >= now_ && std::isfinite(when))) [[unlikely]] when = admit_time(when);
        event_node* n = alloc_node();
        try {
            n->cb.emplace(std::forward<F>(f));
        } catch (...) {
            free_node(n);
            throw;
        }
        return enqueue(n, when);
    }

    /// Schedule `f` to fire `delay` seconds from now (delay >= 0).
    template <typename F>
    event_handle schedule_in(time_point delay, F&& f) {
        return schedule_at(now_ + delay, std::forward<F>(f));
    }

    /// Cancel a previously scheduled event. Safe to call with an invalid,
    /// already-fired, or already-cancelled handle (no effect).
    void cancel(event_handle h);

    /// Fire the next pending event, advancing the clock. Returns false when
    /// the queue is empty. If the callback throws, the exception propagates
    /// and the scheduler stays usable: the event counts as fired and its
    /// node is recycled.
    bool step();

    /// Run events until the queue is empty or the clock passes `t_end`.
    /// Leaves the clock at min(t_end, time of last event fired) — the clock
    /// is always advanced to `t_end` on return so subsequent schedule_in
    /// calls are relative to the horizon.
    void run_until(time_point t_end);

    /// Run until no events remain.
    void run_all();

    /// Number of events currently pending (including cancelled-but-not-yet
    /// reclaimed ones).
    [[nodiscard]] std::size_t pending() const noexcept { return live_ + dead_; }

    /// Total number of events fired so far (diagnostics / micro-benchmarks).
    [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

private:
    /// Pool-allocated intrusive event node. Nodes never move once allocated;
    /// buckets chain them through `next`. A dead (cancelled) node keeps its
    /// queue position but has id == 0 and an empty callback.
    struct event_node {
        time_point when{0.0};
        std::uint64_t id{0};
        event_node* next{nullptr};
        /// Virtual (un-wrapped) bucket of `when` at the current width,
        /// computed once per insertion.
        std::int64_t vbucket{0};
        small_callback cb;
    };

    /// Slow path of schedule_at's time check: clamps tiny floating-point
    /// backsliding to now(), throws on the past or a non-finite time.
    [[nodiscard]] time_point admit_time(time_point when) const;
    [[nodiscard]] event_node* alloc_node();
    void free_node(event_node* n) noexcept;
    event_handle enqueue(event_node* n, time_point when);
    void insert_node(event_node* n);
    [[nodiscard]] const event_node* peek_min();
    [[nodiscard]] event_node* pop_head();
    void fire(event_node* n);
    void rebucket(std::size_t new_bucket_count);
    void purge_all_dead() noexcept;
    /// Virtual bucket of an event time: floor(t / width), by truncation
    /// since t >= 0, saturated so far-future times stay representable.
    [[nodiscard]] std::int64_t bucket_key(time_point t) const noexcept;

    // --- calendar queue ---
    std::vector<event_node*> buckets_;
    std::size_t bucket_mask_{0};   ///< buckets_.size() - 1 (power of two)
    double inv_width_{1e3};        ///< 1 / bucket width (simulated seconds)
    std::int64_t v_cur_{0};        ///< virtual bucket the scan is positioned at
    std::size_t cur_{0};           ///< v_cur_ wrapped into buckets_
    std::size_t live_{0};          ///< pending, not cancelled
    std::size_t dead_{0};          ///< cancelled, not yet reclaimed
    /// EMA of positive inter-dequeue gaps: the width estimate feeding
    /// rebucket() (Brown's rule of thumb: width a small multiple of the
    /// mean gap keeps ~1 live event per bucket).
    double gap_ema_{0.0};
    double last_dequeued_{0.0};

    // --- node pool ---
    std::vector<std::unique_ptr<event_node[]>> chunks_;
    event_node* free_list_{nullptr};

    time_point now_{0.0};
    std::uint64_t next_id_{1};
    std::uint64_t fired_{0};
};

}  // namespace tcppred::sim
