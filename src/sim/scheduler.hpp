// Discrete-event scheduler: the clock and event queue every simulated
// component (links, TCP endpoints, probers, traffic sources) runs on.
//
// Implementation: one array of pending timers kept sorted by (when, id),
// over pool-allocated event nodes whose callbacks are constructed and
// invoked in place in inline small-buffer storage (sim/callback.hpp) — the
// steady-state schedule/fire cycle performs no heap allocation and never
// moves a callback. Components whose events are already in dispatch order
// (links, open-loop sources) bypass the timer array as event streams,
// merged with it by (when, id), so the array holds only a few dozen
// timers. Design and contracts: DESIGN.md §13.
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

/// Dispatch-order key of a pending event: events fire by ascending
/// (when, id) (DESIGN.md §13.2). Ids are unique, so keys never tie.
struct event_key {
    time_point when{0.0};
    std::uint64_t id{0};

    friend bool operator<(const event_key& a, const event_key& b) noexcept {
        return a.when < b.when || (a.when == b.when && a.id < b.id);
    }
};

class scheduler;

/// A component that keeps its own pending events because they are already
/// in (when, id) order — a FIFO of fixed-delay deliveries, a single pending
/// arrival — and shows the scheduler only its head (DESIGN.md §13.7).
///
/// The component takes each event's key from admit_in() at the moment it
/// would otherwise have called schedule_in(), and publishes its earliest
/// pending key with set_head() (or clear_head() when it has none) after
/// every change. The scheduler merges stream heads with its timers by key,
/// so firing order, every now() and fired() are exactly those of the same
/// events scheduled as timers. When its head fires, fire_head() runs with
/// now() already advanced; it must release() the entry and re-publish the
/// head before running any handler, so a throwing handler leaves the
/// scheduler usable. Stream events cannot be cancelled. A stream detaches
/// in its destructor, dropping whatever it still holds.
class event_stream {
public:
    event_stream(const event_stream&) = delete;
    event_stream& operator=(const event_stream&) = delete;

protected:
    explicit event_stream(scheduler& sched) noexcept : sched_(&sched) {}
    ~event_stream();

    [[nodiscard]] scheduler& sched() const noexcept { return *sched_; }
    /// True while a head is published (the stream holds pending entries).
    [[nodiscard]] bool has_head() const noexcept { return slot_ != k_idle; }
    /// Key of an event `delay` seconds from now (delay >= 0, finite; throws
    /// std::invalid_argument otherwise, like schedule_in), counted pending.
    [[nodiscard]] event_key admit_in(time_point delay);
    /// One admitted entry left the stream: it is firing now.
    void release() noexcept;
    /// Publish the earliest pending entry's key; it may move either way.
    void set_head(event_key head);
    /// Publish that the stream holds no pending entry.
    void clear_head() noexcept;

private:
    friend class scheduler;
    static constexpr std::size_t k_idle = static_cast<std::size_t>(-1);

    /// Fire the published head entry; now() is already its `when`.
    virtual void fire_head() = 0;

    scheduler* sched_;
    std::size_t slot_{k_idle};  ///< index in scheduler::streams_, k_idle if headless
    std::size_t entries_{0};    ///< admitted, not yet released
};

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
/// Event-stream heads (above) take part in the same order: a stream event
/// fires exactly where its key puts it among timers.
///
/// Callbacks are constructed directly in their pooled event node and invoked
/// there; they never move. While a callback runs, its own handle is already
/// spent (cancelling it is a no-op) and the node stays off the free list, so
/// events it schedules never reuse it.
///
/// Cancellation is eager (DESIGN.md §13.3): `cancel()` removes the event
/// from the timer array, destroys its callback and recycles its node at
/// once, so a cancelled event leaves `pending()` immediately. Cancelling
/// with a stale, spent or invalid handle is still a no-op.
class scheduler {
public:
    scheduler() = default;
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

    /// Cancel a previously scheduled event: it leaves pending() and its
    /// callable is destroyed before this returns. Safe to call with an
    /// invalid, already-fired, or already-cancelled handle (no effect).
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

    /// Number of events currently pending: timers plus event-stream entries.
    [[nodiscard]] std::size_t pending() const noexcept {
        return timers_.size() + stream_entries_;
    }

    /// Total number of events fired so far (diagnostics / micro-benchmarks).
    [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

private:
    friend class event_stream;

    /// Pool-allocated event node. Nodes never move once allocated; free
    /// nodes chain through `next` and have id == 0 and an empty callback.
    struct event_node {
        time_point when{0.0};
        std::uint64_t id{0};
        event_node* next{nullptr};
        small_callback cb;
    };
    /// Entry of the timer array: the node's key, kept inline so searches
    /// never touch the nodes.
    struct timer {
        event_key key;
        event_node* node;
    };

    /// Slow path of schedule_at's time check: clamps tiny floating-point
    /// backsliding to now(), throws on the past or a non-finite time.
    [[nodiscard]] time_point admit_time(time_point when) const;
    [[nodiscard]] event_node* alloc_node();
    void free_node(event_node* n) noexcept;
    event_handle enqueue(event_node* n, time_point when);
    /// True when the earliest stream head precedes the earliest timer.
    [[nodiscard]] bool stream_first() const noexcept;
    void fire_timer();
    void fire_stream();
    void move_stream(std::size_t i, event_key head) noexcept;
    void drop_stream(std::size_t i) noexcept;

    /// Pending timers in ascending (when, id) order: front() fires next.
    std::vector<timer> timers_;

    // --- node pool ---
    std::vector<std::unique_ptr<event_node[]>> chunks_;
    event_node* free_list_{nullptr};

    // --- event streams ---
    /// Headed streams, sorted by descending head key: back() fires next.
    struct stream_slot {
        event_key head;
        event_stream* stream;
    };
    std::vector<stream_slot> streams_;
    std::size_t stream_entries_{0};  ///< admitted, unreleased stream entries

    time_point now_{0.0};
    std::uint64_t next_id_{1};
    std::uint64_t fired_{0};
};

inline event_key event_stream::admit_in(time_point delay) {
    scheduler& s = *sched_;
    time_point when = s.now_ + delay;
    if (!(when >= s.now_ && std::isfinite(when))) [[unlikely]] when = s.admit_time(when);
    ++entries_;
    ++s.stream_entries_;
    return event_key{when, s.next_id_++};
}

inline void event_stream::release() noexcept {
    --entries_;
    --sched_->stream_entries_;
}

inline void event_stream::set_head(event_key head) {
    scheduler& s = *sched_;
    if (slot_ == k_idle) {
        s.streams_.push_back(scheduler::stream_slot{head, this});
        slot_ = s.streams_.size() - 1;
    }
    s.move_stream(slot_, head);
}

inline void event_stream::clear_head() noexcept {
    if (slot_ == k_idle) return;
    sched_->drop_stream(slot_);
    slot_ = k_idle;
}

inline void scheduler::move_stream(std::size_t i, event_key head) noexcept {
    // Incremental insertion-sort step: the head moved later (toward the
    // front of the descending array) or earlier (toward the back).
    stream_slot* a = streams_.data();
    event_stream* const st = a[i].stream;
    while (i > 0 && a[i - 1].head < head) {
        a[i] = a[i - 1];
        a[i].stream->slot_ = i;
        --i;
    }
    const std::size_t n = streams_.size();
    while (i + 1 < n && head < a[i + 1].head) {
        a[i] = a[i + 1];
        a[i].stream->slot_ = i;
        ++i;
    }
    a[i] = stream_slot{head, st};
    st->slot_ = i;
}

inline void scheduler::drop_stream(std::size_t i) noexcept {
    for (std::size_t j = i + 1; j < streams_.size(); ++j) {
        streams_[j - 1] = streams_[j];
        streams_[j - 1].stream->slot_ = j - 1;
    }
    streams_.pop_back();
}

}  // namespace tcppred::sim
