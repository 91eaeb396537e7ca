#include "sim/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace tcppred::sim {

namespace {
constexpr std::size_t k_pool_chunk = 256;  // nodes per pool growth
}  // namespace

scheduler::~scheduler() {
    // Streams that outlive their scheduler must not reach back into it.
    for (const stream_slot& slot : streams_) {
        slot.stream->slot_ = event_stream::k_idle;
        slot.stream->entries_ = 0;
    }
}

event_stream::~event_stream() {
    if (slot_ != k_idle) sched_->drop_stream(slot_);
    if (entries_ != 0) sched_->stream_entries_ -= entries_;
}

time_point scheduler::admit_time(time_point when) const {
    if (!std::isfinite(when)) {
        throw std::invalid_argument("scheduler: event scheduled at a non-finite time");
    }
    // Guard against accidental scheduling into the past; tolerate tiny
    // floating-point backsliding by clamping.
    if (now_ - when > 1e-9) {
        throw std::invalid_argument("scheduler: event scheduled in the past");
    }
    return now_;
}

scheduler::event_node* scheduler::alloc_node() {
    if (free_list_ == nullptr) {
        chunks_.push_back(std::make_unique<event_node[]>(k_pool_chunk));
        event_node* chunk = chunks_.back().get();
        for (std::size_t i = k_pool_chunk; i > 0; --i) free_node(&chunk[i - 1]);
    }
    event_node* n = free_list_;
    free_list_ = n->next;
    n->next = nullptr;
    return n;
}

void scheduler::free_node(event_node* n) noexcept {
    // Fired and cancelled nodes already have id == 0 and an empty callback.
    n->next = free_list_;
    free_list_ = n;
}

event_handle scheduler::enqueue(event_node* n, time_point when) {
    const event_key key{when, next_id_++};
    // Ids only grow, so upper_bound puts the new timer after every pending
    // one at the same instant: FIFO among simultaneous events.
    const auto at = std::upper_bound(timers_.begin(), timers_.end(), key,
                                     [](const event_key& k, const timer& t) { return k < t.key; });
    try {
        timers_.insert(at, timer{key, n});
    } catch (...) {
        n->cb.reset();
        free_node(n);
        throw;
    }
    n->when = key.when;
    n->id = key.id;
    return event_handle{key.id, n};
}

void scheduler::cancel(event_handle h) {
    if (!h.valid() || h.node == nullptr) return;
    auto* n = static_cast<event_node*>(h.node);
    if (n->id != h.id) return;  // already fired, cancelled, or slot reused
    const event_key key{n->when, n->id};
    const auto at = std::lower_bound(timers_.begin(), timers_.end(), key,
                                     [](const timer& t, const event_key& k) { return t.key < k; });
    TCPPRED_ASSERT(at != timers_.end() && at->node == n);
    timers_.erase(at);
    n->id = 0;
    n->cb.reset();
    free_node(n);
}

void scheduler::fire_timer() {
    event_node* const n = timers_.front().node;
    timers_.erase(timers_.begin());
    // Dispatch must never move simulated time backwards: schedule_at
    // clamps, so a violation here means the timer order itself broke.
    TCPPRED_ASSERT(n->when >= now_);
    now_ = n->when;
    ++fired_;
    // Spend the handle before the call, so cancelling the firing event from
    // inside its own callback is a no-op. The node stays off the free list
    // until the callback returns or throws, so nothing it schedules can
    // reuse it.
    n->id = 0;
    struct recycle_on_exit {
        scheduler* s;
        event_node* n;
        ~recycle_on_exit() { s->free_node(n); }
    } const guard{this, n};
    n->cb.invoke_and_reset();
}

bool scheduler::stream_first() const noexcept {
    return !streams_.empty() && (timers_.empty() || streams_.back().head < timers_.front().key);
}

void scheduler::fire_stream() {
    const stream_slot& front = streams_.back();
    // Same clock discipline as fire_timer(): admit_in() validated the time,
    // so a violation here means the merge order broke.
    TCPPRED_ASSERT(front.head.when >= now_);
    now_ = front.head.when;
    ++fired_;
    front.stream->fire_head();
}

bool scheduler::step() {
    if (stream_first()) {
        fire_stream();
    } else if (!timers_.empty()) {
        fire_timer();
    } else {
        return false;
    }
    return true;
}

void scheduler::run_until(time_point t_end) {
    for (;;) {
        if (stream_first()) {
            if (streams_.back().head.when > t_end) break;
            fire_stream();
        } else {
            if (timers_.empty() || timers_.front().key.when > t_end) break;
            fire_timer();
        }
    }
    if (now_ < t_end) now_ = t_end;
}

void scheduler::run_all() {
    while (step()) {
    }
}

}  // namespace tcppred::sim
