#include "sim/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace tcppred::sim {

namespace {
constexpr std::size_t k_min_buckets = 64;    // power of two
constexpr std::size_t k_pool_chunk = 256;    // nodes per pool growth
/// Bucket width as a multiple of the mean inter-dequeue gap. Brown's
/// calendar-queue analysis wants a small multiple so the scan visits ~1
/// live event per bucket without long intra-bucket insertion walks.
constexpr double k_width_gap_factor = 4.0;
/// Saturation point of bucket_key: far-future times share one virtual
/// bucket (ordered inside it by `when`) instead of overflowing int64.
constexpr double k_max_bucket_key = 0x1p62;
}  // namespace

scheduler::scheduler() : buckets_(k_min_buckets, nullptr), bucket_mask_(k_min_buckets - 1) {}

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

std::int64_t scheduler::bucket_key(time_point t) const noexcept {
    return static_cast<std::int64_t>(std::min(t * inv_width_, k_max_bucket_key));
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

void scheduler::insert_node(event_node* n) {
    const std::int64_t vb = n->vbucket;
    // Keep the scan-position invariant: v_cur_ never exceeds the virtual
    // bucket of any pending event (otherwise the year-scan could return a
    // later event first).
    if (vb < v_cur_) {
        v_cur_ = vb;
        cur_ = static_cast<std::size_t>(vb) & bucket_mask_;
    }
    // Sorted insertion by (when, id): FIFO among simultaneous events. Dead
    // (cancelled) nodes the walk passes are reclaimed on the way, so wide
    // buckets under schedule/cancel churn (delayed-ACK timers) stay short.
    event_node** p = &buckets_[static_cast<std::size_t>(vb) & bucket_mask_];
    while (*p != nullptr) {
        event_node* q = *p;
        if (q->id == 0) {
            *p = q->next;
            --dead_;
            free_node(q);
            continue;
        }
        if (!(q->when < n->when || (q->when == n->when && q->id < n->id))) break;
        p = &q->next;
    }
    n->next = *p;
    *p = n;
}

event_handle scheduler::enqueue(event_node* n, time_point when) {
    n->when = when;
    n->id = next_id_++;
    n->vbucket = bucket_key(when);
    insert_node(n);
    cal_min_known_ = false;
    ++live_;
    if (live_ > buckets_.size() * 2) rebucket(buckets_.size() * 2);
    return event_handle{n->id, n};
}

void scheduler::cancel(event_handle h) {
    if (!h.valid() || h.node == nullptr) return;
    auto* n = static_cast<event_node*>(h.node);
    if (n->id != h.id) return;  // already fired, cancelled, or slot reused
    if (n == cal_min_) cal_min_known_ = false;
    n->id = 0;
    n->cb.reset();
    TCPPRED_ASSERT(live_ > 0);
    --live_;
    ++dead_;
}

void scheduler::purge_all_dead() noexcept {
    if (dead_ == 0) return;
    for (event_node*& head : buckets_) {
        while (head != nullptr) {
            event_node* n = head;
            head = n->next;
            free_node(n);
        }
    }
    dead_ = 0;
}

const scheduler::event_node* scheduler::peek_min() {
    if (live_ == 0) {
        // Match the previous implementation's observable behaviour: once
        // no live events remain, cancelled leftovers are discarded too.
        purge_all_dead();
        return nullptr;
    }
    std::size_t scanned = 0;
    for (;;) {
        // Reclaim dead nodes at the head of the bucket under the cursor.
        event_node** head = &buckets_[cur_];
        while (*head != nullptr && (*head)->id == 0) {
            event_node* d = *head;
            *head = d->next;
            --dead_;
            free_node(d);
        }
        event_node* h = *head;
        if (h != nullptr && h->vbucket <= v_cur_) return h;
        ++v_cur_;
        cur_ = (cur_ + 1) & bucket_mask_;
        if (++scanned > buckets_.size()) {
            // A full sweep found nothing in the current "year": the queue is
            // sparse relative to its horizon. When the dequeue gaps call for
            // buckets more than twice as wide, re-derive the width (event
            // streams leave the calendar only sparse timers) and sweep again;
            // otherwise jump straight to the bucket holding the global
            // minimum instead of sweeping year by year.
            if (gap_ema_ * k_width_gap_factor * inv_width_ > 2.0) {
                rebucket(buckets_.size());
                scanned = 0;
                continue;
            }
            const event_node* best = nullptr;
            for (event_node* b : buckets_) {
                event_node* n = b;
                while (n != nullptr && n->id == 0) n = n->next;
                if (n == nullptr) continue;
                if (best == nullptr || n->when < best->when ||
                    (n->when == best->when && n->id < best->id)) {
                    best = n;
                }
            }
            TCPPRED_ASSERT(best != nullptr);  // live_ > 0
            v_cur_ = best->vbucket;
            cur_ = static_cast<std::size_t>(v_cur_) & bucket_mask_;
            scanned = 0;
        }
    }
}

scheduler::event_node* scheduler::pop_head() {
    // Precondition: calendar_min() just returned non-null, which leaves the
    // cursor on the bucket whose head is the global minimum live event.
    event_node* h = buckets_[cur_];
    buckets_[cur_] = h->next;
    cal_min_known_ = false;
    h->next = nullptr;
    --live_;
    const double gap = h->when - last_dequeued_;
    last_dequeued_ = h->when;
    if (gap > 0.0) {
        gap_ema_ = gap_ema_ == 0.0 ? gap : 0.9 * gap_ema_ + 0.1 * gap;
    }
    if (buckets_.size() > k_min_buckets && live_ < buckets_.size() / 8) {
        rebucket(buckets_.size() / 2);
    }
    return h;
}

void scheduler::rebucket(std::size_t new_bucket_count) {
    // Gather live nodes (dropping dead ones) and re-distribute them over the
    // new bucket array with a width re-derived from the observed event-gap
    // EMA. Nodes themselves never move: only the bucket chains are relinked.
    std::vector<event_node*> nodes;
    nodes.reserve(live_);
    for (event_node*& head : buckets_) {
        while (head != nullptr) {
            event_node* n = head;
            head = n->next;
            if (n->id == 0) {
                free_node(n);
            } else {
                n->next = nullptr;
                nodes.push_back(n);
            }
        }
    }
    dead_ = 0;
    buckets_.assign(new_bucket_count, nullptr);
    bucket_mask_ = new_bucket_count - 1;
    if (gap_ema_ > 0.0) {
        inv_width_ = 1.0 / std::clamp(gap_ema_ * k_width_gap_factor, 1e-12, 1e9);
    }
    v_cur_ = bucket_key(now_);
    cur_ = static_cast<std::size_t>(v_cur_) & bucket_mask_;
    for (event_node* n : nodes) {
        n->vbucket = bucket_key(n->when);
        insert_node(n);
    }
}

void scheduler::fire(event_node* n) {
    // Dispatch must never move simulated time backwards: schedule_at
    // clamps, so a violation here means the queue ordering itself broke.
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

bool scheduler::stream_first(const event_node* c) const noexcept {
    return !streams_.empty() &&
           (c == nullptr || streams_.back().head < event_key{c->when, c->id});
}

void scheduler::fire_stream() {
    const stream_slot& front = streams_.back();
    // Same clock discipline as fire(): admit_in() validated the time, so a
    // violation here means the merge order broke.
    TCPPRED_ASSERT(front.head.when >= now_);
    now_ = front.head.when;
    ++fired_;
    front.stream->fire_head();
}

bool scheduler::step() {
    const event_node* c = calendar_min();
    if (stream_first(c)) {
        fire_stream();
    } else if (c != nullptr) {
        fire(pop_head());
    } else {
        return false;
    }
    return true;
}

void scheduler::run_until(time_point t_end) {
    for (;;) {
        const event_node* c = calendar_min();
        if (stream_first(c)) {
            if (streams_.back().head.when > t_end) break;
            fire_stream();
        } else {
            if (c == nullptr || c->when > t_end) break;
            fire(pop_head());
        }
    }
    if (now_ < t_end) now_ = t_end;
}

void scheduler::run_all() {
    while (step()) {
    }
}

}  // namespace tcppred::sim
