// Small-buffer callable slot: the event callback storage of the
// discrete-event scheduler. Unlike std::function, captures up to
// k_inline_bytes live inside the object itself — scheduling a packet
// delivery (capturing ~64 bytes of lambda state) performs no heap
// allocation. Larger callables transparently fall back to the heap, so any
// `void()` callable is accepted; the steady-state simulation path never
// produces one that spills.
//
// The slot is constructed in place (emplace) and consumed in place
// (invoke_and_reset): a callable never moves after construction, so the
// type needs no move operations.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace tcppred::sim {

class small_callback {
public:
    /// Inline capture capacity. Sized for the largest steady-state capture
    /// in the simulator: a lambda holding `this` plus a net::packet by value
    /// (8 + 56 bytes). Checked by tests/scheduler_test.cpp.
    static constexpr std::size_t k_inline_bytes = 80;

    small_callback() noexcept = default;
    small_callback(const small_callback&) = delete;
    small_callback& operator=(const small_callback&) = delete;
    ~small_callback() { reset(); }

    /// Construct `f` in place. Precondition: empty. If constructing the
    /// callable throws, the slot stays empty.
    template <typename F>
    void emplace(F&& f) {
        using fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, fn&>, "event callbacks are void()");
        if constexpr (sizeof(fn) <= k_inline_bytes &&
                      alignof(fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void*>(storage_)) fn(std::forward<F>(f));
            vt_ = &vtable_inline<fn>;
        } else {
            ::new (static_cast<void*>(storage_)) fn*(new fn(std::forward<F>(f)));
            vt_ = &vtable_heap<fn>;
        }
    }

    /// Destroy the held callable (no-op when empty).
    void reset() noexcept {
        if (vt_ != nullptr) {
            vt_->destroy(storage_);
            vt_ = nullptr;
        }
    }

    /// Invoke the held callable once and destroy it, leaving the slot empty;
    /// the callable is destroyed even when the call throws. Precondition:
    /// not empty. One indirect call covers both steps.
    void invoke_and_reset() { std::exchange(vt_, nullptr)->invoke_and_destroy(storage_); }

private:
    struct vtable {
        void (*invoke_and_destroy)(void* self);
        void (*destroy)(void* self) noexcept;
    };

    template <typename Fn>
    struct destroy_on_exit {
        Fn* f;
        ~destroy_on_exit() { f->~Fn(); }
    };

    template <typename Fn>
    static constexpr vtable vtable_inline{
        [](void* self) {
            Fn* f = std::launder(reinterpret_cast<Fn*>(self));
            const destroy_on_exit<Fn> guard{f};
            (*f)();
        },
        [](void* self) noexcept { std::launder(reinterpret_cast<Fn*>(self))->~Fn(); },
    };

    template <typename Fn>
    static constexpr vtable vtable_heap{
        [](void* self) {
            const std::unique_ptr<Fn> f(*std::launder(reinterpret_cast<Fn**>(self)));
            (*f)();
        },
        [](void* self) noexcept { delete *std::launder(reinterpret_cast<Fn**>(self)); },
    };

    alignas(std::max_align_t) unsigned char storage_[k_inline_bytes];
    const vtable* vt_{nullptr};
};

}  // namespace tcppred::sim
