// Growable power-of-two FIFO ring. Event streams (sim/scheduler.hpp) keep
// their pending entries in one: a fixed-delay FIFO admits its events in
// (when, id) order, so the front is always the stream's earliest entry and
// no ordering work is ever done. Links also queue packets in one, where a
// std::deque of 64-byte elements would allocate a block every 8 packets.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "sim/scheduler.hpp"

namespace tcppred::sim {

template <typename T>
class ring {
public:
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] const T& front() const noexcept { return buf_[head_]; }

    void push_back(const T& v) {
        if (size_ == buf_.size()) grow();
        buf_[(head_ + size_) & (buf_.size() - 1)] = v;
        ++size_;
    }

    /// Remove and return the front element. Precondition: not empty.
    T pop_front() noexcept {
        TCPPRED_ASSERT(size_ > 0);
        T v = std::move(buf_[head_]);
        head_ = (head_ + 1) & (buf_.size() - 1);
        --size_;
        return v;
    }

private:
    void grow() {
        std::vector<T> bigger(buf_.empty() ? 8 : buf_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i) {
            bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
        }
        buf_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> buf_;  ///< capacity is zero or a power of two
    std::size_t head_{0};
    std::size_t size_{0};
};

/// An event-stream entry: a payload and the key it fires at.
template <typename T>
struct keyed {
    event_key key;
    T value;
};

}  // namespace tcppred::sim
