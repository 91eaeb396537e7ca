#include "net/link.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace tcppred::net {
namespace {

packet make_packet(std::uint32_t size, std::uint64_t seq = 0) {
    packet p;
    p.flow = 1;
    p.kind = packet_kind::tcp_data;
    p.size_bytes = size;
    p.seq = seq;
    return p;
}

TEST(link, delivers_after_tx_plus_propagation) {
    sim::scheduler s;
    link l(s, 8e6, 0.010, 10);  // 8 Mbps: 1000 bytes = 1 ms tx
    double delivered_at = -1.0;
    l.set_sink([&](packet) { delivered_at = s.now(); });
    l.enqueue(make_packet(1000));
    s.run_all();
    EXPECT_NEAR(delivered_at, 0.001 + 0.010, 1e-12);
}

TEST(link, serializes_back_to_back_packets) {
    sim::scheduler s;
    link l(s, 8e6, 0.0, 10);
    std::vector<double> arrivals;
    l.set_sink([&](packet) { arrivals.push_back(s.now()); });
    for (int i = 0; i < 3; ++i) l.enqueue(make_packet(1000, static_cast<std::uint64_t>(i)));
    s.run_all();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_NEAR(arrivals[0], 0.001, 1e-12);
    EXPECT_NEAR(arrivals[1], 0.002, 1e-12);
    EXPECT_NEAR(arrivals[2], 0.003, 1e-12);
}

TEST(link, preserves_fifo_order) {
    sim::scheduler s;
    link l(s, 1e6, 0.005, 100);
    std::vector<std::uint64_t> seqs;
    l.set_sink([&](packet p) { seqs.push_back(p.seq); });
    for (std::uint64_t i = 0; i < 20; ++i) l.enqueue(make_packet(500, i));
    s.run_all();
    ASSERT_EQ(seqs.size(), 20u);
    for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(seqs[i], i);
}

TEST(link, drops_when_buffer_full) {
    sim::scheduler s;
    link l(s, 8e6, 0.0, 2);  // 1 transmitting + 2 queued
    int delivered = 0;
    l.set_sink([&](packet) { ++delivered; });
    int accepted = 0;
    for (int i = 0; i < 10; ++i) accepted += l.enqueue(make_packet(1000)) ? 1 : 0;
    s.run_all();
    EXPECT_EQ(accepted, 3);
    EXPECT_EQ(delivered, 3);
    EXPECT_EQ(l.stats().dropped, 7u);
    EXPECT_EQ(l.stats().delivered, 3u);
}

TEST(link, buffer_frees_as_packets_depart) {
    sim::scheduler s;
    link l(s, 8e6, 0.0, 1);
    int delivered = 0;
    l.set_sink([&](packet) { ++delivered; });
    l.enqueue(make_packet(1000));
    l.enqueue(make_packet(1000));
    EXPECT_FALSE(l.enqueue(make_packet(1000)));  // full now
    s.run_until(0.0015);                          // first tx done at 1 ms
    EXPECT_TRUE(l.enqueue(make_packet(1000)));    // slot freed
    s.run_all();
    EXPECT_EQ(delivered, 3);
}

TEST(link, propagation_does_not_serialize) {
    // Two packets sent back-to-back on a long-propagation link must arrive
    // tx_time apart, not 2*prop apart.
    sim::scheduler s;
    link l(s, 8e6, 0.100, 10);
    std::vector<double> arrivals;
    l.set_sink([&](packet) { arrivals.push_back(s.now()); });
    l.enqueue(make_packet(1000));
    l.enqueue(make_packet(1000));
    s.run_all();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_NEAR(arrivals[1] - arrivals[0], 0.001, 1e-12);
}

TEST(link, transmission_completing_before_the_wire_front_fires_first) {
    // A long wire: the first packet is still propagating when a second one
    // reaches the idle link and finishes serializing. The link's earliest
    // pending event moves earlier (DESIGN.md §13.7), and a timer
    // between the two must still fire in time order.
    sim::scheduler s;
    link l(s, 8e6, 1.0, 10);  // 1000 bytes = 1 ms tx, 1 s on the wire
    std::vector<std::pair<std::uint64_t, double>> arrivals;
    std::vector<std::size_t> lengths;
    l.set_sink([&](packet p) { arrivals.emplace_back(p.seq, s.now()); });
    l.enqueue(make_packet(1000, 1));
    s.schedule_at(0.5, [&] { l.enqueue(make_packet(1000, 2)); });
    s.schedule_at(0.5005, [&] { lengths.push_back(l.queue_length()); });
    s.schedule_at(0.502, [&] { lengths.push_back(l.queue_length()); });
    s.run_all();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0].first, 1u);
    EXPECT_NEAR(arrivals[0].second, 1.001, 1e-12);
    EXPECT_EQ(arrivals[1].first, 2u);
    EXPECT_NEAR(arrivals[1].second, 1.501, 1e-12);
    EXPECT_EQ(lengths, (std::vector<std::size_t>{1, 0}));  // serializing, then done
    EXPECT_EQ(s.fired(), 2u * 2u + 3u);  // two events per packet, three scheduled
}

TEST(link, utilization_tracks_busy_fraction) {
    sim::scheduler s;
    link l(s, 8e6, 0.0, 100);
    l.set_sink([](packet) {});
    // 10 packets x 1 ms tx = 10 ms busy.
    for (int i = 0; i < 10; ++i) l.enqueue(make_packet(1000));
    s.run_all();
    s.run_until(0.1);
    EXPECT_NEAR(l.utilization(), 0.1, 1e-9);
}

TEST(link, tx_time_matches_capacity) {
    sim::scheduler s;
    link l(s, 1e6, 0.0, 1);
    EXPECT_DOUBLE_EQ(l.tx_time(1250), 0.01);  // 10 kbit at 1 Mbps
}

TEST(link, bernoulli_random_loss_converges_to_rate) {
    sim::scheduler s;
    link l(s, 100e6, 0.0, 4096);
    l.set_random_loss(0.1, 42);
    int delivered = 0;
    l.set_sink([&](packet) { ++delivered; });
    const int offered = 20000;
    // Spread arrivals over time so the queue never overflows.
    for (int i = 0; i < offered; ++i) {
        s.schedule_at(i * 1e-4, [&] { l.enqueue(make_packet(500)); });
    }
    s.run_all();
    const double loss = 1.0 - static_cast<double>(delivered) / offered;
    EXPECT_NEAR(loss, 0.1, 0.01);
}

TEST(link, gilbert_loss_converges_and_is_bursty) {
    sim::scheduler s;
    link l(s, 100e6, 0.0, 4096);
    l.set_random_loss(0.05, 42, /*burst=*/0.050);
    std::vector<int> outcomes;
    l.set_sink([&](packet) { outcomes.push_back(1); });
    const int offered = 60000;
    for (int i = 0; i < offered; ++i) {
        s.schedule_at(i * 1e-3, [&, i] {
            if (!l.enqueue(make_packet(500))) outcomes.push_back(0);
        });
    }
    s.run_all();
    int lost = 0, runs = 0;
    bool in_run = false;
    for (const int o : outcomes) {
        if (o == 0) {
            ++lost;
            if (!in_run) {
                ++runs;
                in_run = true;
            }
        } else {
            in_run = false;
        }
    }
    const double loss = static_cast<double>(lost) / offered;
    EXPECT_NEAR(loss, 0.05, 0.015);
    // Bursty: mean run length well above 1 (episodes of ~50 ms at 1 ms
    // arrival spacing should cover dozens of packets).
    EXPECT_GT(static_cast<double>(lost) / runs, 5.0);
}

TEST(link, counts_bytes_delivered) {
    sim::scheduler s;
    link l(s, 8e6, 0.0, 10);
    l.set_sink([](packet) {});
    l.enqueue(make_packet(700));
    l.enqueue(make_packet(300));
    s.run_all();
    EXPECT_EQ(l.stats().bytes_delivered, 1000u);
}

}  // namespace
}  // namespace tcppred::net
