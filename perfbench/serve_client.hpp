// The serve layer probe's client side (serve_client.cpp): the daemon child
// process, a blocking line-protocol connection, the replayed request stream,
// the closed- and open-loop clients and the live-vs-offline check.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "testbed/dataset.hpp"

namespace perfbench {

/// tcppred_serve started with --socket and the spec mix; ready once
/// constructed. stop() sends SIGINT (the documented shutdown) and returns
/// the exit code; the destructor kills a daemon still running.
class daemon_process {
public:
    daemon_process(const options& opt, const std::string& socket);
    ~daemon_process();
    daemon_process(const daemon_process&) = delete;
    daemon_process& operator=(const daemon_process&) = delete;

    int stop();
    [[nodiscard]] int pid() const noexcept { return static_cast<int>(pid_); }

private:
    pid_t pid_{-1};
};

class connection {
public:
    explicit connection(const std::string& socket);
    ~connection();
    connection(const connection&) = delete;
    connection& operator=(const connection&) = delete;

    void send(const std::string& line);  ///< line includes its newline
    /// Next complete response line from the buffer; false if none yet.
    bool pop_line(std::string& out);
    void fill();  ///< block for more bytes
    [[nodiscard]] int fd() const noexcept { return fd_; }

private:
    int fd_{-1};
    std::string buf_;
    std::size_t pos_{0};
};

/// What a request was: path, epoch and spec index (-1 = OBSERVE).
struct request_meta {
    std::uint32_t g{0};
    std::uint16_t epoch{0};
    std::int8_t spec{-1};
};

/// One PREDICT answer, kept for the equivalence check.
struct answer {
    std::uint32_t g{0};
    std::uint16_t epoch{0};
    std::int8_t spec{0};
    bool ok_status{false};
    double value{0.0};
};

struct client_stats {
    std::uint64_t sent{0};
    std::uint64_t failed{0};
    std::vector<double> rtt_observe_us;  // closed loop
    std::vector<double> rtt_predict_us;  // closed loop
    std::vector<double> latency_us;      // open loop, per epoch, from its due time
    std::vector<double> late_us;         // open loop, send time - due time
    std::vector<answer> answers;
};

/// A request stream: `active` concurrent paths walked round-robin, each a
/// 150-epoch synthetic series (one OBSERVE, then one PREDICT per spec, per
/// epoch); a finished path is replaced by a fresh one.
class replay {
public:
    replay(std::uint64_t seed, std::size_t active);
    std::string next(request_meta& meta);  ///< includes the newline
    [[nodiscard]] const std::vector<std::uint32_t>& used() const noexcept { return used_; }
    /// Path g's records, path_id = g.
    static std::vector<tcppred::testbed::epoch_record> series_of(std::uint32_t g,
                                                                 std::uint64_t seed);

private:
    struct slot {
        std::uint32_t g{0};
        std::vector<tcppred::testbed::epoch_record> recs;
        std::string key;
        int epoch{0};
        int step{0};  // 0 = OBSERVE, j+1 = PREDICT spec j
    };
    void start_path(slot& s);

    std::uint64_t seed_;
    std::vector<slot> slots_;
    std::size_t cur_{0};
    std::uint32_t next_index_{0};
    std::vector<std::uint32_t> used_;
};

/// Closed loop for `seconds`: send one request, wait for its answer, record
/// the round trip, repeat.
void closed_loop(connection& c, replay& gen, double seconds, client_stats& st);
/// Open loop for `seconds`: one epoch transaction (OBSERVE and its PREDICTs
/// in one write) due every 1/epochs_per_s, sent when due whatever is still
/// outstanding; latency runs from the due time to the epoch's last answer.
void open_loop(connection& c, replay& gen, double epochs_per_s, double seconds,
               client_stats& st);

/// Live PREDICT answers against the offline analysis::evaluation_engine
/// over the same records (the paths in `used`), both ways. Returns the
/// answers checked; 0 on any difference. `corrupt` alters one answer first.
[[nodiscard]] std::size_t verify_answers(const std::vector<answer>& answers,
                                         const std::vector<std::uint32_t>& used,
                                         std::uint64_t seed, bool corrupt);

}  // namespace perfbench
