// The serve layer probe's client side (serve_client.hpp): the tcppred_serve
// daemon as a child process, a blocking line-protocol connection over its
// Unix socket, the replayed request stream, the closed and open loops, and
// the check that live PREDICT answers equal the offline
// analysis::evaluation_engine over the same records.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>

#include "analysis/evaluation.hpp"
#include "bench.hpp"
#include "serve/protocol.hpp"
#include "serve_client.hpp"

namespace perfbench {

namespace tb = tcppred::testbed;
namespace an = tcppred::analysis;

// ---- daemon -------------------------------------------------------------

daemon_process::daemon_process(const options& opt, const std::string& socket) {
    int out_pipe[2];
    if (::pipe(out_pipe) != 0) throw std::runtime_error("pipe failed");
    std::string specs;
    for (const std::string& s : spec_mix()) specs += (specs.empty() ? "" : ",") + s;
    const std::string bin = opt.serve_bin.string();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
        ::dup2(out_pipe[1], STDOUT_FILENO);
        ::close(out_pipe[0]);
        ::close(out_pipe[1]);
        ::execl(bin.c_str(), bin.c_str(), "--socket", socket.c_str(), "--specs",
                specs.c_str(), static_cast<char*>(nullptr));
        ::_exit(127);
    }
    ::close(out_pipe[1]);
    // READY <socket> on stdout once listening.
    std::string line;
    char c = 0;
    pollfd pfd{out_pipe[0], POLLIN, 0};
    while (line.find('\n') == std::string::npos) {
        if (::poll(&pfd, 1, 10000) <= 0 || ::read(out_pipe[0], &c, 1) != 1) break;
        line += c;
    }
    ::close(out_pipe[0]);
    if (line.rfind("READY", 0) != 0) {
        stop();
        throw std::runtime_error("tcppred_serve did not come up (" + bin + ")");
    }
}

int daemon_process::stop() {
    if (pid_ <= 0) return 0;
    ::kill(pid_, SIGINT);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

daemon_process::~daemon_process() {
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
    }
}

// ---- client -------------------------------------------------------------

connection::connection(const std::string& socket) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket.size() >= sizeof(addr.sun_path)) throw std::runtime_error("socket path too long");
    std::memcpy(addr.sun_path, socket.c_str(), socket.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        throw std::runtime_error("cannot connect to " + socket + ": " + std::strerror(errno));
    }
}

connection::~connection() {
    if (fd_ >= 0) ::close(fd_);
}

void connection::send(const std::string& line) {
    const char* p = line.data();
    std::size_t left = line.size();
    while (left > 0) {
        const ssize_t n = ::write(fd_, p, left);
        if (n < 0) {
            if (errno == EINTR) continue;
            throw std::runtime_error(std::string("daemon write failed: ") + std::strerror(errno));
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
}

bool connection::pop_line(std::string& out) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl == std::string::npos) {
        buf_.erase(0, pos_);
        pos_ = 0;
        return false;
    }
    out.assign(buf_, pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
}

void connection::fill() {
    char chunk[65536];
    while (true) {
        const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) throw std::runtime_error("daemon closed the connection");
        buf_.append(chunk, static_cast<std::size_t>(n));
        return;
    }
}

// ---- request stream -----------------------------------------------------

replay::replay(std::uint64_t seed, std::size_t active) : seed_(seed), slots_(active) {
    for (auto& s : slots_) start_path(s);
}

std::vector<tb::epoch_record> replay::series_of(std::uint32_t g, std::uint64_t seed) {
    const tb::path_profile& p = catalogue()[g % catalogue().size()];
    auto recs = synthetic_trace(p, static_cast<int>(g / catalogue().size()), k_trace_epochs,
                                seed);
    for (auto& r : recs) {
        r.path_id = static_cast<int>(g);
        r.trace_id = 0;
    }
    return recs;
}

void replay::start_path(slot& s) {
    s.g = next_index_++;
    s.recs = series_of(s.g, seed_);
    s.key = "p" + std::to_string(s.g);
    s.epoch = 0;
    s.step = 0;
    used_.push_back(s.g);
}

std::string replay::next(request_meta& meta) {
    slot& s = slots_[cur_];
    meta.g = s.g;
    meta.epoch = static_cast<std::uint16_t>(s.epoch);
    std::string line;
    if (s.step == 0) {
        const tb::epoch_record& r = s.recs[static_cast<std::size_t>(s.epoch)];
        tcppred::serve::observation ev;
        ev.epoch = r.epoch_index;
        ev.avail_bw_bps = r.m.avail_bw_bps;
        ev.phat = r.m.phat;
        ev.phat_events = r.m.phat_events;
        ev.that_s = r.m.that_s;
        ev.r_large_bps = r.m.r_large_bps;
        ev.fault_flags = r.m.fault_flags;
        line = tcppred::serve::format_observe(s.key, ev);
        meta.spec = -1;
    } else {
        const std::size_t j = static_cast<std::size_t>(s.step - 1);
        line = "PREDICT " + s.key + " " + spec_mix()[j];
        meta.spec = static_cast<std::int8_t>(j);
    }
    line += '\n';
    if (++s.step > static_cast<int>(spec_mix().size())) {
        s.step = 0;
        if (++s.epoch == k_trace_epochs) start_path(s);
        cur_ = (cur_ + 1) % slots_.size();
    }
    return line;
}

namespace {

bool record_answer(const request_meta& meta, const std::string& resp,
                   std::vector<answer>& answers) {
    if (resp.rfind("OK", 0) != 0) return false;
    if (meta.spec < 0) return resp == "OK";
    if (resp.size() < 4) return false;
    // OK <hexfloat> <status> <source> <staleness> <epoch>
    char* end = nullptr;
    const double v = std::strtod(resp.c_str() + 3, &end);
    if (end == resp.c_str() + 3) return false;
    answer a;
    a.g = meta.g;
    a.epoch = meta.epoch;
    a.spec = meta.spec;
    a.ok_status = std::strncmp(end, " ok ", 4) == 0;
    a.value = v;
    answers.push_back(a);
    return true;
}

}  // namespace

// ---- phases -------------------------------------------------------------

void closed_loop(connection& c, replay& gen, double seconds, client_stats& st) {
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    std::string resp;
    while (now_ns() < end) {
        request_meta meta;
        const std::string line = gen.next(meta);
        const std::int64_t t0 = now_ns();
        {
            const span sp(meta.spec < 0 ? "serve.client.observe" : "serve.client.predict");
            c.send(line);
            while (!c.pop_line(resp)) c.fill();
        }
        (meta.spec < 0 ? st.rtt_observe_us : st.rtt_predict_us)
            .push_back(static_cast<double>(now_ns() - t0) * 1e-3);
        ++st.sent;
        if (!record_answer(meta, resp, st.answers)) ++st.failed;
    }
}

void open_loop(connection& c, replay& gen, double epochs_per_s, double seconds,
               client_stats& st) {
    ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake at the due time, not 50 us later
    const auto interval = static_cast<std::int64_t>(1e9 / epochs_per_s);
    const std::int64_t t0 = now_ns();
    const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    struct pending {
        std::int64_t due;
        request_meta meta;
    };
    std::deque<pending> inflight;
    std::int64_t due = t0;
    std::string resp;
    std::string batch;
    const int last_spec = static_cast<int>(spec_mix().size()) - 1;
    while (true) {
        std::int64_t now = now_ns();
        if (now >= end && inflight.empty()) break;
        while (now < end && now >= due) {
            // One epoch transaction: OBSERVE and its PREDICTs in one write.
            batch.clear();
            request_meta meta;
            do {
                batch += gen.next(meta);
                inflight.push_back({due, meta});
                ++st.sent;
            } while (meta.spec < last_spec);
            c.send(batch);
            st.late_us.push_back(static_cast<double>(now - due) * 1e-3);
            due += interval;
            now = now_ns();
        }
        while (c.pop_line(resp)) {
            if (inflight.empty()) throw std::runtime_error("unsolicited daemon response");
            const pending p = inflight.front();
            inflight.pop_front();
            if (!record_answer(p.meta, resp, st.answers)) ++st.failed;
            if (p.meta.spec == last_spec) {
                st.latency_us.push_back(static_cast<double>(now_ns() - p.due) * 1e-3);
            }
        }
        const std::int64_t wait_ns = now < end ? std::max<std::int64_t>(due - now, 0) : 50000000;
        const timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                          static_cast<long>(wait_ns % 1000000000)};
        pollfd pfd{c.fd(), POLLIN, 0};
        if (::ppoll(&pfd, 1, &ts, nullptr) > 0) c.fill();
    }
}

/// Live PREDICT answers against the offline engine over the same records,
/// both ways, as tools/ci_serve_check.sh compares them: every answer that
/// passes the engine's scoring filter (usable forecast, real positive
/// actual) equals the engine's forecast bitwise, and every forecast the
/// engine scored at an epoch the run asked about has such an answer.
/// Returns the answers checked; 0 on any difference.
std::size_t verify_answers(const std::vector<answer>& answers,
                           const std::vector<std::uint32_t>& used, std::uint64_t seed,
                           bool corrupt) {
    tb::dataset data;
    std::map<std::uint32_t, std::size_t> first_record;
    for (const std::uint32_t g : used) {
        first_record[g] = data.records.size();
        const auto recs = replay::series_of(g, seed);
        data.records.insert(data.records.end(), recs.begin(), recs.end());
    }
    // (path, epoch, spec) packed into one sortable key.
    const auto key = [](std::uint64_t g, std::uint64_t epoch, std::uint64_t spec) {
        return g << 24 | epoch << 8 | spec;
    };
    std::vector<std::pair<std::uint64_t, double>> live;
    std::vector<std::uint64_t> asked;
    for (const answer& a : answers) {
        const std::uint64_t k = key(a.g, a.epoch, static_cast<std::uint64_t>(a.spec));
        asked.push_back(k);
        if (!a.ok_status) continue;
        const double actual =
            an::view_of_record(data.records[first_record.at(a.g) + a.epoch]).actual_bps;
        if (std::isnan(actual) || actual <= 0.0) continue;
        double v = a.value;
        if (live.empty() && corrupt) v = std::nextafter(v, 1e300);
        live.emplace_back(k, v);
    }
    std::sort(asked.begin(), asked.end());
    std::sort(live.begin(), live.end());
    an::engine_options eo;
    eo.jobs = static_cast<int>(hw_threads());
    const auto results = an::evaluation_engine(eo).run(data, spec_mix());
    std::size_t matched = 0;
    for (std::size_t j = 0; j < results.size(); ++j) {
        for (const an::trace_result& tr : results[j].traces) {
            for (const an::epoch_score& sc : tr.epochs) {
                const std::uint64_t k = key(static_cast<std::uint64_t>(tr.path_id),
                                            static_cast<std::uint64_t>(sc.rec->epoch_index), j);
                if (!std::binary_search(asked.begin(), asked.end(), k)) continue;  // not reached
                const auto it = std::lower_bound(
                    live.begin(), live.end(), k,
                    [](const auto& e, std::uint64_t x) { return e.first < x; });
                if (it == live.end() || it->first != k ||
                    std::memcmp(&it->second, &sc.predicted_bps, sizeof(double)) != 0) {
                    return 0;
                }
                ++matched;
            }
        }
    }
    return matched == live.size() ? matched : 0;
}

}  // namespace perfbench
