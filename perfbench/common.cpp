#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "sim/rng.hpp"
#include "testbed/load_process.hpp"

namespace perfbench {

namespace tb = tcppred::testbed;

void run_result::check(bool ok, const std::string& what) {
    std::fprintf(stderr, "check %-44s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) correct = false;
}

bool corrupting(const options& opt, const std::string& name) {
    return opt.corrupt == name;
}

// ---- spans --------------------------------------------------------------

namespace {

std::atomic<bool> g_spans_on{false};
std::atomic<std::uint64_t> g_span_ids{0};

struct thread_spans {
    std::vector<span_rec> done;
    std::vector<std::uint64_t> open;  // ids of the spans open on this thread
};

struct span_registry {
    std::mutex mu;
    std::vector<std::shared_ptr<thread_spans>> threads;
};

span_registry& registry() {
    static span_registry r;
    return r;
}

thread_spans& local_spans() {
    thread_local std::shared_ptr<thread_spans> mine = [] {
        auto t = std::make_shared<thread_spans>();
        t->done.reserve(1 << 16);
        const std::lock_guard<std::mutex> lock(registry().mu);
        registry().threads.push_back(t);
        return t;
    }();
    return *mine;
}

}  // namespace

void set_spans_enabled(bool on) { g_spans_on.store(on, std::memory_order_relaxed); }
bool spans_enabled() { return g_spans_on.load(std::memory_order_relaxed); }

span::span(const char* name) {
    if (!spans_enabled()) return;
    thread_spans& ts = local_spans();
    rec_.name = name;
    rec_.id = g_span_ids.fetch_add(1, std::memory_order_relaxed) + 1;
    rec_.parent = ts.open.empty() ? 0 : ts.open.back();
    ts.open.push_back(rec_.id);
    live_ = true;
    rec_.start_ns = now_ns();
}

span::~span() {
    if (!live_) return;
    rec_.end_ns = now_ns();
    thread_spans& ts = local_spans();
    ts.open.pop_back();
    ts.done.push_back(rec_);
}

std::vector<span_rec> drain_spans() {
    std::vector<span_rec> all;
    const std::lock_guard<std::mutex> lock(registry().mu);
    for (const auto& t : registry().threads) {
        all.insert(all.end(), t->done.begin(), t->done.end());
        t->done.clear();
    }
    return all;
}

std::map<std::string, span_total> summarize_spans(const std::vector<span_rec>& spans) {
    std::map<std::uint64_t, double> child_ns;  // parent id -> covered ns
    for (const span_rec& s : spans) {
        if (s.parent != 0) child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
    std::map<std::string, span_total> out;
    for (const span_rec& s : spans) {
        span_total& t = out[s.name];
        const double dur = static_cast<double>(s.end_ns - s.start_ns);
        ++t.count;
        t.total_ns += dur;
        const auto it = child_ns.find(s.id);
        t.self_ns += dur - (it == child_ns.end() ? 0.0 : it->second);
    }
    return out;
}

void write_spans_jsonl(const std::vector<span_rec>& spans,
                       const std::filesystem::path& file) {
    std::ofstream out(file);
    if (!out) throw std::runtime_error("cannot write " + file.string());
    for (const span_rec& s : spans) {
        out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
            << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << "}\n";
    }
}

// ---- statistics ---------------------------------------------------------

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(rank == 0 ? 0 : rank - 1, v.size() - 1)];
}

double windowed_percentile(const std::vector<double>& samples, std::size_t window,
                           double q) {
    std::vector<double> per;
    for (std::size_t i = 0; i + window <= samples.size(); i += window) {
        per.push_back(percentile(
            std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(i),
                                samples.begin() + static_cast<std::ptrdiff_t>(i + window)),
            q));
    }
    return per.empty() ? percentile(samples, q) : median(per);
}

double windowed_rate(const std::vector<std::int64_t>& done_ns, std::int64_t start_ns,
                     std::int64_t end_ns, std::int64_t window_ns) {
    const auto n = static_cast<std::size_t>(std::max<std::int64_t>(end_ns - start_ns, 0) /
                                            window_ns);
    // Per window: completions after its first one, over the time from its
    // first completion to its last.
    std::vector<std::int64_t> first(n, -1), last(n, -1);
    std::vector<double> count(n, 0.0);
    for (const std::int64_t t : done_ns) {
        if (t < start_ns) continue;
        const auto w = static_cast<std::size_t>((t - start_ns) / window_ns);
        if (w >= n) continue;
        if (first[w] < 0 || t < first[w]) first[w] = t;
        last[w] = std::max(last[w], t);
        count[w] += 1.0;
    }
    std::vector<double> rates;
    for (std::size_t w = 0; w < n; ++w) {
        if (count[w] >= 2 && last[w] > first[w]) {
            rates.push_back((count[w] - 1.0) / (static_cast<double>(last[w] - first[w]) * 1e-9));
        }
    }
    if (rates.empty()) {
        return static_cast<double>(done_ns.size()) /
               (static_cast<double>(std::max<std::int64_t>(end_ns - start_ns, 1)) * 1e-9);
    }
    return median(rates);
}

// ---- memory -------------------------------------------------------------

namespace {

double status_kb(int pid, const char* key) {
    const std::string file =
        pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(file);
    std::string line;
    const std::size_t klen = std::strlen(key);
    while (std::getline(in, line)) {
        if (line.compare(0, klen, key) == 0) return std::strtod(line.c_str() + klen, nullptr);
    }
    throw std::runtime_error(std::string("no ") + key + " in " + file);
}

}  // namespace

double rss_peak_bytes(int pid) { return status_kb(pid, "VmHWM:") * 1024.0; }
double rss_now_bytes(int pid) { return status_kb(pid, "VmRSS:") * 1024.0; }

// ---- inputs -------------------------------------------------------------

const std::vector<tb::path_profile>& catalogue() {
    static const std::vector<tb::path_profile> paths = tb::ron_like_catalog(35, 20040501);
    return paths;
}

std::vector<tb::epoch_record> synthetic_trace(const tb::path_profile& profile, int trace,
                                              int epochs, std::uint64_t seed) {
    namespace sim = tcppred::sim;
    const auto pid = static_cast<std::uint64_t>(profile.id);
    const auto tid = static_cast<std::uint64_t>(trace);
    const std::vector<tb::load_state> loads =
        tb::load_trajectory(profile, sim::derive_seed(seed, "trace", pid, tid), epochs);
    sim::rng r(sim::derive_seed(seed, "measure", pid, tid));
    const double cap = profile.bottleneck_capacity().value();
    const double rtt0 = profile.base_rtt().value();
    std::vector<tb::epoch_record> out(loads.size());
    for (std::size_t e = 0; e < loads.size(); ++e) {
        const tb::load_state& s = loads[e];
        const double u = s.utilization;
        const double avail = cap * std::max(0.02, 1.0 - u);
        const double rtt = rtt0 * (1.0 + 1.5 * u * u) * std::exp(r.normal(0.0, 0.05));
        const double loss = std::clamp(
            0.0005 + profile.random_loss_rate +
                0.03 * std::pow(u, 4.0) * std::exp(r.normal(0.0, 0.3)),
            0.0, 0.5);
        const double share = 1.0 / (1.0 + 0.3 * s.elastic_flows);
        const double r_large = std::min(avail * share * r.uniform(0.7, 1.05),
                                        8.0 * (1 << 20) / rtt) *
                               std::exp(r.normal(0.0, 0.08));
        tb::epoch_record& rec = out[e];
        rec.path_id = profile.id;
        rec.trace_id = trace;
        rec.epoch_index = static_cast<int>(e);
        rec.m.avail_bw_bps = avail * std::exp(r.normal(0.0, 0.1));
        rec.m.phat = loss;
        rec.m.phat_events = loss * r.uniform(0.5, 0.9);
        rec.m.that_s = rtt;
        rec.m.ptilde = std::min(1.0, loss * r.uniform(1.0, 2.0));
        rec.m.ttilde_s = rtt * r.uniform(1.0, 1.3);
        rec.m.r_large_bps = r_large;
        rec.m.r_small_bps = std::min(r_large, 8.0 * 20 * 1024 / rtt);
    }
    return out;
}

tb::dataset synthetic_dataset(int traces, std::uint64_t seed) {
    tb::dataset data;
    data.paths = catalogue();
    data.records.reserve(data.paths.size() * static_cast<std::size_t>(traces) *
                         k_trace_epochs);
    for (const tb::path_profile& p : data.paths) {
        for (int t = 0; t < traces; ++t) {
            const auto recs = synthetic_trace(p, t, k_trace_epochs, seed);
            data.records.insert(data.records.end(), recs.begin(), recs.end());
        }
    }
    return data;
}

const std::vector<std::string>& spec_mix() {
    static const std::vector<std::string> specs{"fb:pftk", "10-MA", "0.8-HW-LSO", "NWS"};
    return specs;
}

std::string metric_safe(const std::string& spec) {
    std::string s = spec;
    std::replace(s.begin(), s.end(), ':', '_');
    return s;
}

namespace {

std::uint64_t fnv_bytes(std::uint64_t h, const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 1099511628211ULL;
    }
    return h;
}

template <class T>
std::uint64_t fnv_val(std::uint64_t h, T v) {
    return fnv_bytes(h, &v, sizeof(v));
}

}  // namespace

std::uint64_t record_digest(const tb::epoch_record& r, std::uint64_t h) {
    const tb::epoch_measurement& m = r.m;
    h = fnv_val(h, r.path_id);
    h = fnv_val(h, r.trace_id);
    h = fnv_val(h, r.epoch_index);
    for (const double d : {m.avail_bw_bps, m.phat, m.phat_events, m.that_s, m.ptilde,
                           m.ttilde_s, m.r_large_bps, m.r_small_bps, m.tcp_loss_rate,
                           m.tcp_event_rate, m.tcp_mean_rtt_s, m.sim_time_s}) {
        h = fnv_val(h, d);
    }
    for (const auto& [at, bps] : m.prefix_goodputs) {
        h = fnv_val(h, at);
        h = fnv_val(h, bps);
    }
    h = fnv_val(h, m.events);
    return fnv_val(h, m.fault_flags);
}

unsigned hw_threads() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0) return static_cast<unsigned>(n);
    }
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

}  // namespace perfbench
