// Chunked columnar record store (testbed/record_store.hpp): lossless
// writer/reader round-trip, store→CSV conversion byte-identical to
// save_csv, the streamed campaign sweep reproducing run_campaign bitwise at
// any job count, the streaming shard merge, evaluate_stream equivalence
// with the in-memory engine (including fault-conditioned aggregation), and
// the reader's refusal of foreign-fingerprint / truncated / tampered input,
// and checkpoints as stores with a done bitmap (strict framing, refusal of
// the retired row format).
#include "testbed/record_store.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/evaluation.hpp"
#include "testbed/campaign.hpp"
#include "testbed/checkpoint.hpp"
#include "testbed/dataset.hpp"
#include "testbed/shard.hpp"

using namespace tcppred;

namespace {

/// Small but non-trivial campaign that runs in well under a second.
testbed::campaign_config quick_config() {
    testbed::campaign_config cfg;
    cfg.paths = 3;
    cfg.traces_per_path = 1;
    cfg.epochs_per_trace = 4;
    cfg.jobs = 1;
    cfg.epoch.warmup = core::seconds{0.5};
    cfg.epoch.prior_ping.count = 60;
    cfg.epoch.transfer = core::seconds{1.5};
    return cfg;
}

/// quick_config with every fault class enabled, so fault_flags, failed
/// measurements and the CSV's optional fault column are all exercised.
testbed::campaign_config faulty_config() {
    auto cfg = quick_config();
    cfg.epochs_per_trace = 6;
    cfg.faults = sim::fault_profile::parse("pathload=0.3,ping-timeout=0.2,abort=0.2");
    return cfg;
}

std::string read_file(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Exact equality, except NaN compares equal to NaN (faulted epochs carry
/// NaN measurements; EXPECT_EQ rejects NaN == NaN). The CSV byte-identity
/// tests pin the exact serialization, so payload bits are not at issue here.
void expect_double_equal(double a, double b) {
    if (std::isnan(a) && std::isnan(b)) return;
    EXPECT_EQ(a, b);
}

void expect_records_equal(const testbed::epoch_record& a,
                          const testbed::epoch_record& b) {
    EXPECT_EQ(a.path_id, b.path_id);
    EXPECT_EQ(a.trace_id, b.trace_id);
    EXPECT_EQ(a.epoch_index, b.epoch_index);
    expect_double_equal(a.m.avail_bw_bps, b.m.avail_bw_bps);
    expect_double_equal(a.m.phat, b.m.phat);
    EXPECT_EQ(a.m.phat_events, b.m.phat_events);
    expect_double_equal(a.m.that_s, b.m.that_s);
    expect_double_equal(a.m.ptilde, b.m.ptilde);
    expect_double_equal(a.m.ttilde_s, b.m.ttilde_s);
    expect_double_equal(a.m.r_large_bps, b.m.r_large_bps);
    expect_double_equal(a.m.r_small_bps, b.m.r_small_bps);
    expect_double_equal(a.m.tcp_loss_rate, b.m.tcp_loss_rate);
    expect_double_equal(a.m.tcp_event_rate, b.m.tcp_event_rate);
    expect_double_equal(a.m.tcp_mean_rtt_s, b.m.tcp_mean_rtt_s);
    expect_double_equal(a.m.sim_time_s, b.m.sim_time_s);
    EXPECT_EQ(a.m.events, b.m.events);
    EXPECT_EQ(a.m.fault_flags, b.m.fault_flags);
    ASSERT_EQ(a.m.prefix_goodputs.size(), b.m.prefix_goodputs.size());
    for (std::size_t i = 0; i < a.m.prefix_goodputs.size(); ++i) {
        EXPECT_EQ(a.m.prefix_goodputs[i].first, b.m.prefix_goodputs[i].first);
        EXPECT_EQ(a.m.prefix_goodputs[i].second, b.m.prefix_goodputs[i].second);
    }
}

class record_store : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("tcppred_record_store_" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->line()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    /// Write `data` to a store with the given chunk size; returns the path.
    std::filesystem::path write_store(const testbed::dataset& data,
                                      const std::string& fingerprint,
                                      std::size_t chunk_capacity,
                                      const char* name = "a.store") {
        const auto file = dir_ / name;
        testbed::record_writer w(file, fingerprint,
                                 testbed::csv_catalog_lines(data.paths),
                                 testbed::store_options{chunk_capacity});
        for (const auto& rec : data.records) w.append(rec);
        w.finish();
        return file;
    }

    std::filesystem::path dir_;
};

TEST_F(record_store, round_trip_is_lossless_across_chunk_sizes) {
    const auto cfg = faulty_config();
    const testbed::dataset data = testbed::run_campaign(cfg);
    // 1 (chunk per record), 7 (odd, multiple partial groups), and a chunk
    // larger than the dataset (single-chunk store).
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{512}}) {
        const auto file = write_store(data, testbed::campaign_fingerprint(cfg), chunk);
        testbed::record_reader r(file, testbed::campaign_fingerprint(cfg));
        EXPECT_EQ(r.total(), data.records.size());
        EXPECT_EQ(r.chunk_capacity(), chunk);
        EXPECT_EQ(r.catalog_lines().size(), data.paths.size());
        testbed::epoch_record rec;
        std::size_t i = 0;
        while (r.next(rec)) {
            ASSERT_LT(i, data.records.size());
            expect_records_equal(rec, data.records[i]);
            ++i;
        }
        EXPECT_EQ(i, data.records.size());
    }
}

TEST_F(record_store, footer_counts_match_dataset) {
    const auto cfg = faulty_config();
    const testbed::dataset data = testbed::run_campaign(cfg);
    std::size_t faulted = 0;
    for (const auto& rec : data.records) {
        faulted += rec.m.fault_flags != testbed::fault_none;
    }
    ASSERT_GT(faulted, 0u) << "faulty_config must actually fault some epochs";
    const auto file = write_store(data, testbed::campaign_fingerprint(cfg), 8);
    testbed::record_reader r(file);
    EXPECT_EQ(r.n_traces(), data.traces().size());
    EXPECT_EQ(r.n_faulted(), faulted);
    EXPECT_TRUE(r.any_faults());
}

TEST_F(record_store, store_to_csv_matches_save_csv_bytes) {
    // Both the fault-free shape (no fault_flags column) and the faulted one
    // (column present) must convert byte-identically.
    for (const bool faulted : {false, true}) {
        const auto cfg = faulted ? faulty_config() : quick_config();
        const testbed::dataset data = testbed::run_campaign(cfg);
        const auto ref_csv = dir_ / (faulted ? "ref_f.csv" : "ref.csv");
        testbed::save_csv(data, ref_csv);

        const auto store = write_store(data, testbed::campaign_fingerprint(cfg), 5,
                                       faulted ? "f.store" : "c.store");
        testbed::record_reader r(store);
        const auto out_csv = dir_ / (faulted ? "out_f.csv" : "out.csv");
        testbed::store_to_csv(r, out_csv);
        EXPECT_EQ(read_file(out_csv), read_file(ref_csv)) << "faulted=" << faulted;
    }
}

TEST_F(record_store, streamed_campaign_reproduces_run_campaign_at_any_jobs) {
    auto cfg = quick_config();
    const testbed::dataset ref = testbed::run_campaign(cfg);
    const auto ref_csv = dir_ / "ref.csv";
    testbed::save_csv(ref, ref_csv);

    for (const int jobs : {1, 4}) {
        cfg.jobs = jobs;
        const auto store = dir_ / ("s" + std::to_string(jobs) + ".store");
        testbed::streamed_campaign_options opts;
        opts.store.chunk_capacity = 4;  // force several chunks
        opts.reorder_capacity = 2;      // force reorder-window blocking
        const auto outcome = testbed::run_campaign_streamed(cfg, store, opts);
        EXPECT_TRUE(outcome.complete);
        EXPECT_EQ(outcome.epochs_completed,
                  static_cast<int>(testbed::campaign_total_epochs(cfg)));

        testbed::record_reader r(store, testbed::campaign_fingerprint(cfg));
        const auto csv = dir_ / ("s" + std::to_string(jobs) + ".csv");
        testbed::store_to_csv(r, csv);
        EXPECT_EQ(read_file(csv), read_file(ref_csv)) << "jobs=" << jobs;
    }
}

TEST_F(record_store, streamed_campaign_cancel_leaves_no_store) {
    const auto cfg = quick_config();
    const auto store = dir_ / "cancelled.store";
    testbed::streamed_campaign_options opts;
    opts.cancelled = [] { return true; };  // cancel before the first epoch
    const auto outcome = testbed::run_campaign_streamed(cfg, store, opts);
    EXPECT_FALSE(outcome.complete);
    EXPECT_FALSE(std::filesystem::exists(store));
    // No stray temp files either.
    EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(record_store, merge_shard_checkpoints_streams_to_store) {
    const auto cfg = quick_config();
    const std::size_t total = testbed::campaign_total_epochs(cfg);

    std::vector<std::filesystem::path> ckpts;
    for (int s = 0; s < 2; ++s) {
        testbed::campaign_run_options opts;
        opts.checkpoint = dir_ / ("shard" + std::to_string(s) + ".ckpt");
        opts.keep_checkpoint = true;
        opts.epoch_filter = testbed::shard_filter(testbed::shard_ref{s, 2});
        const auto outcome = testbed::run_campaign_resumable(cfg, opts);
        ASSERT_TRUE(outcome.complete);
        ckpts.push_back(opts.checkpoint);
    }

    const auto store = dir_ / "merged.store";
    EXPECT_EQ(testbed::merge_shard_checkpoints_to_store(cfg, ckpts, store,
                                                        testbed::store_options{4}),
              total);

    const testbed::dataset ref = testbed::run_campaign(cfg);
    const auto ref_csv = dir_ / "ref.csv";
    testbed::save_csv(ref, ref_csv);
    testbed::record_reader r(store, testbed::campaign_fingerprint(cfg));
    const auto csv = dir_ / "merged.csv";
    testbed::store_to_csv(r, csv);
    EXPECT_EQ(read_file(csv), read_file(ref_csv));
}

TEST_F(record_store, merge_rejects_missing_and_incomplete_shards) {
    const auto cfg = quick_config();
    EXPECT_THROW(testbed::merge_shard_checkpoints_to_store(
                     cfg, {dir_ / "nonexistent.ckpt"}, dir_ / "out.store"),
                 testbed::dataset_error);

    // One shard alone does not cover the grid.
    testbed::campaign_run_options opts;
    opts.checkpoint = dir_ / "shard0.ckpt";
    opts.keep_checkpoint = true;
    opts.epoch_filter = testbed::shard_filter(testbed::shard_ref{0, 2});
    ASSERT_TRUE(testbed::run_campaign_resumable(cfg, opts).complete);
    EXPECT_THROW(testbed::merge_shard_checkpoints_to_store(cfg, {opts.checkpoint},
                                                           dir_ / "out.store"),
                 testbed::dataset_error);
}

TEST_F(record_store, reader_rejects_foreign_fingerprint) {
    const auto cfg = quick_config();
    const testbed::dataset data = testbed::run_campaign(cfg);
    const auto file = write_store(data, testbed::campaign_fingerprint(cfg), 8);

    auto other = cfg;
    other.seed += 1;
    try {
        testbed::record_reader r(file, testbed::campaign_fingerprint(other));
        FAIL() << "foreign fingerprint must be rejected";
    } catch (const testbed::dataset_error& e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
                  std::string::npos);
    }
    // Empty expected fingerprint accepts any campaign.
    testbed::record_reader any(file);
    EXPECT_EQ(any.total(), data.records.size());
}

TEST_F(record_store, reader_rejects_truncated_and_tampered_stores) {
    const auto cfg = quick_config();
    const testbed::dataset data = testbed::run_campaign(cfg);
    const auto file = write_store(data, testbed::campaign_fingerprint(cfg), 4);
    const std::string whole = read_file(file);

    const auto write_variant = [&](const std::string& content) {
        const auto p = dir_ / "variant.store";
        std::ofstream out(p, std::ios::binary | std::ios::trunc);
        out << content;
        return p;
    };

    // Truncations at several depths: mid-footer, mid-chunk, header-only.
    for (const double frac : {0.95, 0.5, 0.05}) {
        const auto p = write_variant(whole.substr(
            0, static_cast<std::size_t>(static_cast<double>(whole.size()) * frac)));
        EXPECT_THROW(testbed::record_reader r(p), testbed::dataset_error)
            << "frac=" << frac;
    }

    // A flipped count in the footer index must be caught, not trusted.
    const auto pos = whole.rfind("chunkoff,0,");
    ASSERT_NE(pos, std::string::npos);
    std::string tampered = whole;
    tampered.insert(pos + std::string("chunkoff,0,").size(), "9");
    EXPECT_THROW(
        {
            testbed::record_reader r(write_variant(tampered));
            testbed::epoch_record rec;
            while (r.next(rec)) {
            }
        },
        testbed::dataset_error);

    EXPECT_THROW(testbed::record_reader r(write_variant("not,a,store\n")),
                 testbed::dataset_error);
    EXPECT_THROW(testbed::record_reader r(dir_ / "missing.store"),
                 testbed::dataset_error);
}

TEST_F(record_store, empty_store_is_diagnosed_as_empty_not_unseekable) {
    // Regression: a 0-byte store (a writer that died before its first
    // flush) and a genuinely unseekable stream used to collapse into the
    // same baffling "store is not seekable" error. The empty file must name
    // its real problem.
    const auto p = dir_ / "empty.store";
    { std::ofstream out(p, std::ios::binary | std::ios::trunc); }
    try {
        testbed::record_reader r(p);
        FAIL() << "empty store must be rejected";
    } catch (const testbed::dataset_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("empty (0 bytes)"), std::string::npos) << msg;
        EXPECT_EQ(msg.find("not seekable"), std::string::npos) << msg;
    }

    // A stream that truly cannot seek still gets the seekability diagnosis.
    struct unseekable_buf : std::streambuf {
        // default seekoff/seekpos return pos_type(-1): every seek fails
    } buf;
    std::istream unseekable(&buf);
    try {
        testbed::record_reader r(unseekable, "<pipe>", "");
        FAIL() << "unseekable stream must be rejected";
    } catch (const testbed::dataset_error& e) {
        EXPECT_NE(std::string(e.what()).find("not seekable"), std::string::npos)
            << e.what();
    }
}

TEST_F(record_store, csv_normalized_record_matches_csv_round_trip) {
    const auto cfg = faulty_config();
    const testbed::dataset data = testbed::run_campaign(cfg);
    const auto csv = dir_ / "a.csv";
    testbed::save_csv(data, csv);
    const testbed::dataset loaded = testbed::load_csv(csv);
    ASSERT_EQ(loaded.records.size(), data.records.size());
    for (std::size_t i = 0; i < data.records.size(); ++i) {
        testbed::epoch_record norm = testbed::csv_normalized_record(data.records[i]);
        expect_records_equal(norm, loaded.records[i]);
    }
}

TEST_F(record_store, evaluate_stream_matches_engine_bitwise) {
    // Faulted campaign: exercises unscored traces, the conditioned RMSRE
    // split, and stale-input scoring — everything the streamed aggregation
    // folds incrementally.
    const auto cfg = faulty_config();
    const testbed::dataset raw = testbed::run_campaign(cfg);
    const auto csv = dir_ / "a.csv";
    testbed::save_csv(raw, csv);
    const testbed::dataset data = testbed::load_csv(csv);

    const std::vector<std::string> specs{"fb:pftk", "10-MA-LSO", "0.8-HW-LSO"};
    const auto results = analysis::evaluation_engine{}.run(data, specs);

    std::vector<const testbed::epoch_record*> ordered;
    for (const auto& [key, recs] : data.traces()) {
        ordered.insert(ordered.end(), recs.begin(), recs.end());
    }
    std::size_t pos = 0;
    analysis::stream_eval_options sopts;
    sopts.keep_epoch_errors = {0, 1, 2};
    const auto streamed = analysis::evaluate_stream(
        [&](testbed::epoch_record& out) {
            if (pos >= ordered.size()) return false;
            out = *ordered[pos++];
            return true;
        },
        specs, sopts);

    ASSERT_EQ(streamed.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& expected = results[i];
        EXPECT_EQ(streamed[i].name, expected.name);
        EXPECT_EQ(streamed[i].traces_unscored, expected.traces_unscored);
        ASSERT_EQ(streamed[i].traces.size(), expected.traces.size());
        for (std::size_t t = 0; t < expected.traces.size(); ++t) {
            EXPECT_EQ(streamed[i].traces[t].path_id, expected.traces[t].path_id);
            EXPECT_EQ(streamed[i].traces[t].trace_id, expected.traces[t].trace_id);
            expect_double_equal(streamed[i].traces[t].rmsre, expected.traces[t].rmsre);
            EXPECT_EQ(streamed[i].traces[t].epochs, expected.traces[t].forecasts());
        }
        const auto errors = expected.epoch_errors();
        ASSERT_EQ(streamed[i].epoch_errors.size(), errors.size());
        for (std::size_t e = 0; e < errors.size(); ++e) {
            expect_double_equal(streamed[i].epoch_errors[e], errors[e]);
        }
        const auto cond = analysis::rmsre_conditioned(expected);
        expect_double_equal(streamed[i].conditioned.rmsre_clean, cond.rmsre_clean);
        EXPECT_EQ(streamed[i].conditioned.n_clean, cond.n_clean);
        expect_double_equal(streamed[i].conditioned.rmsre_faulty, cond.rmsre_faulty);
        EXPECT_EQ(streamed[i].conditioned.n_faulty, cond.n_faulty);
        expect_double_equal(streamed[i].conditioned.rmsre_stale, cond.rmsre_stale);
        EXPECT_EQ(streamed[i].conditioned.n_stale, cond.n_stale);
    }
}

TEST_F(record_store, writer_abort_never_touches_target) {
    const auto file = dir_ / "aborted.store";
    {
        testbed::record_writer w(file, "fp", {});
        w.append(testbed::epoch_record{});
        w.abort();
    }
    EXPECT_FALSE(std::filesystem::exists(file));
    EXPECT_TRUE(std::filesystem::is_empty(dir_));

    {
        // Destructor without finish() behaves like abort().
        testbed::record_writer w(file, "fp", {});
        w.append(testbed::epoch_record{});
    }
    EXPECT_FALSE(std::filesystem::exists(file));
    EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

// --- checkpoints are record stores ----------------------------------------
// A checkpoint is a store whose header carries the done bitmap. Every
// malformed variant must surface as dataset_error, raised before anything is
// sized by the declared total: the retired row reader let std::bad_alloc
// ("total,99999999999999") and std::invalid_argument ("total,abc") escape
// and read "rec,1,3x,..." as path 3.

/// 2 paths x 1 trace x 3 epochs = 6 slots.
testbed::campaign_config six_slot_config() {
    testbed::campaign_config cfg;
    cfg.paths = 2;
    cfg.traces_per_path = 1;
    cfg.epochs_per_trace = 3;
    return cfg;
}

/// Slots 0, 2 and 3 completed, with distinctive field values: a 20-digit
/// event count, a prefix list, a NaN, a fault flag.
testbed::campaign_checkpoint six_slot_checkpoint() {
    testbed::campaign_checkpoint ck;
    ck.fingerprint = testbed::campaign_fingerprint(six_slot_config());
    ck.total = 6;
    ck.done = {1, 0, 1, 1, 0, 0};
    ck.records.resize(6);
    for (const std::size_t i : {0u, 2u, 3u}) {
        testbed::epoch_record& r = ck.records[i];
        r.path_id = i < 3 ? 1 : 2;
        r.epoch_index = static_cast<int>(i % 3);
        r.m.r_large_bps = 1.5 + static_cast<double>(i);
        r.m.phat = i == 2 ? std::nan("") : 0.01;
        r.m.events = 10000000000000000000ULL + i;
        r.m.fault_flags = i == 3 ? testbed::fault_pathload_failed : testbed::fault_none;
        r.m.prefix_goodputs = {{0.5, 2e5}, {1.0, 3e5}};
    }
    return ck;
}

/// Parse `text` as a checkpoint of six_slot_config (or of any campaign when
/// `fingerprint` is empty) and require a dataset_error containing `needle`.
void expect_checkpoint_error(const std::string& text, const std::string& needle,
                             const std::string& fingerprint =
                                 testbed::campaign_fingerprint(six_slot_config())) {
    std::istringstream in(text);
    try {
        (void)testbed::load_checkpoint(in, "<test>", fingerprint);
        ADD_FAILURE() << "accepted a malformed checkpoint; want \"" << needle << "\"";
    } catch (const testbed::dataset_error& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
}

/// `text` with the first occurrence of `from` replaced by `to`.
std::string replaced(std::string text, const std::string& from, const std::string& to) {
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return text;
}

TEST_F(record_store, checkpoint_is_a_store_with_a_done_bitmap) {
    const auto ck = six_slot_checkpoint();
    const auto file = dir_ / "c.ckpt";
    testbed::save_checkpoint(ck, file);
    const std::string text = read_file(file);
    EXPECT_EQ(text.rfind("tcppred-store,v1\n", 0), 0u);
    // Slots 0, 2, 3 -> bits 0, 2, 3 of the first digit (0xd); slots 4, 5
    // -> the second digit, whose two padding bits stay zero.
    EXPECT_NE(text.find("\ndone,6,d0\n"), std::string::npos) << text;

    testbed::record_reader reader(file);
    ASSERT_TRUE(reader.done_total().has_value());
    EXPECT_EQ(*reader.done_total(), 6u);
    EXPECT_EQ(reader.total(), 3u);

    const auto back = testbed::load_checkpoint(file, ck.fingerprint);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->fingerprint, ck.fingerprint);
    EXPECT_EQ(back->total, 6u);
    EXPECT_EQ(back->done, ck.done);
    for (const std::size_t i : {0u, 2u, 3u}) {
        expect_records_equal(back->records[i], ck.records[i]);
    }
    EXPECT_FALSE(testbed::load_checkpoint(dir_ / "absent.ckpt", ck.fingerprint).has_value());
}

TEST_F(record_store, checkpoint_rejects_every_truncation) {
    const auto file = dir_ / "c.ckpt";
    testbed::save_checkpoint(six_slot_checkpoint(), file);
    const std::string text = read_file(file);
    // Every proper prefix except the one missing only the final newline
    // (the same content) must be refused.
    for (std::size_t n = 0; n + 1 < text.size(); ++n) {
        SCOPED_TRACE(n);
        expect_checkpoint_error(text.substr(0, n), "");
    }
}

TEST_F(record_store, checkpoint_rejects_tampered_bitmap_and_total) {
    const auto file = dir_ / "c.ckpt";
    testbed::save_checkpoint(six_slot_checkpoint(), file);
    const std::string text = read_file(file);
    // An extra done bit: the bitmap now claims more records than exist.
    expect_checkpoint_error(replaced(text, "done,6,d0", "done,6,f0"),
                            "done bitmap marks 4 epochs but the store holds 3");
    expect_checkpoint_error(replaced(text, "done,6,d0", "done,6,D0"), "bad done bitmap digit");
    // A padding bit past slot 5.
    expect_checkpoint_error(replaced(text, "done,6,d0", "done,6,d4"), "bad done bitmap digit");
    // Tampered totals: one the bitmap cannot span, garbage, and ones the
    // bitmap spans but the campaign does not have.
    expect_checkpoint_error(replaced(text, "done,6,", "done,99999999999999,"),
                            "done bitmap length disagrees with its total");
    expect_checkpoint_error(replaced(text, "done,6,", "done,abc,"),
                            "store field: \"abc\" (expected an unsigned integer)");
    expect_checkpoint_error(replaced(text, "done,6,", "done,7,"),
                            "checkpoint total 7 disagrees with the campaign's 6 epochs");
    expect_checkpoint_error(replaced(text, "done,6,", "done,5,"),
                            "checkpoint total 5 disagrees with the campaign's 6 epochs");
}

TEST_F(record_store, checkpoint_rejects_partial_and_out_of_range_fields) {
    const auto file = dir_ / "c.ckpt";
    testbed::save_checkpoint(six_slot_checkpoint(), file);
    const std::string text = read_file(file);
    // Same-length edits keep the footer offsets valid, so the field parser
    // itself must refuse them.
    expect_checkpoint_error(replaced(text, "col,path,1,", "col,path,x,"),
                            "store field: \"x\" (expected an integer)");
    expect_checkpoint_error(replaced(text, "col,trace,0,", "col,trace,-,"),
                            "store field: \"-\" (expected an integer)");
    expect_checkpoint_error(replaced(text, "10000000000000000000", "99999999999999999999"),
                            "(value overflows)");
    expect_checkpoint_error(replaced(text, "col,events,1", "col,events,-"),
                            "(expected an unsigned integer)");
    expect_checkpoint_error(
        replaced(text, "col,r_large_bps,0x1.8p+0", "col,r_large_bps,0x1.8p+z"),
        "store field: \"0x1.8p+z\" (expected a float)");
    expect_checkpoint_error(replaced(text, "chunk_capacity,1024", "chunk_capacity,1o24"),
                            "store field: \"1o24\" (expected an unsigned integer)");
}

/// Strings strtod reads as a float but hexd() never writes: each double has
/// exactly one accepted encoding (whitespace, decimal, uppercase, spelled-out
/// infinity and NaN payloads are all refused).
const std::vector<std::string> k_non_canonical_floats{
    " 0x1p+0", "\t2", "1.5", "1e3", "infinity", "nan(123)", "0X1P0"};

/// `text` with `from` replaced by `to` inside its only chunk, and the end
/// line re-pointed at the shifted footer, so only the field parser can
/// object to the edit.
std::string replaced_in_chunk(const std::string& text, const std::string& from,
                              const std::string& to) {
    std::string out = replaced(text, from, to);
    const std::size_t footer = out.rfind("\nfooter,") + 1;
    out.replace(out.rfind("end,"), std::string::npos, "end," + std::to_string(footer) + "\n");
    return out;
}

TEST_F(record_store, float_fields_accept_only_hexd_bytes) {
    const auto file = dir_ / "c.ckpt";
    testbed::save_checkpoint(six_slot_checkpoint(), file);
    const std::string text = read_file(file);
    const std::string from = "col,r_large_bps,0x1.8p+0,";
    {
        // The re-pointing itself is sound: a canonical edit loads.
        std::istringstream in(replaced_in_chunk(text, from, "col,r_large_bps,0x1p+0,"));
        const auto ck =
            testbed::load_checkpoint(in, "<test>", testbed::campaign_fingerprint(six_slot_config()));
        EXPECT_EQ(ck.records[0].m.r_large_bps, 1.0);
    }
    for (const std::string& bad : k_non_canonical_floats) {
        expect_checkpoint_error(replaced_in_chunk(text, from, "col,r_large_bps," + bad + ","),
                                "store field: \"" + bad + "\" (expected a float)");
    }
}

TEST_F(record_store, checkpoint_rejects_record_count_disagreeing_with_bitmap) {
    const auto ck = six_slot_checkpoint();
    for (const std::size_t appended : {2u, 4u}) {
        const auto file = dir_ / ("c" + std::to_string(appended) + ".ckpt");
        {
            testbed::record_writer w(file, ck.fingerprint, {}, {}, &ck.done);
            for (std::size_t i = 0; i < appended; ++i) w.append(ck.records[0]);
            w.finish();
        }
        expect_checkpoint_error(read_file(file),
                                "done bitmap marks 3 epochs but the store holds " +
                                    std::to_string(appended));
    }
}

TEST_F(record_store, checkpoint_rejects_total_far_above_config) {
    // A well-formed bitmap of 4096 slots under a 6-epoch fingerprint: the
    // mismatch is caught before load_checkpoint sizes anything by it.
    const std::vector<char> done(4096, 0);
    const auto file = dir_ / "big.ckpt";
    {
        testbed::record_writer w(file, testbed::campaign_fingerprint(six_slot_config()), {},
                                 {}, &done);
        w.finish();
    }
    expect_checkpoint_error(read_file(file),
                            "checkpoint total 4096 disagrees with the campaign's 6 epochs");
    EXPECT_THROW((void)testbed::load_checkpoint(
                     file, testbed::campaign_fingerprint(six_slot_config())),
                 testbed::dataset_error);

    // A fingerprint declaring an unaddressable grid, accepted as "any
    // campaign": refused by arithmetic, not by an allocation failure.
    const std::vector<char> one(1, 0);
    const auto huge = dir_ / "huge.ckpt";
    {
        testbed::record_writer w(huge, "v2|4294967295|4294967295|4294967295", {}, {}, &one);
        w.finish();
    }
    expect_checkpoint_error(read_file(huge), "epoch grid overflows", "");
}

TEST_F(record_store, legacy_row_checkpoint_is_refused_by_name) {
    const std::string fp = testbed::campaign_fingerprint(six_slot_config());
    const std::string head = "tcppred-checkpoint,v1\nfingerprint," + fp + "\n";
    for (const std::string& body :
         {std::string("total,6\nrec,1,3x,0,0\n"), std::string("total,abc\n"),
          std::string("total,99999999999999\n")}) {
        expect_checkpoint_error(head + body, "retired checkpoint format tcppred-checkpoint,v1");
    }
    // The shard merge reads through the same reader.
    const auto shard = dir_ / "legacy.ckpt";
    std::ofstream(shard, std::ios::binary) << head << "total,6\n";
    try {
        (void)testbed::merge_shard_checkpoints(six_slot_config(), {shard});
        ADD_FAILURE() << "merged a legacy checkpoint";
    } catch (const testbed::dataset_error& e) {
        EXPECT_NE(std::string(e.what()).find("tcppred-checkpoint,v1"), std::string::npos)
            << e.what();
    }
}

TEST_F(record_store, plain_store_is_not_a_checkpoint) {
    testbed::dataset data;
    data.records.resize(6);
    const std::string fp = testbed::campaign_fingerprint(six_slot_config());
    expect_checkpoint_error(read_file(write_store(data, fp, 4)), "no done bitmap");
}

TEST_F(record_store, checkpoint_fingerprint_mismatch_names_the_field) {
    const auto file = dir_ / "c.ckpt";
    testbed::save_checkpoint(six_slot_checkpoint(), file);
    testbed::campaign_config other = six_slot_config();
    other.seed = 99;
    expect_checkpoint_error(read_file(file), "seed: checkpoint=20040501 requested=99",
                            testbed::campaign_fingerprint(other));
}

}  // namespace
