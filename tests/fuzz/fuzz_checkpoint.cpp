// Fuzz harness: testbed::load_checkpoint over arbitrary bytes.
//
// Contract under test — a campaign checkpoint is a record store whose header
// carries a done bitmap, read back through the same strict record_reader.
// Every input must either load or throw dataset_error; any other escape
// (crash, sanitizer report, std::bad_alloc from a tampered total, a foreign
// exception type) is a bug. The input is parsed twice: once accepting any
// campaign (so the bitmap-vs-fingerprint size check sees arbitrary grids),
// once demanding the seed corpus's campaign, so the mismatch path is
// exercised too. A successful load must be internally consistent.
//
// Built two ways (see tests/fuzz/CMakeLists.txt): as a libFuzzer target
// under -DREPRO_FUZZ=ON (Clang), or with the corpus-replay main() under any
// compiler, where it runs as the fuzz_corpus_checkpoint ctest.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

#include "testbed/checkpoint.hpp"
#include "testbed/dataset.hpp"

namespace {

/// The campaign the seed corpus was written for: 2 paths x 1 trace x 3
/// epochs at the default seed (tests/fuzz_corpora/checkpoint/).
const std::string& corpus_fingerprint() {
    static const std::string fp = [] {
        tcppred::testbed::campaign_config cfg;
        cfg.paths = 2;
        cfg.traces_per_path = 1;
        cfg.epochs_per_trace = 3;
        return tcppred::testbed::campaign_fingerprint(cfg);
    }();
    return fp;
}

void parse_one(const std::string& bytes, const std::string& expected_fingerprint) {
    std::istringstream in(bytes);
    try {
        const tcppred::testbed::campaign_checkpoint ck =
            tcppred::testbed::load_checkpoint(in, "<fuzz>", expected_fingerprint);
        if (ck.done.size() != ck.total || ck.records.size() != ck.total) std::abort();
    } catch (const tcppred::testbed::dataset_error&) {
        // The documented rejection path for malformed input.
    }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    const std::string bytes(reinterpret_cast<const char*>(data), size);
    parse_one(bytes, "");
    parse_one(bytes, corpus_fingerprint());
    return 0;
}
