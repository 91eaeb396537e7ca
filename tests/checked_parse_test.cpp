// Checked knob parsing (core/checked_parse.hpp): whole-token decimal /
// unsigned / double parsing with typed rejection. These are the semantics
// every CLI flag, environment knob and daemon request field now shares —
// the "atoi returns 0" failure mode this layer replaces must stay dead.
#include "core/checked_parse.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cli.hpp"
#include "core/contracts.hpp"

using namespace tcppred::core;
namespace cli = tcppred::core::cli;

TEST(parse_checked_int, accepts_plain_decimals_in_range) {
    EXPECT_EQ(parse_checked_int("--paths", "35", 1, 1000), 35);
    EXPECT_EQ(parse_checked_int("--paths", "1", 1, 1000), 1);
    EXPECT_EQ(parse_checked_int("--paths", "1000", 1, 1000), 1000);
    EXPECT_EQ(parse_checked_int("--delta", "-7", -10, 10), -7);
    EXPECT_EQ(parse_checked_int("--big", "9223372036854775807",
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()),
              std::numeric_limits<std::int64_t>::max());
}

TEST(parse_checked_int, rejects_everything_atoi_accepted_silently) {
    // Each of these was a silent 0 (or a silent truncation) under atoi.
    EXPECT_THROW((void)parse_checked_int("--paths", "foo", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "12x", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", " 12", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "12 ", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "1 2", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "0x10", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "3.5", 1, 1000), parse_error);
}

TEST(parse_checked_int, range_and_overflow_are_errors_not_saturation) {
    EXPECT_THROW((void)parse_checked_int("--paths", "0", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "-3", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "1001", 1, 1000), parse_error);
    EXPECT_THROW((void)parse_checked_int("--paths", "99999999999999999999", 1, 1000),
                 parse_error);
}

TEST(parse_checked_int, error_names_the_knob_and_the_text) {
    try {
        (void)parse_checked_int("--paths", "foo", 1, 1000);
        FAIL() << "must throw";
    } catch (const parse_error& e) {
        EXPECT_EQ(e.knob(), "--paths");
        EXPECT_EQ(e.text(), "foo");
        const std::string msg = e.what();
        EXPECT_NE(msg.find("--paths"), std::string::npos) << msg;
        EXPECT_NE(msg.find("\"foo\""), std::string::npos) << msg;
    }
}

TEST(parse_checked_u64, accepts_full_unsigned_range_and_rejects_sign) {
    EXPECT_EQ(parse_checked_u64("--seed", "0", 0,
                                std::numeric_limits<std::uint64_t>::max()),
              0u);
    EXPECT_EQ(parse_checked_u64("--seed", "18446744073709551615", 0,
                                std::numeric_limits<std::uint64_t>::max()),
              std::numeric_limits<std::uint64_t>::max());
    // strtoull would happily wrap "-1" around; the checked parser must not.
    EXPECT_THROW((void)parse_checked_u64("--seed", "-1", 0, 100), parse_error);
    EXPECT_THROW((void)parse_checked_u64("--seed", "18446744073709551616", 0,
                                         std::numeric_limits<std::uint64_t>::max()),
                 parse_error);
    EXPECT_THROW((void)parse_checked_u64("--seed", "12q", 0, 100), parse_error);
}

TEST(parse_checked_double, accepts_decimal_scientific_and_hexfloat) {
    EXPECT_DOUBLE_EQ(parse_checked_double("--transfer-s", "10", 0.0, 100.0), 10.0);
    EXPECT_DOUBLE_EQ(parse_checked_double("--transfer-s", "2.5e1", 0.0, 100.0), 25.0);
    EXPECT_EQ(parse_checked_double("--x", "0x1.8p+1", 0.0, 100.0), 3.0);
}

TEST(parse_checked_double, rejects_nonfinite_partial_and_out_of_range) {
    EXPECT_THROW((void)parse_checked_double("--t", "inf", 0.0, 1e9), parse_error);
    EXPECT_THROW((void)parse_checked_double("--t", "nan", 0.0, 1e9), parse_error);
    EXPECT_THROW((void)parse_checked_double("--t", "1.5s", 0.0, 1e9), parse_error);
    EXPECT_THROW((void)parse_checked_double("--t", "", 0.0, 1e9), parse_error);
    EXPECT_THROW((void)parse_checked_double("--t", "-0.1", 0.0, 1e9), parse_error);
    EXPECT_THROW((void)parse_checked_double("--t", "1e10", 0.0, 1e9), parse_error);
}

TEST(parse_checked_choice, accepts_exact_names_and_returns_their_index) {
    EXPECT_EQ(parse_checked_choice("--m", "packet", {"packet", "fluid"}), 0u);
    EXPECT_EQ(parse_checked_choice("--m", "fluid", {"packet", "fluid"}), 1u);
}

TEST(parse_checked_choice, rejects_anything_else_naming_knob_text_and_choices) {
    for (const char* bad : {"", "Fluid", "fluid ", " fluid", "flu", "fluidx"}) {
        EXPECT_THROW((void)parse_checked_choice("--m", bad, {"packet", "fluid"}), parse_error)
            << bad;
    }
    try {
        (void)parse_checked_choice("REPRO_CROSS_MODEL", "garbage", {"packet", "fluid"});
        FAIL() << "must throw";
    } catch (const parse_error& e) {
        EXPECT_EQ(e.knob(), "REPRO_CROSS_MODEL");
        EXPECT_EQ(e.text(), "garbage");
        const std::string msg = e.what();
        EXPECT_NE(msg.find("packet, fluid"), std::string::npos) << msg;
    }
}

// The flag table (core/cli.hpp) every tool parses its command line with.

TEST(cli_table, duplicate_flag_name_is_a_contract_violation) {
    int a = 0;
    int b = 0;
    EXPECT_THROW(cli::table("[options]", {{"--n", "N", "first", cli::integer(a, 0, 9)},
                                          {"--n", "N", "second", cli::integer(b, 0, 9)}}),
                 tcppred::contract_violation);
}

TEST(cli_table, generated_usage_contains_every_entry) {
    int n = 0;
    bool on = false;
    std::string file;
    std::vector<std::string> specs;
    const std::vector<std::pair<std::string, std::string>> entries{
        {"--count N", "how many"},
        {"--verbose", "talk more"},
        {"--out FILE", "where to write"},
        {"--specs LIST", "spec list"}};
    const cli::table t("--out FILE [options]",
                       {{"--count", "N", "how many\nsecond help line", cli::integer(n, 0, 9)},
                        {"--verbose", "", "talk more", cli::set(on)},
                        {"--out", "FILE", "where to write", cli::text(file)},
                        {"--specs", "LIST", "spec list", cli::list(specs)}});
    const std::string usage = t.usage("prog");
    EXPECT_EQ(usage.rfind("usage: prog --out FILE [options]\n", 0), 0u) << usage;
    for (const auto& [label, help] : entries) {
        EXPECT_NE(usage.find("  " + label + " "), std::string::npos) << label;
        EXPECT_NE(usage.find(help + "\n"), std::string::npos) << help;
    }
    EXPECT_NE(usage.find("second help line\n"), std::string::npos) << usage;
}

TEST(cli_table, parse_binds_values_and_keeps_the_exit_contract) {
    std::optional<int> n;
    bool on = false;
    std::string pos;
    std::vector<std::string> specs{"default"};
    cli::table t("[options]", {{"--n", "N", "a number", cli::integer(n, 1, 9)},
                               {"--on", "", "a switch", cli::set(on)},
                               {"--specs", "LIST", "a list", cli::list(specs)}});
    t.positional(pos);
    const auto run = [&](std::vector<const char*> args) {
        args.insert(args.begin(), "prog");
        return t.parse(static_cast<int>(args.size()), args.data());
    };
    EXPECT_FALSE(run({"--specs", "a,b", "x.csv", "--n", "3", "--on"}).has_value());
    EXPECT_EQ(n, 3);
    EXPECT_TRUE(on);
    EXPECT_EQ(pos, "x.csv");
    EXPECT_EQ(specs, (std::vector<std::string>{"a", "b"}));
    ASSERT_EQ(t.consumed().size(), 3u);
    EXPECT_EQ(t.consumed()[0].flag, "--specs");
    EXPECT_EQ(t.consumed()[0].value, "a,b");
    EXPECT_EQ(t.consumed()[2].flag, "--on");
    EXPECT_EQ(t.consumed()[2].value, std::nullopt);

    EXPECT_EQ(run({"--help"}), 0);
    EXPECT_EQ(run({"--bogus"}), 1);
    EXPECT_EQ(run({"--n"}), 1);
    EXPECT_EQ(run({"y.csv"}), 1);  // pos already holds x.csv: an extra argument
    EXPECT_EQ(run({"--n", "10"}), 2);
    for (const char* bad : {"", ",", "a,,b", "a,", ",a"}) {
        EXPECT_EQ(run({"--specs", bad}), 2) << bad;
    }
}
