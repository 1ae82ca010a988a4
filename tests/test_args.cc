/**
 * @file
 * Unit tests for the command-line argument parser.
 */

#include <gtest/gtest.h>

#include "common/args.hh"

namespace gpumech
{
namespace
{

TEST(Args, PositionalsInOrder)
{
    ArgParser a({"model", "srad_kernel1"});
    EXPECT_EQ(a.numPositional(), 2u);
    EXPECT_EQ(a.positional(0), "model");
    EXPECT_EQ(a.positional(1), "srad_kernel1");
    EXPECT_EQ(a.positional(2, "fallback"), "fallback");
}

TEST(Args, KeyValueWithSpace)
{
    ArgParser a({"--warps", "16"});
    EXPECT_TRUE(a.has("warps"));
    EXPECT_EQ(a.get("warps"), "16");
    EXPECT_EQ(a.getUint("warps", 0), 16u);
}

TEST(Args, KeyValueWithEquals)
{
    ArgParser a({"--bw=96.5"});
    auto bw = a.getDouble("bw", 0.0);
    ASSERT_TRUE(bw.ok());
    EXPECT_DOUBLE_EQ(bw.value(), 96.5);
}

TEST(Args, BareFlagBeforeAnotherOption)
{
    ArgParser a({"--model-sfu", "--warps", "8"});
    EXPECT_TRUE(a.has("model-sfu"));
    EXPECT_EQ(a.get("model-sfu", "unset"), "unset"); // valueless
    EXPECT_EQ(a.getUint("warps", 0), 8u);
}

TEST(Args, TrailingBareFlag)
{
    ArgParser a({"compare", "--model-sfu"});
    EXPECT_TRUE(a.has("model-sfu"));
    EXPECT_EQ(a.positional(0), "compare");
}

TEST(Args, KnownFlagNeverTakesTheNextToken)
{
    // Without the flag list "--predict micro" read "micro" as the
    // flag's value.
    ArgParser a({"suite", "--predict", "micro", "--json=false", "--warps",
                 "4"},
                {"predict", "json"});
    EXPECT_EQ(a.positional(1), "micro");
    EXPECT_TRUE(a.has("predict"));
    EXPECT_EQ(a.get("predict", "unset"), "unset");
    // "--flag=value" keeps its value, so the caller can reject it.
    EXPECT_EQ(a.get("json"), "false");
    EXPECT_EQ(a.getUint("warps", 0), 4u);
}

TEST(Args, MixedPositionalsAndOptions)
{
    ArgParser a({"dump-trace", "--warps=4", "vectorAdd", "/tmp/x",
                 "--policy", "gto"});
    EXPECT_EQ(a.positional(0), "dump-trace");
    EXPECT_EQ(a.positional(1), "vectorAdd");
    EXPECT_EQ(a.positional(2), "/tmp/x");
    EXPECT_EQ(a.getUint("warps", 0), 4u);
    EXPECT_EQ(a.get("policy"), "gto");
}

TEST(Args, OptionNamesListsEveryGivenOption)
{
    ArgParser a({"serve", "--socket", "/tmp/s", "--no-output",
                 "--jobs=2", "extra"});
    EXPECT_EQ(a.optionNames(),
              (std::vector<std::string>{"jobs", "no-output", "socket"}));
    EXPECT_TRUE(ArgParser(std::vector<std::string>{"model"})
                    .optionNames()
                    .empty());
}

TEST(Args, CheckOptionNamesRejectsTheFirstUnknownName)
{
    ArgParser a({"--out", "f", "--zeta", "1", "--bogus", "2"});
    EXPECT_TRUE(a.checkOptionNames({"bogus", "out", "zeta"}).ok());
    Status s = a.checkOptionNames({"out", "jobs"});
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_EQ(s.message(), "unknown option --bogus");
}

TEST(Args, DefaultsWhenAbsent)
{
    ArgParser a({});
    EXPECT_FALSE(a.has("warps"));
    EXPECT_EQ(a.getUint("warps", 32), 32u);
    auto bw = a.getDouble("bw", 192.0);
    ASSERT_TRUE(bw.ok());
    EXPECT_DOUBLE_EQ(bw.value(), 192.0);
    EXPECT_EQ(a.get("policy", "rr"), "rr");
}

TEST(Args, ArgcArgvConstructorSkipsProgramName)
{
    const char *argv[] = {"gpumech", "list", "--warps", "8"};
    ArgParser a(4, argv);
    EXPECT_EQ(a.positional(0), "list");
    EXPECT_EQ(a.getUint("warps", 0), 8u);
}

TEST(Args, GetPositiveUintAcceptsPlainPositiveIntegers)
{
    ArgParser a({"--warps", "16", "--mshrs=4294967295"});
    auto warps = a.getPositiveUint("warps", 1);
    ASSERT_TRUE(warps.ok());
    EXPECT_EQ(warps.value(), 16u);
    auto mshrs = a.getPositiveUint("mshrs", 1);
    ASSERT_TRUE(mshrs.ok());
    EXPECT_EQ(mshrs.value(), 4294967295u);
    // Absent options return the fallback unchecked (0 = "auto").
    auto jobs = a.getPositiveUint("jobs", 0);
    ASSERT_TRUE(jobs.ok());
    EXPECT_EQ(jobs.value(), 0u);
}

TEST(Args, GetPositiveUintRejectsZeroNegativeAndJunk)
{
    // "-1" is the important case: strtoul silently wraps it to
    // 4294967295, which getUint would accept.
    for (const char *bad : {"0", "-1", "-2", "1.5", "eight", "1e3",
                            "0x10", " 8", "4294967296"}) {
        ArgParser a({"--warps", bad});
        auto r = a.getPositiveUint("warps", 32);
        EXPECT_FALSE(r.ok()) << "accepted --warps " << bad;
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("--warps"),
                  std::string::npos)
            << r.status().message();
    }
}

TEST(ArgsDeath, NonNumericValueIsFatal)
{
    // strtoul wraps "-1" to ~4e9, and the uint32 cast truncates
    // 2^32+1 to 1: both must fail instead.
    for (const char *bad : {"eight", "-1", "4294967297"}) {
        ArgParser a({"--warps", bad});
        EXPECT_DEATH(
            { [[maybe_unused]] auto v = a.getUint("warps", 0); },
            "expects an integer")
            << bad;
    }
}

TEST(Args, GetDoubleAcceptsNumbersAndFallsBack)
{
    ArgParser a({"--bw", "256", "--mrc-rate=0.5"});
    auto bw = a.getDouble("bw", 0.0);
    ASSERT_TRUE(bw.ok());
    EXPECT_DOUBLE_EQ(bw.value(), 256.0);
    auto rate = a.getDouble("mrc-rate", 1.0);
    ASSERT_TRUE(rate.ok());
    EXPECT_DOUBLE_EQ(rate.value(), 0.5);
    auto absent = a.getDouble("max-cost", 7.25);
    ASSERT_TRUE(absent.ok());
    EXPECT_DOUBLE_EQ(absent.value(), 7.25);
}

TEST(Args, GetDoubleRejectsJunkAndNonFinite)
{
    // The old getDouble called fatal() on junk — one bad "--bw fast"
    // killed the whole daemon — and silently accepted inf/nan, which
    // slip past HardwareConfig's "> 0" validation. All of these must
    // come back as InvalidArgument now.
    for (const char *bad : {"fast", "12x", "", " 8", "nan", "NaN",
                            "inf", "-inf", "infinity", "1e999"}) {
        ArgParser a({"--bw", bad});
        auto r = a.getDouble("bw", 1.0);
        if (std::string(bad).empty()) {
            // Valueless option: fallback, same as getUint/get.
            ASSERT_TRUE(r.ok());
            continue;
        }
        EXPECT_FALSE(r.ok()) << "accepted --bw " << bad;
        EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(r.status().message().find("--bw"), std::string::npos)
            << r.status().message();
    }
}

} // namespace
} // namespace gpumech
