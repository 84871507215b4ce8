/**
 * @file
 * Unit tests for the common substrate: RNG, statistics, tables, strict
 * numeric parsing and the thread-count cap (as pure functions: no
 * test here starts a pool or a tool at an out-of-range count).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>

#include "common/parallel.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace cegma {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next64() == b.next64());
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = rng.nextBounded(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = rng.nextGaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, SampleDistinctProducesDistinct)
{
    Rng rng(5);
    for (uint32_t k : {0u, 1u, 5u, 50u, 100u}) {
        auto s = rng.sampleDistinct(100, k);
        std::set<uint32_t> unique(s.begin(), s.end());
        EXPECT_EQ(unique.size(), k);
        for (uint32_t v : s)
            EXPECT_LT(v, 100u);
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(9);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(RunningStat, Basics)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    s.add(1.0);
    s.add(3.0);
    s.add(2.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(RunningStat, Merge)
{
    RunningStat a, b;
    a.add(1.0);
    a.add(2.0);
    b.add(10.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.max(), 10.0);
    RunningStat empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 3u);
}

TEST(IntDistribution, FractionBelow)
{
    IntDistribution d;
    d.add(1);
    d.add(2);
    d.add(4);
    d.add(100);
    EXPECT_DOUBLE_EQ(d.fractionBelow(1), 0.0);
    EXPECT_DOUBLE_EQ(d.fractionBelow(2), 0.25);
    EXPECT_DOUBLE_EQ(d.fractionBelow(5), 0.75);
    EXPECT_DOUBLE_EQ(d.fractionBelow(1000), 1.0);
    EXPECT_EQ(d.maxValue(), 100u);
    EXPECT_EQ(d.total(), 4u);
}

TEST(IntDistribution, Pow2Cdf)
{
    IntDistribution d;
    for (uint64_t v = 0; v < 16; ++v)
        d.add(v);
    EXPECT_DOUBLE_EQ(d.cdfAtPow2(4), 1.0);
    EXPECT_DOUBLE_EQ(d.cdfAtPow2(3), 0.5);
}

TEST(IntDistribution, MergeAndWeights)
{
    IntDistribution a, b;
    a.addWeighted(3, 5);
    b.addWeighted(3, 5);
    b.addWeighted(7, 10);
    a.merge(b);
    EXPECT_EQ(a.total(), 20u);
    EXPECT_DOUBLE_EQ(a.fractionBelow(4), 0.5);
}

TEST(IntDistribution, ValueAtQuantile)
{
    IntDistribution d;
    EXPECT_EQ(d.valueAtQuantile(0.5), 0u); // empty

    for (uint64_t v = 1; v <= 100; ++v)
        d.add(v);
    EXPECT_EQ(d.valueAtQuantile(0.0), 1u);
    EXPECT_EQ(d.valueAtQuantile(0.01), 1u);
    EXPECT_EQ(d.valueAtQuantile(0.5), 50u);
    EXPECT_EQ(d.valueAtQuantile(0.95), 95u);
    EXPECT_EQ(d.valueAtQuantile(0.99), 99u);
    EXPECT_EQ(d.valueAtQuantile(1.0), 100u);
    EXPECT_EQ(d.valueAtQuantile(2.0), 100u);  // clamped
    EXPECT_EQ(d.valueAtQuantile(-1.0), 1u);   // clamped
}

TEST(IntDistribution, ValueAtQuantileWeighted)
{
    IntDistribution d;
    d.addWeighted(10, 9);
    d.addWeighted(1000, 1);
    EXPECT_EQ(d.valueAtQuantile(0.5), 10u);
    EXPECT_EQ(d.valueAtQuantile(0.9), 10u);
    EXPECT_EQ(d.valueAtQuantile(0.91), 1000u);

    IntDistribution single;
    single.add(42);
    EXPECT_EQ(single.valueAtQuantile(0.5), 42u);
    EXPECT_EQ(single.valueAtQuantile(0.99), 42u);
}

TEST(StatSet, IncrementAndMerge)
{
    StatSet s;
    s.inc("cycles", 100);
    s.inc("cycles", 50);
    s.set("bytes", 7);
    EXPECT_EQ(s.get("cycles"), 150u);
    EXPECT_EQ(s.get("bytes"), 7u);
    EXPECT_EQ(s.get("missing"), 0u);

    StatSet t;
    t.inc("cycles", 1);
    t.inc("other", 2);
    s.merge(t);
    EXPECT_EQ(s.get("cycles"), 151u);
    EXPECT_EQ(s.get("other"), 2u);
}

TEST(TextTable, AlignsAndCounts)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22222"});
    EXPECT_EQ(t.numRows(), 2u);
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22222"), std::string::npos);

    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_NE(csv.str().find("b,22222"), std::string::npos);
}

TEST(TextTable, Formatters)
{
    EXPECT_EQ(TextTable::fmt(1.234, 2), "1.23");
    EXPECT_EQ(TextTable::fmtX(2.5), "2.5x");
    EXPECT_EQ(TextTable::fmtPct(0.934), "93.4%");
    EXPECT_EQ(TextTable::fmtBytes(2048), "2.00 KiB");
    EXPECT_EQ(TextTable::fmtCount(1500), "1.50K");
}

TEST(Units, CycleConversions)
{
    EXPECT_DOUBLE_EQ(cyclesToSeconds(1e9, GHz), 1.0);
    EXPECT_DOUBLE_EQ(cyclesToMs(2e6, GHz), 2.0);
}

TEST(ParseInRange, AcceptsWholeNumbersInRange)
{
    EXPECT_EQ(parseInRange<uint32_t>("12", 0, 100), 12u);
    EXPECT_EQ(parseInRange<uint32_t>("0", 0, 100), 0u);
    EXPECT_EQ(parseInRange<uint32_t>("100", 0, 100), 100u);
    EXPECT_EQ(parseInRange<int>("-1", -1, 65535), -1);
    EXPECT_EQ(parseInRange<uint64_t>("18446744073709551615", 0,
                                     std::numeric_limits<uint64_t>::max()),
              std::numeric_limits<uint64_t>::max());
    EXPECT_EQ(parseInRange<double>("0.25", 0.0, 1.0), 0.25);
    EXPECT_EQ(parseInRange<double>("1e3", 0.0, 1e9), 1000.0);
}

TEST(ParseInRange, RejectsGarbageTrailingAndEmpty)
{
    EXPECT_FALSE(parseInRange<uint32_t>("abc", 0, 100));
    EXPECT_FALSE(parseInRange<uint32_t>("12abc", 0, 100));
    EXPECT_FALSE(parseInRange<uint32_t>("12 ", 0, 100));
    EXPECT_FALSE(parseInRange<uint32_t>(" 12", 0, 100));
    EXPECT_FALSE(parseInRange<uint32_t>("+12", 0, 100));
    EXPECT_FALSE(parseInRange<uint32_t>("", 0, 100));
    EXPECT_FALSE(parseInRange<uint32_t>("0x10", 0, 100));
    EXPECT_FALSE(parseInRange<double>("1x", 0.0, 1e9));
    EXPECT_FALSE(parseInRange<double>("", 0.0, 1e9));
    EXPECT_FALSE(parseInRange<double>("nan", 0.0, 1e9));
    EXPECT_FALSE(parseInRange<double>("inf", 0.0, 1e9));
}

TEST(ParseInRange, RejectsNegativesOverflowAndOutOfRange)
{
    // stoul would read "-1" as 2^64 - 1.
    EXPECT_FALSE(parseInRange<uint32_t>("-1", 0, 100));
    EXPECT_FALSE(parseInRange<uint64_t>(
        "-1", 0, std::numeric_limits<uint64_t>::max()));
    EXPECT_FALSE(parseInRange<uint32_t>("4294967296", 0,
                                        std::numeric_limits<uint32_t>::max()));
    EXPECT_FALSE(parseInRange<uint64_t>(
        "18446744073709551616", 0, std::numeric_limits<uint64_t>::max()));
    EXPECT_FALSE(parseInRange<double>("1e400", 0.0, 1e9));
    EXPECT_FALSE(parseInRange<uint32_t>("101", 0, 100));
    EXPECT_FALSE(parseInRange<uint32_t>("0", 1, 100));
    EXPECT_FALSE(parseInRange<int>("-2", -1, 65535));
    EXPECT_FALSE(parseInRange<double>("1.5", 0.0, 1.0));
    EXPECT_FALSE(parseInRange<double>("-0.5", 0.0, 1.0));
}

TEST(ThreadCap, ClampIsPure)
{
    EXPECT_EQ(clampThreads(1), 1u);
    EXPECT_EQ(clampThreads(kMaxThreads), kMaxThreads);
    EXPECT_EQ(clampThreads(kMaxThreads + 1), kMaxThreads);
    EXPECT_EQ(clampThreads(uint64_t{4294967295}), kMaxThreads);
    EXPECT_EQ(clampThreads(std::numeric_limits<uint64_t>::max()),
              kMaxThreads);
}

TEST(ThreadCap, EnvValueParsesStrictlyAndClamps)
{
    // Only the resolution is exercised; no pool is started.
    EXPECT_EQ(threadsFromEnv(nullptr, 4), 4u);
    EXPECT_EQ(threadsFromEnv("", 4), 4u);
    EXPECT_EQ(threadsFromEnv("8", 4), 8u);
    EXPECT_EQ(threadsFromEnv("abc", 4), 4u);
    EXPECT_EQ(threadsFromEnv("12abc", 4), 4u);
    EXPECT_EQ(threadsFromEnv("0", 4), 4u);
    EXPECT_EQ(threadsFromEnv("-1", 4), 4u);
    EXPECT_EQ(threadsFromEnv("99999999999999999999", 4), 4u);
    EXPECT_EQ(threadsFromEnv("1024", 4), kMaxThreads);
    EXPECT_EQ(threadsFromEnv("1025", 4), kMaxThreads);
    EXPECT_EQ(threadsFromEnv("4294967295", 4), kMaxThreads);
}

} // namespace
} // namespace cegma
