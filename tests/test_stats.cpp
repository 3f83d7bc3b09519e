#include <gtest/gtest.h>

#include "sim/stats.hpp"

using namespace morpheus;

TEST(Accumulator, EmptyIsZero)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.min(), 0.0);
    EXPECT_EQ(acc.max(), 0.0);
}

TEST(Accumulator, TracksMoments)
{
    Accumulator acc;
    for (double v : {3.0, 1.0, 2.0})
        acc.add(v);
    EXPECT_EQ(acc.count(), 3u);
    EXPECT_DOUBLE_EQ(acc.sum(), 6.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
    EXPECT_DOUBLE_EQ(acc.min(), 1.0);
    EXPECT_DOUBLE_EQ(acc.max(), 3.0);
}

TEST(Accumulator, ResetClears)
{
    Accumulator acc;
    acc.add(5);
    acc.reset();
    EXPECT_EQ(acc.count(), 0u);
    acc.add(7);
    EXPECT_DOUBLE_EQ(acc.min(), 7.0);
}

TEST(Format, SiSuffixes)
{
    EXPECT_EQ(format_si(1500.0), "1.50K");
    EXPECT_EQ(format_si(2.5e6), "2.50M");
    EXPECT_EQ(format_si(3.0e9), "3.00G");
    EXPECT_EQ(format_si(12.0), "12.00");
}

TEST(Format, ByteSuffixes)
{
    EXPECT_EQ(format_bytes(512), "512B");
    EXPECT_EQ(format_bytes(2048), "2.00KiB");
    EXPECT_EQ(format_bytes(5.0 * 1024 * 1024), "5.00MiB");
}
