/**
 * @file
 * CFP32 pre-alignment tests: round trips, loss accounting, and the
 * paper's ">95% lossless" claim on model-like data.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "numeric/cfp.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace ecssd::numeric;

TEST(Cfp32, EmptyVector)
{
    const Cfp32Vector v = Cfp32Vector::preAlign({});
    EXPECT_EQ(v.size(), 0u);
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.lossyElements(), 0u);
}

TEST(Cfp32, SingleValueIsExact)
{
    const std::vector<float> values{3.14159f};
    const Cfp32Vector v = Cfp32Vector::preAlign(values);
    EXPECT_EQ(v.lossyElements(), 0u);
    EXPECT_FLOAT_EQ(v.toFloat(0), 3.14159f);
}

TEST(Cfp32, SharedExponentIsMaximum)
{
    const std::vector<float> values{1.0f, 8.0f, 0.25f};
    const Cfp32Vector v = Cfp32Vector::preAlign(values);
    EXPECT_EQ(v.sharedExponent(), decompose(8.0f).exponent);
}

TEST(Cfp32, SmallExponentGapsAreLossless)
{
    // Gaps up to 7 fit entirely in the compensation bits.
    std::vector<float> values;
    for (int e = 0; e <= 7; ++e)
        values.push_back(std::ldexp(1.9999999f, -e));
    const Cfp32Vector v = Cfp32Vector::preAlign(values);
    EXPECT_EQ(v.lossyElements(), 0u);
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_FLOAT_EQ(v.toFloat(i), values[i]) << "element " << i;
}

TEST(Cfp32, LargeGapDropsLowBits)
{
    // 1.0 + 2^-20ish against a 2^10 max: gap 10 > 7 compensation.
    const std::vector<float> values{1024.0f, 1.0000001f};
    const Cfp32Vector v = Cfp32Vector::preAlign(values);
    EXPECT_EQ(v.lossyElements(), 1u);
    // The big value stays exact.
    EXPECT_FLOAT_EQ(v.toFloat(0), 1024.0f);
    // The small one is close but truncated toward zero.
    EXPECT_NEAR(v.toFloat(1), 1.0f, 1e-3);
    EXPECT_LE(v.toFloat(1), 1.0000001f);
}

TEST(Cfp32, PowerOfTwoSurvivesLargeGaps)
{
    // A power of two has no low mantissa bits to lose until the gap
    // pushes its single set bit out of the 31-bit field (gap > 30).
    const std::vector<float> values{std::ldexp(1.0f, 20),
                                    std::ldexp(1.0f, 0)};
    const Cfp32Vector v = Cfp32Vector::preAlign(values);
    EXPECT_EQ(v.lossyElements(), 0u);
    EXPECT_FLOAT_EQ(v.toFloat(1), 1.0f);
}

TEST(Cfp32, HugeGapUnderflowsToZero)
{
    const std::vector<float> values{1.0e30f, 1.0e-30f};
    const Cfp32Vector v = Cfp32Vector::preAlign(values);
    EXPECT_EQ(v.lossyElements(), 1u);
    EXPECT_EQ(v.toFloat(1), 0.0f);
}

TEST(Cfp32, SignsArePreserved)
{
    const std::vector<float> values{-2.0f, 3.0f, -0.5f};
    const Cfp32Vector v = Cfp32Vector::preAlign(values);
    EXPECT_LT(v.toFloat(0), 0.0f);
    EXPECT_GT(v.toFloat(1), 0.0f);
    EXPECT_LT(v.toFloat(2), 0.0f);
}

TEST(Cfp32, ZerosStayZero)
{
    const std::vector<float> values{0.0f, 5.0f, -0.0f};
    const Cfp32Vector v = Cfp32Vector::preAlign(values);
    EXPECT_EQ(v.toFloat(0), 0.0f);
    EXPECT_EQ(v.toFloat(2), 0.0f);
    EXPECT_EQ(v.lossyElements(), 0u);
}

TEST(Cfp32, AllZeroVector)
{
    const std::vector<float> values(16, 0.0f);
    const Cfp32Vector v = Cfp32Vector::preAlign(values);
    EXPECT_EQ(v.sharedExponent(), 0u);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(v.toFloat(i), 0.0f);
}

TEST(Cfp32, RejectsNanAndInf)
{
    const std::vector<float> with_nan{
        1.0f, std::numeric_limits<float>::quiet_NaN()};
    EXPECT_THROW(Cfp32Vector::preAlign(with_nan),
                 ecssd::sim::FatalError);
    const std::vector<float> with_inf{
        std::numeric_limits<float>::infinity()};
    EXPECT_THROW(Cfp32Vector::preAlign(with_inf),
                 ecssd::sim::FatalError);
}

TEST(Cfp32, RoundTripErrorIsBoundedByGap)
{
    // Truncation drops at most gap-7 mantissa bits: the relative
    // error of element i is < 2^(gap - 7 - 23).
    ecssd::sim::Rng rng(3);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<float> values;
        for (int i = 0; i < 64; ++i)
            values.push_back(static_cast<float>(
                rng.gaussian(0.0, std::pow(10.0, rng.uniform(-3, 3)))));
        const Cfp32Vector v = Cfp32Vector::preAlign(values);
        for (std::size_t i = 0; i < values.size(); ++i) {
            const float original = values[i];
            if (original == 0.0f)
                continue;
            const std::uint32_t gap = v.sharedExponent()
                - decompose(original).exponent;
            const double bound = gap <= 7
                ? 0.0
                : std::ldexp(1.0,
                             static_cast<int>(gap) - 7 - 23);
            const double rel_err =
                std::fabs((v.toFloat(i) - original) / original);
            EXPECT_LE(rel_err, bound + 1e-12)
                << "gap " << gap << " value " << original;
        }
    }
}

TEST(Cfp32, ModelLikeDataIsMostlyLossless)
{
    // Section 4.2: with 7 compensation bits, >95% of model values
    // survive pre-alignment exactly.  Gaussian weight tensors have
    // exactly this value locality.
    ecssd::sim::Rng rng(4);
    std::vector<Cfp32Vector> vectors;
    for (int v = 0; v < 100; ++v) {
        std::vector<float> values;
        for (int i = 0; i < 256; ++i)
            values.push_back(
                static_cast<float>(rng.gaussian(0.0, 0.05)));
        vectors.push_back(Cfp32Vector::preAlign(values));
    }
    EXPECT_GT(losslessFraction(vectors), 0.95);
}

TEST(Cfp32, StorageFootprintMatchesFp32PlusSharedExponent)
{
    const std::vector<float> values(128, 1.0f);
    const Cfp32Vector v = Cfp32Vector::preAlign(values);
    EXPECT_EQ(v.storageBytes(), 128u * 4u + 1u);
}

TEST(Cfp32, ToFloatsMatchesElementwiseDecode)
{
    const std::vector<float> values{1.0f, 2.5f, -3.75f, 0.125f};
    const Cfp32Vector v = Cfp32Vector::preAlign(values);
    const std::vector<float> decoded = v.toFloats();
    ASSERT_EQ(decoded.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(decoded[i], v.toFloat(i));
}
