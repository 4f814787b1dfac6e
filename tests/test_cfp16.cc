/**
 * @file
 * CFP16 extension tests: round-trip precision, dot accuracy,
 * classifier ranking fidelity, the halved fetch traffic in the
 * pipeline, and the smaller MAC.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "circuit/mac_circuit.hh"
#include "ecssd/system.hh"
#include "numeric/cfp.hh"
#include "numeric/mac.hh"
#include "sim/rng.hh"
#include "xclass/metrics.hh"
#include "xclass/screening.hh"

using namespace ecssd;
using namespace ecssd::numeric;

TEST(Cfp16, SingleValueWithinHalfPrecision)
{
    const std::vector<float> values{3.14159f};
    const Cfp16Vector v = Cfp16Vector::preAlign(values);
    EXPECT_NEAR(v.toFloat(0), 3.14159f, 3.14159f * 1e-3f);
}

TEST(Cfp16, RoundTripErrorBoundedByMantissaWidth)
{
    // FP16-class: relative error <= 2^-11 for values within the
    // compensation window.
    sim::Rng rng(1);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<float> values(32);
        for (float &v : values)
            v = static_cast<float>(rng.gaussian(0.0, 0.05));
        const Cfp16Vector v = Cfp16Vector::preAlign(values);
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (values[i] == 0.0f)
                continue;
            const std::uint32_t gap = v.sharedExponent()
                - decompose(values[i]).exponent;
            if (gap > 4)
                continue; // beyond the compensation window
            EXPECT_NEAR(v.toFloat(i), values[i],
                        std::fabs(values[i]) * 0x1.0p-11f
                            + 1e-12f);
        }
    }
}

TEST(Cfp16, ZerosAndSigns)
{
    const std::vector<float> values{0.0f, -2.0f, 2.0f, -0.0f};
    const Cfp16Vector v = Cfp16Vector::preAlign(values);
    EXPECT_EQ(v.toFloat(0), 0.0f);
    EXPECT_LT(v.toFloat(1), 0.0f);
    EXPECT_GT(v.toFloat(2), 0.0f);
}

TEST(Cfp16, RoundingCarryRenormalizes)
{
    // A significand that rounds up to 2.0 must not overflow the
    // field (the bug class the two-pass pre-alignment prevents).
    const float nearly_two = bitsToFloat(
        floatToBits(2.0f) - 1); // largest value below 2.0
    const std::vector<float> values{nearly_two, 1.0f};
    const Cfp16Vector v = Cfp16Vector::preAlign(values);
    EXPECT_NEAR(v.toFloat(0), 2.0f, 2.0f * 0x1.0p-11f);
    EXPECT_NEAR(v.toFloat(1), 1.0f, 1.0f * 0x1.0p-10f);
}

TEST(Cfp16, DotTracksReference)
{
    sim::Rng rng(2);
    std::vector<float> a(1024), b(1024);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<float>(rng.gaussian(0.0, 0.05));
        b[i] = static_cast<float>(rng.gaussian(0.0, 0.05));
    }
    const double reference = referenceDot(a, b);
    const Cfp16DotResult r = alignmentFreeDot16(
        Cfp16Vector::preAlign(a), Cfp16Vector::preAlign(b));
    EXPECT_EQ(r.multiplies, 1024u);
    // FP16-class dot: a few tenths of a percent on unit-scale sums.
    EXPECT_NEAR(r.value, reference,
                5e-3 * std::max(1.0, std::fabs(reference)) + 5e-3);
}

TEST(Cfp16, StorageIsHalfOfCfp32)
{
    std::vector<float> values(256, 1.0f);
    const Cfp16Vector half = Cfp16Vector::preAlign(values);
    const Cfp32Vector full = Cfp32Vector::preAlign(values);
    EXPECT_EQ(half.storageBytes(), 256u * 2u + 1u);
    EXPECT_LT(half.storageBytes(), full.storageBytes());
}

TEST(Cfp16, ClassifierRankingSurvivesHalfPrecision)
{
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 1024);
    spec.hiddenDim = 256;
    const xclass::SyntheticModel model(spec, 3);
    const xclass::ApproximateClassifier classifier(
        model.weights(), spec, 4, &model.basis());
    sim::Rng rng(5);
    double agreement = 0.0;
    const int queries = 8;
    for (int q = 0; q < queries; ++q) {
        const std::vector<float> query = model.sampleQuery(rng);
        const auto full = classifier.predict(
            query, 5, xclass::FilterMode::TopRatio,
            xclass::CandidateClassifier::Datapath::
                Cfp32AlignmentFree);
        const auto half = classifier.predict(
            query, 5, xclass::FilterMode::TopRatio,
            xclass::CandidateClassifier::Datapath::
                Cfp16AlignmentFree);
        agreement += xclass::recall(full.topCategories,
                                    half.topCategories);
    }
    EXPECT_GE(agreement / queries, 0.85);
}

TEST(Cfp16, PipelineFetchesHalfThePages)
{
    const xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("XMLCNN-S10M"), 16384);
    EcssdOptions full32 = EcssdOptions::full();
    EcssdOptions half16 = EcssdOptions::full();
    half16.weightPrecision = accel::WeightPrecision::Cfp16;

    EcssdSystem a(spec, full32);
    EcssdSystem b(spec, half16);
    const accel::RunResult r32 = a.runInference(1);
    const accel::RunResult r16 = b.runInference(1);
    // D = 1024: CFP32 rows fill a page; CFP16 rows share pages two
    // to one, and candidates are sparse, so page count roughly
    // halves only for adjacent candidates -- but bytes per fetched
    // row halve exactly when rows pack.
    EXPECT_LT(r16.batches[0].fp32PagesRead,
              r32.batches[0].fp32PagesRead);
    EXPECT_LT(r16.totalTime, r32.totalTime);
}

TEST(Cfp16, MacIsMuchSmallerThanCfp32Mac)
{
    const double half = circuit::cfp16Mac().areaUm2();
    const double full =
        circuit::alignmentFreeFp32Mac().areaUm2();
    EXPECT_LT(half * 2.5, full);
}
