/**
 * @file
 * Workload generation tests: Table 3 shapes, synthetic model
 * structure, and the trace-tier candidate generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "sim/logging.hh"
#include "xclass/workload.hh"

using namespace ecssd::xclass;

TEST(BenchmarkSpec, Table3HasSevenEntries)
{
    const std::vector<BenchmarkSpec> specs = table3Benchmarks();
    ASSERT_EQ(specs.size(), 7u);
    EXPECT_EQ(specs[0].name, "GNMT-E32K");
    EXPECT_EQ(specs[0].categories, 32317u);
    EXPECT_EQ(specs[1].hiddenDim, 1500u);
    EXPECT_EQ(specs[6].categories, 100000000u);
}

TEST(BenchmarkSpec, ShrunkDimIsQuarter)
{
    const BenchmarkSpec spec = benchmarkByName("XMLCNN-S100M");
    EXPECT_EQ(spec.shrunkDim(), 256u);
}

TEST(BenchmarkSpec, S100MFootprintsMatchSection61)
{
    // Section 6.1: XMLCNN-S100M has 12.8 GB / 400 GB weight
    // matrices.
    const BenchmarkSpec spec = benchmarkByName("XMLCNN-S100M");
    EXPECT_EQ(spec.int4WeightBytes(), 12800000000ULL);
    EXPECT_EQ(spec.fp32WeightBytes(), 409600000000ULL);
}

TEST(BenchmarkSpec, UnknownNameIsFatal)
{
    EXPECT_THROW(benchmarkByName("bogus"), ecssd::sim::FatalError);
}

TEST(BenchmarkSpec, LargeScaleSetIsTheSynthTrio)
{
    const std::vector<BenchmarkSpec> large =
        largeScaleBenchmarks();
    ASSERT_EQ(large.size(), 3u);
    EXPECT_EQ(large[0].categories, 10000000u);
    EXPECT_EQ(large[2].categories, 100000000u);
}

TEST(BenchmarkSpec, ScaledDownPreservesRatios)
{
    const BenchmarkSpec spec = benchmarkByName("XMLCNN-S10M");
    const BenchmarkSpec scaled = scaledDown(spec, 4096);
    EXPECT_EQ(scaled.categories, 4096u);
    EXPECT_EQ(scaled.hiddenDim, spec.hiddenDim);
    EXPECT_EQ(scaled.projectionScale, spec.projectionScale);
    EXPECT_NE(scaled.name, spec.name);
    // No-op when already small enough.
    const BenchmarkSpec same = scaledDown(scaled, 1 << 20);
    EXPECT_EQ(same.categories, 4096u);
}

TEST(SyntheticModel, ShapesMatchSpec)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("GNMT-E32K"), 512);
    const SyntheticModel model(spec, 1);
    EXPECT_EQ(model.weights().rows(), 512u);
    EXPECT_EQ(model.weights().cols(), 1024u);
    EXPECT_EQ(model.popularityRank().size(), 512u);
}

TEST(SyntheticModel, PopularityRanksAreAPermutation)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("GNMT-E32K"), 256);
    const SyntheticModel model(spec, 2);
    std::set<std::uint32_t> ranks(model.popularityRank().begin(),
                                  model.popularityRank().end());
    EXPECT_EQ(ranks.size(), 256u);
    EXPECT_EQ(*ranks.begin(), 0u);
    EXPECT_EQ(*ranks.rbegin(), 255u);
}

TEST(SyntheticModel, PopularRowsHaveLargerNorms)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("GNMT-E32K"), 1024);
    spec.hiddenDim = 128;
    const SyntheticModel model(spec, 3);
    double head_norm = 0.0, tail_norm = 0.0;
    int head = 0, tail = 0;
    for (std::size_t r = 0; r < 1024; ++r) {
        double norm = 0.0;
        for (const float w : model.weights().row(r))
            norm += static_cast<double>(w) * w;
        if (model.popularityRank()[r] < 64) {
            head_norm += norm;
            ++head;
        } else if (model.popularityRank()[r] >= 960) {
            tail_norm += norm;
            ++tail;
        }
    }
    EXPECT_GT(head_norm / head, tail_norm / tail);
}

TEST(SyntheticModel, QueriesHaveCorrectDimension)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("GNMT-E32K"), 128);
    spec.hiddenDim = 64;
    const SyntheticModel model(spec, 4);
    ecssd::sim::Rng rng(5);
    const std::vector<float> query = model.sampleQuery(rng);
    EXPECT_EQ(query.size(), 64u);
}

TEST(CandidateTrace, PermutationRoundTrips)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 100003); // prime-ish
    const CandidateTrace trace(spec, 6);
    for (std::uint64_t rank : {0ULL, 1ULL, 57ULL, 100002ULL}) {
        const std::uint64_t category = trace.categoryAtRank(rank);
        EXPECT_LT(category, spec.categories);
        EXPECT_EQ(trace.rankOf(category), rank);
    }
}

TEST(CandidateTrace, DrawsApproximatelyTheCandidateRatio)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 20000);
    CandidateTrace trace(spec, 7);
    const std::vector<std::uint64_t> candidates =
        trace.drawCandidates();
    const double want = spec.candidateRatio
        * static_cast<double>(spec.categories);
    EXPECT_NEAR(static_cast<double>(candidates.size()), want,
                want * 0.05);
}


TEST(CandidateTrace, PopularCategoriesAppearMoreOften)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 10000);
    CandidateTrace trace(spec, 9);
    const std::uint64_t head = trace.categoryAtRank(0);
    const std::uint64_t deep_tail = trace.categoryAtRank(9999);
    int head_hits = 0, tail_hits = 0;
    for (int batch = 0; batch < 20; ++batch) {
        const std::vector<std::uint64_t> candidates =
            trace.drawCandidates();
        head_hits += std::binary_search(candidates.begin(),
                                        candidates.end(), head);
        tail_hits += std::binary_search(candidates.begin(),
                                        candidates.end(),
                                        deep_tail);
    }
    EXPECT_GT(head_hits, tail_hits);
    EXPECT_GE(head_hits, 18); // the head is a near-certain candidate
}

TEST(CandidateTrace, OracleHotnessFollowsRank)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 10000);
    const CandidateTrace trace(spec, 10, /*predictor_noise=*/0.0);
    // Ranks inside the hot set share the top mass; beyond it the
    // mass decays with rank.
    const double head = trace.hotness(trace.categoryAtRank(0));
    const double mid = trace.hotness(
        trace.categoryAtRank(trace.hotSetSize() + 100));
    const double tail = trace.hotness(trace.categoryAtRank(9999));
    EXPECT_GT(head, mid);
    EXPECT_GT(mid, tail);
}

TEST(CandidateTrace, NoisyHotnessStaysCorrelated)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 10000);
    const CandidateTrace trace(spec, 11, /*predictor_noise=*/0.25);
    double head_sum = 0.0, tail_sum = 0.0;
    for (std::uint64_t i = 0; i < 100; ++i) {
        head_sum += trace.hotness(trace.categoryAtRank(i));
        tail_sum += trace.hotness(trace.categoryAtRank(9899 + i));
    }
    EXPECT_GT(head_sum, tail_sum * 5);
}

TEST(CandidateTrace, HotnessIsDeterministicPerCategory)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 1000);
    const CandidateTrace trace(spec, 12);
    for (std::uint64_t c = 0; c < 50; ++c)
        EXPECT_DOUBLE_EQ(trace.hotness(c), trace.hotness(c));
}

/** Feistel bijection property over assorted category counts,
 *  including odd and power-of-two-adjacent sizes (cycle-walking). */
class FeistelSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FeistelSweep, RankCategoryBijection)
{
    BenchmarkSpec spec = benchmarkByName("XMLCNN-S10M");
    spec.categories = GetParam();
    const CandidateTrace trace(spec, 3);
    std::set<std::uint64_t> seen;
    const std::uint64_t probe =
        std::min<std::uint64_t>(spec.categories, 4096);
    for (std::uint64_t rank = 0; rank < probe; ++rank) {
        const std::uint64_t category = trace.categoryAtRank(rank);
        ASSERT_LT(category, spec.categories);
        ASSERT_TRUE(seen.insert(category).second)
            << "collision at rank " << rank;
        ASSERT_EQ(trace.rankOf(category), rank);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FeistelSweep,
                         ::testing::Values(2u, 3u, 255u, 256u, 257u,
                                           1023u, 4096u, 65537u,
                                           1000003u));

TEST(CandidateTrace, HotSetScattersAcrossChannelsAndResidues)
{
    // The hot set must not be an arithmetic progression: its
    // residues modulo the channel count should be multinomially
    // spread, not equal.
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 65536);
    const CandidateTrace trace(spec, 4);
    std::vector<int> residues(8, 0);
    const std::uint64_t hot = trace.hotSetSize();
    for (std::uint64_t rank = 0; rank < hot; ++rank)
        ++residues[trace.categoryAtRank(rank) % 8];
    int distinct_counts = 0;
    for (int c = 1; c < 8; ++c)
        distinct_counts += residues[c] != residues[0];
    // A Feistel image virtually never lands perfectly balanced.
    EXPECT_GT(distinct_counts, 0);
    // ...but it is also not degenerate: every residue is populated.
    for (const int count : residues)
        EXPECT_GT(count, 0);
}

TEST(CandidateTrace, StickyTailPersistsAcrossBatches)
{
    BenchmarkSpec spec = scaledDown(
        benchmarkByName("XMLCNN-S10M"), 20000);
    CandidateTrace trace(spec, 5);
    const std::vector<std::uint64_t> &sticky = trace.stickyTail();
    ASSERT_FALSE(sticky.empty());
    // Across batches, at least (1 - churn) of the sticky tail is
    // always present.
    for (int batch = 0; batch < 5; ++batch) {
        const std::vector<std::uint64_t> candidates =
            trace.drawCandidates();
        std::size_t present = 0;
        for (const std::uint64_t category : sticky)
            present += std::binary_search(candidates.begin(),
                                          candidates.end(),
                                          category);
        EXPECT_GE(static_cast<double>(present)
                      / static_cast<double>(sticky.size()),
                  1.0 - spec.candidateChurn - 0.02);
    }
}

namespace
{

/** FNV-1a over the little-endian bytes of 64-bit words. */
class Fnv1a
{
  public:
    void
    add(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xff;
            hash_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** Digest of the first @p batches draws: each batch's size, then its
 *  rows. */
std::uint64_t
drawDigest(CandidateTrace &trace, int batches)
{
    Fnv1a digest;
    for (int batch = 0; batch < batches; ++batch) {
        const std::vector<std::uint64_t> rows = trace.drawCandidates();
        digest.add(rows.size());
        for (const std::uint64_t row : rows)
            digest.add(row);
    }
    return digest.value();
}

/** Digest of the bit patterns of hotness(c) over every category. */
std::uint64_t
hotnessDigest(const CandidateTrace &trace)
{
    Fnv1a digest;
    for (std::uint64_t c = 0; c < trace.spec().categories; ++c) {
        const double hotness = trace.hotness(c);
        std::uint64_t bits;
        std::memcpy(&bits, &hotness, sizeof bits);
        digest.add(bits);
    }
    return digest.value();
}

/** The hot head a batch must contain, sorted. */
std::vector<std::uint64_t>
sortedHotHead(const CandidateTrace &trace, std::uint64_t want)
{
    std::vector<std::uint64_t> head;
    const std::uint64_t hot = std::min(trace.hotSetSize(), want);
    for (std::uint64_t rank = 0; rank < hot; ++rank)
        head.push_back(trace.categoryAtRank(rank));
    std::sort(head.begin(), head.end());
    return head;
}

std::uint64_t
budgetOf(const BenchmarkSpec &spec)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(spec.categories)
               * spec.candidateRatio));
}

/** Every batch: exactly the budget, sorted, unique, in range, and a
 *  superset of the hot head. */
void
expectBatchInvariants(CandidateTrace &trace, int batches)
{
    const BenchmarkSpec &spec = trace.spec();
    const std::uint64_t want = budgetOf(spec);
    const std::vector<std::uint64_t> head = sortedHotHead(trace, want);
    for (int batch = 0; batch < batches; ++batch) {
        SCOPED_TRACE(batch);
        const std::vector<std::uint64_t> rows = trace.drawCandidates();
        ASSERT_EQ(rows.size(), want);
        EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
        EXPECT_EQ(std::adjacent_find(rows.begin(), rows.end()),
                  rows.end());
        EXPECT_LT(rows.back(), spec.categories);
        EXPECT_TRUE(std::includes(rows.begin(), rows.end(),
                                  head.begin(), head.end()));
    }
}

BenchmarkSpec
edgeSpec(std::uint64_t categories, double candidate_ratio)
{
    BenchmarkSpec spec = benchmarkByName("XMLCNN-S10M");
    spec.categories = categories;
    spec.candidateRatio = candidate_ratio;
    return spec;
}

} // namespace

TEST(CandidateTraceGolden, DrawsAndHotnessMatchPinnedDigests)
{
    // Pinned from the hash-set draw and binary-search hotness that
    // the merge-based draw and sticky bitmap replaced: the first six
    // batches and hotness over every category must stay bit
    // identical, RNG stream included.
    struct Golden
    {
        std::uint64_t cap;
        std::uint64_t seed;
        double noise;
        std::uint64_t draws;
        std::uint64_t hotness;
    };
    const Golden goldens[] = {
        {1ULL << 16, 1, 0.0, 0x26dd65d2eccc5c92ULL, 0x7e4c7674fe4f963aULL},
        {1ULL << 16, 1, 0.25, 0x26dd65d2eccc5c92ULL, 0x78a1213475083c07ULL},
        {1ULL << 16, 7, 0.0, 0xbdb16e06bf587405ULL, 0x1a258a15868ae8e6ULL},
        {1ULL << 16, 7, 0.25, 0xbdb16e06bf587405ULL, 0xccfc37949d8b576bULL},
        {1ULL << 20, 1, 0.0, 0x6fc3d9ddd87f8e15ULL, 0x4defb82efe11aa80ULL},
        {1ULL << 20, 1, 0.25, 0x6fc3d9ddd87f8e15ULL, 0x27a73c5239e3ef05ULL},
        {1ULL << 20, 7, 0.0, 0x552b1018bcca75e7ULL, 0xedc1ea641602649aULL},
        {1ULL << 20, 7, 0.25, 0x552b1018bcca75e7ULL, 0x16b81a1294c04e3eULL},
    };
    for (const Golden &golden : goldens) {
        SCOPED_TRACE(testing::Message()
                     << "cap " << golden.cap << " seed " << golden.seed
                     << " noise " << golden.noise);
        const BenchmarkSpec spec =
            scaledDown(benchmarkByName("XMLCNN-S10M"), golden.cap);
        CandidateTrace trace(spec, golden.seed, golden.noise);
        EXPECT_EQ(hotnessDigest(trace), golden.hotness);
        EXPECT_EQ(drawDigest(trace, 6), golden.draws);
        // Drawing must not disturb the hotness oracle.
        EXPECT_EQ(hotnessDigest(trace), golden.hotness);
    }
}

TEST(CandidateTraceGolden, EdgeShapesMatchPinnedDigests)
{
    // Same provenance as above, seed 1, predictor noise 0.25: a
    // one-row budget with no hot head (L = 2, 3), a budget of every
    // row (candidateRatio 1), and half the rows.
    struct Golden
    {
        std::uint64_t categories;
        double ratio;
        std::uint64_t draws;
        std::uint64_t hotness;
    };
    const Golden goldens[] = {
        {2, 0.1, 0x60bcd4d882f881e5ULL, 0x3d42e02f2e90a666ULL},
        {3, 0.1, 0xb7df595f73390365ULL, 0xcc3f99f074ec03a2ULL},
        {1000, 1.0, 0xbbe19dc8f5a00a75ULL, 0x422b0efb93f97456ULL},
        {4099, 1.0, 0x763db6c611557d65ULL, 0x2a50edfd6979fccdULL},
        {1000, 0.5, 0x25e51a67d7e96b09ULL, 0x3f321c5b9b53abeeULL},
    };
    for (const Golden &golden : goldens) {
        SCOPED_TRACE(testing::Message() << "L " << golden.categories
                                        << " ratio " << golden.ratio);
        const BenchmarkSpec spec =
            edgeSpec(golden.categories, golden.ratio);
        CandidateTrace trace(spec, 1, 0.25);
        EXPECT_EQ(drawDigest(trace, 6), golden.draws);
        EXPECT_EQ(hotnessDigest(trace), golden.hotness);
        CandidateTrace replay(spec, 1, 0.25);
        expectBatchInvariants(replay, 6);
    }
}

TEST(CandidateTrace, CandidatesAreSortedAndUnique)
{
    // Every batch is exactly the budget, sorted and unique, and holds
    // the whole hot head.
    for (const std::uint64_t seed : {8ULL, 1ULL, 7ULL}) {
        SCOPED_TRACE(seed);
        CandidateTrace trace(
            scaledDown(benchmarkByName("XMLCNN-S10M"), 10000), seed);
        expectBatchInvariants(trace, 6);
    }
}

TEST(CandidateTrace, SameSeedDrawsTheSameSequence)
{
    const BenchmarkSpec spec =
        scaledDown(benchmarkByName("XMLCNN-S10M"), 1 << 14);
    CandidateTrace a(spec, 3);
    CandidateTrace b(spec, 3);
    for (int batch = 0; batch < 5; ++batch)
        EXPECT_EQ(a.drawCandidates(), b.drawCandidates())
            << "batch " << batch;
}

TEST(CandidateTrace, FewerThanTwoCategoriesIsFatal)
{
    for (const std::uint64_t categories : {0ULL, 1ULL})
        EXPECT_THROW(CandidateTrace(edgeSpec(categories, 0.1), 1),
                     ecssd::sim::FatalError)
            << categories << " categories";
}
