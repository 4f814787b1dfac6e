#include "workload.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "sim/logging.hh"

namespace ecssd
{
namespace xclass
{

namespace
{

BenchmarkSpec
makeSpec(const std::string &name, std::uint64_t categories,
         std::uint32_t hidden_dim)
{
    BenchmarkSpec spec;
    spec.name = name;
    spec.categories = categories;
    spec.hiddenDim = hidden_dim;
    return spec;
}

/** Splitmix-style 64-bit mix for Feistel round functions. */
std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Deterministic per-key uniform double in [0,1) (splitmix-style). */
double
hashUniform(std::uint64_t key, std::uint64_t salt)
{
    std::uint64_t z = key + salt + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
}

/** Candidate rows per batch: L * candidateRatio, at least one. */
std::uint64_t
candidateBudget(const BenchmarkSpec &spec)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(spec.categories)
               * spec.candidateRatio));
}

/** An all-clear bitmap with one bit per category. */
std::vector<std::uint64_t>
categoryBitmap(std::uint64_t categories)
{
    return std::vector<std::uint64_t>((categories + 63) / 64, 0);
}

void
setBit(std::vector<std::uint64_t> &bits, std::uint64_t index)
{
    bits[index >> 6] |= 1ULL << (index & 63);
}

bool
testBit(const std::vector<std::uint64_t> &bits, std::uint64_t index)
{
    return (bits[index >> 6] >> (index & 63)) & 1;
}

} // namespace

std::vector<BenchmarkSpec>
table3Benchmarks()
{
    // Shapes from Table 3 plus the hidden sizes given in Section 6.1.
    std::vector<BenchmarkSpec> specs;
    specs.push_back(makeSpec("GNMT-E32K", 32317, 1024));
    specs.push_back(makeSpec("LSTM-W33K", 33278, 1500));
    specs.push_back(makeSpec("Transformer-W268K", 267744, 512));
    specs.push_back(makeSpec("XMLCNN-A670K", 670091, 512));
    specs.push_back(makeSpec("XMLCNN-S10M", 10000000, 1024));
    specs.push_back(makeSpec("XMLCNN-S50M", 50000000, 1024));
    specs.push_back(makeSpec("XMLCNN-S100M", 100000000, 1024));
    return specs;
}

BenchmarkSpec
benchmarkByName(const std::string &name)
{
    for (const BenchmarkSpec &spec : table3Benchmarks())
        if (spec.name == name)
            return spec;
    sim::fatal("unknown benchmark '", name, "'");
}

std::vector<BenchmarkSpec>
largeScaleBenchmarks()
{
    return {benchmarkByName("XMLCNN-S10M"),
            benchmarkByName("XMLCNN-S50M"),
            benchmarkByName("XMLCNN-S100M")};
}

BenchmarkSpec
scaledDown(const BenchmarkSpec &spec, std::uint64_t max_categories)
{
    BenchmarkSpec scaled = spec;
    if (scaled.categories > max_categories) {
        scaled.categories = max_categories;
        scaled.name += "-scaled";
    }
    return scaled;
}

SyntheticModel::SyntheticModel(const BenchmarkSpec &spec,
                               std::uint64_t seed)
    : spec_(spec), weights_(spec.categories, spec.hiddenDim),
      basis_(spec.shrunkDim(), spec.hiddenDim),
      popularityRank_(spec.categories)
{
    ECSSD_ASSERT(spec.categories * spec.hiddenDim
                     <= (1ULL << 28),
                 "SyntheticModel shape too large for functional tier; "
                 "use CandidateTrace");
    sim::Rng rng(seed);

    // Random popularity order over categories.
    rankToCategory_ =
        rng.permutation(static_cast<std::uint32_t>(spec.categories));
    for (std::uint32_t rank = 0;
         rank < static_cast<std::uint32_t>(spec.categories); ++rank)
        popularityRank_[rankToCategory_[rank]] = rank;

    // Orthonormal K x D basis (Gram-Schmidt on Gaussian rows).
    const std::size_t k = basis_.rows();
    const std::size_t d = basis_.cols();
    for (std::size_t i = 0; i < k; ++i) {
        std::span<float> row = basis_.row(i);
        for (float &v : row)
            v = static_cast<float>(rng.gaussian());
        for (std::size_t j = 0; j < i; ++j) {
            const std::span<const float> prev = basis_.row(j);
            double dot = 0.0;
            for (std::size_t c = 0; c < d; ++c)
                dot += static_cast<double>(row[c]) * prev[c];
            for (std::size_t c = 0; c < d; ++c)
                row[c] -= static_cast<float>(dot * prev[c]);
        }
        double norm = 0.0;
        for (const float v : row)
            norm += static_cast<double>(v) * v;
        norm = std::sqrt(std::max(norm, 1e-30));
        for (float &v : row)
            v = static_cast<float>(v / norm);
    }

    // Weights live near the K-dimensional manifold spanned by the
    // basis (as trained classifier layers do), with a small
    // off-manifold residual.  Row norms decay with popularity rank:
    // frequent categories have larger weight vectors, which is the
    // signal the hot-degree predictor exploits.
    std::vector<double> latent(k);
    for (std::size_t r = 0; r < spec.categories; ++r) {
        const double rank = popularityRank_[r];
        const double norm_scale =
            1.0 / std::pow(1.0 + rank, 0.15);
        for (double &u : latent)
            u = rng.gaussian(0.0, 0.05 * norm_scale)
                * std::sqrt(static_cast<double>(d));
        std::span<float> row = weights_.row(r);
        for (std::size_t c = 0; c < d; ++c) {
            double acc = 0.0;
            for (std::size_t i = 0; i < k; ++i)
                acc += latent[i] * basis_.at(i, c);
            // 10% off-manifold residual energy.
            acc += rng.gaussian(0.0, 0.015 * norm_scale);
            row[c] = static_cast<float>(acc);
        }
    }
}

std::vector<float>
SyntheticModel::sampleQuery(sim::Rng &rng) const
{
    // Pick a target category by popularity, then emit a noisy copy of
    // its weight row so true top-k structure exists.
    const std::uint64_t rank =
        rng.zipf(spec_.categories, spec_.popularitySkew);
    const std::uint64_t target = rankToCategory_[rank];
    const std::span<const float> row = weights_.row(target);
    std::vector<float> query(row.begin(), row.end());
    for (float &q : query)
        q = static_cast<float>(q + rng.gaussian(0.0, 0.3 * std::fabs(q)
                                                    + 0.01));
    return query;
}

CandidateTrace::CandidateTrace(const BenchmarkSpec &spec,
                               std::uint64_t seed,
                               double predictor_noise)
    : spec_(spec), rng_(seed), predictorNoise_(predictor_noise)
{
    if (spec.categories < 2)
        sim::fatal("candidate trace needs at least 2 categories, got ",
                   spec.categories);
    // Keyed Feistel bijection over the next power of two, with
    // cycle-walking back into [0, L).  Unlike an affine map, the
    // image of a rank interval is statistically random, so the hot
    // set scatters over the id space the way real category ids do.
    halfBits_ = 1;
    while ((1ULL << (2 * halfBits_)) < spec.categories)
        ++halfBits_;
    for (auto &key : feistelKeys_)
        key = rng_.next();
    noiseSalt_ = rng_.next();
    const std::uint64_t want = candidateBudget(spec);
    hotSize_ = static_cast<std::uint64_t>(static_cast<double>(want)
                                          * spec.hotSetFraction);

    // Build the sticky tail: the mid-popularity categories that keep
    // clearing the screening threshold batch after batch (and that
    // the training set therefore reveals to the predictor).
    const std::uint64_t tail_count = want - std::min(hotSize_, want);
    stickyBits_ = categoryBitmap(spec.categories);
    stickyTail_.reserve(tail_count);
    while (stickyTail_.size() < tail_count) {
        const std::uint64_t category = nextTailCategory();
        if (!testBit(stickyBits_, category)) {
            setBit(stickyBits_, category);
            stickyTail_.push_back(category);
        }
    }
    std::sort(stickyTail_.begin(), stickyTail_.end());
}

std::uint64_t
CandidateTrace::nextTailCategory()
{
    const std::uint64_t tail_ranks = spec_.categories - hotSize_;
    return categoryAtRank(hotSize_
                          + rng_.zipf(tail_ranks, spec_.popularitySkew));
}

std::uint64_t
CandidateTrace::hashRound(std::uint64_t half, std::uint64_t key)
{
    return mix64(half ^ key);
}

std::uint64_t
CandidateTrace::feistelForward(std::uint64_t value) const
{
    const std::uint64_t half_mask = (1ULL << halfBits_) - 1;
    std::uint64_t left = value >> halfBits_;
    std::uint64_t right = value & half_mask;
    for (const std::uint64_t key : feistelKeys_) {
        const std::uint64_t f =
            hashRound(right, key) & half_mask;
        const std::uint64_t new_left = right;
        right = left ^ f;
        left = new_left;
    }
    return (left << halfBits_) | right;
}

std::uint64_t
CandidateTrace::feistelBackward(std::uint64_t value) const
{
    const std::uint64_t half_mask = (1ULL << halfBits_) - 1;
    std::uint64_t left = value >> halfBits_;
    std::uint64_t right = value & half_mask;
    for (auto it = feistelKeys_.rbegin(); it != feistelKeys_.rend();
         ++it) {
        const std::uint64_t f = hashRound(left, *it) & half_mask;
        const std::uint64_t new_right = left;
        left = right ^ f;
        right = new_right;
    }
    return (left << halfBits_) | right;
}

std::uint64_t
CandidateTrace::categoryAtRank(std::uint64_t rank) const
{
    ECSSD_ASSERT(rank < spec_.categories, "rank out of range");
    // Cycle-walk: apply the bijection over the power-of-two domain
    // until the image falls back inside [0, L).
    std::uint64_t value = feistelForward(rank);
    while (value >= spec_.categories)
        value = feistelForward(value);
    return value;
}

std::uint64_t
CandidateTrace::rankOf(std::uint64_t category) const
{
    ECSSD_ASSERT(category < spec_.categories, "category out of range");
    std::uint64_t value = feistelBackward(category);
    while (value >= spec_.categories)
        value = feistelBackward(value);
    return value;
}

double
CandidateTrace::hotness(std::uint64_t category) const
{
    // Fine-tuned hot degree: the hot head is candidate in ~every
    // batch (mass ~4), the sticky tail in most batches (mass ~1),
    // and everything else decays with popularity rank.
    // Multiplicative noise stands in for predictor error.
    const std::uint64_t rank = rankOf(category);
    double mass;
    if (rank < hotSize_) {
        mass = 4.0;
    } else if (testBit(stickyBits_, category)) {
        mass = 1.0 - spec_.candidateChurn;
    } else {
        mass = std::pow(static_cast<double>(rank) + 1.0,
                        -spec_.popularitySkew);
    }
    if (predictorNoise_ <= 0.0)
        return mass;
    const double u = hashUniform(category, noiseSalt_);
    // Map u to a symmetric multiplicative factor exp(noise * z) with
    // z in [-1.73, 1.73] (uniform-approx of a unit-variance draw).
    const double z = (u - 0.5) * 3.464;
    return mass * std::exp(predictorNoise_ * z);
}

void
CandidateTrace::buildHotHead(std::uint64_t hot)
{
    // Mark the hot categories in a bitmap and read them back in id
    // order: a linear scan in place of a sort.
    std::vector<std::uint64_t> bits = categoryBitmap(spec_.categories);
    for (std::uint64_t rank = 0; rank < hot; ++rank)
        setBit(bits, categoryAtRank(rank));
    hotHead_.clear();
    hotHead_.reserve(hot);
    for (std::uint64_t word = 0; word < bits.size(); ++word)
        for (std::uint64_t w = bits[word]; w != 0; w &= w - 1)
            hotHead_.push_back(word * 64 + std::countr_zero(w));
}

std::vector<std::uint64_t>
CandidateTrace::drawCandidates()
{
    const std::uint64_t want = candidateBudget(spec_);

    // The deterministic hot head: these categories clear the
    // screening threshold for essentially every query batch.  Tail
    // draws come from ranks past it and never collide with it, so it
    // is built once and merged into every batch.
    const std::uint64_t hot = std::min(hotSize_, want);
    if (hotHead_.size() != hot)
        buildHotHead(hot);

    // The sticky tail, minus this batch's churn: a random
    // candidateChurn fraction of the sticky members is replaced by
    // fresh popularity-biased draws.
    const std::uint64_t churn = static_cast<std::uint64_t>(
        static_cast<double>(stickyTail_.size())
        * spec_.candidateChurn);
    std::vector<char> dropped(stickyTail_.size(), 0);
    for (std::uint64_t count = 0; count < churn;) {
        char &slot = dropped[rng_.uniformInt(stickyTail_.size())];
        count += !slot;
        slot = 1;
    }
    std::vector<std::uint64_t> tail;
    tail.reserve(want - hot);
    for (std::size_t i = 0; i < stickyTail_.size(); ++i)
        if (!dropped[i])
            tail.push_back(stickyTail_[i]);
    const auto kept_sticky = [&](std::uint64_t category) {
        if (!testBit(stickyBits_, category))
            return false;
        const auto it = std::lower_bound(
            stickyTail_.begin(), stickyTail_.end(), category);
        return !dropped[it - stickyTail_.begin()];
    };

    // Fresh draws refill the tail; a dropped sticky member may come
    // back.
    const std::size_t kept = tail.size();
    std::unordered_set<std::uint64_t> fresh;
    fresh.reserve(2 * (want - hot - kept));
    while (hot + tail.size() < want) {
        const std::uint64_t category = nextTailCategory();
        if (!kept_sticky(category) && fresh.insert(category).second)
            tail.push_back(category);
    }
    std::sort(tail.begin() + kept, tail.end());
    std::inplace_merge(tail.begin(), tail.begin() + kept, tail.end());

    std::vector<std::uint64_t> candidates(hotHead_.size()
                                          + tail.size());
    std::merge(hotHead_.begin(), hotHead_.end(), tail.begin(),
               tail.end(), candidates.begin());
    return candidates;
}

} // namespace xclass
} // namespace ecssd
