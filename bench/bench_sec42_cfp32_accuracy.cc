/**
 * @file
 * Reproduces the Section 4.2 CFP32 accuracy study: the fraction of
 * model values that survive pre-alignment losslessly (paper: >95%
 * with the 7-bit compensation) and the end-to-end classification
 * agreement between the CFP32 alignment-free datapath and plain FP32
 * (paper: no accuracy drop).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.hh"
#include "numeric/cfp.hh"
#include "sim/rng.hh"
#include "xclass/metrics.hh"
#include "xclass/screening.hh"
#include "xclass/workload.hh"

using namespace ecssd;

namespace
{

void
printCfp32Accuracy()
{
    bench::banner("Section 4.2: CFP32 accuracy");

    // Lossless fraction over synthetic model weight vectors.
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 2048);
    spec.hiddenDim = 256;
    const xclass::SyntheticModel model(spec, 1);
    std::vector<numeric::Cfp32Vector> vectors;
    for (std::size_t r = 0; r < spec.categories; ++r)
        vectors.push_back(
            numeric::Cfp32Vector::preAlign(model.weights().row(r)));
    bench::row("lossless weight values",
               numeric::losslessFraction(vectors) * 100.0, "%",
               ">95%");

    // Classification agreement: CFP32 vs FP32 top-5 on real queries.
    const xclass::ApproximateClassifier classifier(
        model.weights(), spec, 2, &model.basis());
    sim::Rng rng(3);
    double agreement = 0.0;
    double approx_recall = 0.0;
    const int queries = 12;
    for (int q = 0; q < queries; ++q) {
        const std::vector<float> query = model.sampleQuery(rng);
        const auto fp32 = classifier.predict(
            query, 5, xclass::FilterMode::TopRatio,
            xclass::CandidateClassifier::Datapath::Fp32);
        const auto cfp32 = classifier.predict(
            query, 5, xclass::FilterMode::TopRatio,
            xclass::CandidateClassifier::Datapath::
                Cfp32AlignmentFree);
        agreement += xclass::recall(fp32.topCategories,
                                    cfp32.topCategories);
        const auto exact = classifier.exact(query, 5);
        approx_recall += xclass::recall(exact.topCategories,
                                        cfp32.topCategories);
    }
    bench::row("CFP32 vs FP32 top-5 agreement",
               agreement / queries * 100.0, "%", "100% (no drop)");
    bench::row("screened CFP32 recall@5 vs exact",
               approx_recall / queries * 100.0, "%",
               "no accuracy drop");

    // Host pre-alignment cost (paper: 0.005 ms on an RTX 3090 for a
    // 1x1024 vector; here: host CPU time of our implementation).
    std::vector<float> feature(1024);
    sim::Rng frng(4);
    for (float &v : feature)
        v = static_cast<float>(frng.gaussian());
    benchmark::DoNotOptimize(
        numeric::Cfp32Vector::preAlign(feature));
}

void
BM_PreAlign1024(benchmark::State &state)
{
    std::vector<float> feature(1024);
    sim::Rng rng(5);
    for (float &v : feature)
        v = static_cast<float>(rng.gaussian());
    for (auto _ : state)
        benchmark::DoNotOptimize(
            numeric::Cfp32Vector::preAlign(feature));
}
BENCHMARK(BM_PreAlign1024);

void
BM_ScreenedQuery(benchmark::State &state)
{
    xclass::BenchmarkSpec spec = xclass::scaledDown(
        xclass::benchmarkByName("GNMT-E32K"), 1024);
    spec.hiddenDim = 256;
    const xclass::SyntheticModel model(spec, 6);
    const xclass::ApproximateClassifier classifier(
        model.weights(), spec, 7, &model.basis());
    sim::Rng rng(8);
    const std::vector<float> query = model.sampleQuery(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(classifier.predict(query, 5));
}
BENCHMARK(BM_ScreenedQuery)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    printCfp32Accuracy();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
