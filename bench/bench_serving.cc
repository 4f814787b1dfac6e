/**
 * @file
 * Open-loop serving study (beyond the paper's closed-loop batches):
 * Poisson request arrivals against one ECSSD, reporting the
 * latency-vs-load curve an operator would provision against.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "ecssd/server.hh"
#include "sim/rng.hh"

using namespace ecssd;

namespace
{

struct Workbench
{
    Workbench()
        : spec(makeSpec()), model(spec, 61),
          server(std::make_unique<InferenceServer>(
              model.weights(), spec, EcssdOptions::full(),
              &model.basis()))
    {
        sim::Rng rng(62);
        for (int q = 0; q < 16; ++q)
            pool.push_back(model.sampleQuery(rng));
    }

    static xclass::BenchmarkSpec
    makeSpec()
    {
        xclass::BenchmarkSpec spec = xclass::scaledDown(
            xclass::benchmarkByName("XMLCNN-S10M"), 4096);
        spec.hiddenDim = 256;
        return spec;
    }

    void
    fresh()
    {
        server = std::make_unique<InferenceServer>(
            model.weights(), spec, EcssdOptions::full(),
            &model.basis());
    }

    xclass::BenchmarkSpec spec;
    xclass::SyntheticModel model;
    std::unique_ptr<InferenceServer> server;
    std::vector<std::vector<float>> pool;
};

/** Serve @p requests Poisson arrivals at @p rps on a fresh server. */
void
servePoisson(Workbench &bench_state, double rps, unsigned requests)
{
    bench_state.fresh();
    sim::TrafficConfig traffic;
    traffic.process = sim::ArrivalProcess::Poisson;
    traffic.ratePerSecond = rps;
    sim::TrafficEngine engine(traffic);
    bench_state.server->runTraffic(engine, requests, bench_state.pool,
                                   /*k=*/5);
}

void
printServingCurve()
{
    bench::banner("Open-loop serving: latency vs offered load "
                  "(4096-category replica)");
    Workbench bench_state;
    for (const double rps : {500.0, 2000.0, 8000.0, 16000.0}) {
        servePoisson(bench_state, rps, /*requests=*/256);
        const sim::Percentiles &lat =
            bench_state.server->latencyPercentiles();
        bench::row("load " + std::to_string(int(rps)) + " rps: p50",
                   lat.p50(), "ms");
        bench::row("load " + std::to_string(int(rps)) + " rps: p99",
                   lat.p99(), "ms");
    }
}

void
BM_OpenLoopServing(benchmark::State &state)
{
    Workbench bench_state;
    for (auto _ : state) {
        servePoisson(bench_state, static_cast<double>(state.range(0)),
                     64);
        benchmark::DoNotOptimize(
            bench_state.server->latencyPercentiles().p99());
    }
    state.counters["sim_p99_ms"] =
        bench_state.server->latencyPercentiles().p99();
}
BENCHMARK(BM_OpenLoopServing)
    ->Arg(1000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    printServingCurve();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
