/**
 * @file
 * serve-steady and serve-burst: InferenceServer::runTraffic on the
 * functional tier, Transformer-W268K scaled to 16384 categories with
 * hidden dimension 256 and the learned screening basis.
 *
 * serve-steady feeds Poisson arrivals at a fixed ladder of offered
 * rates, one fresh server per rung, with the 8 MiB hot-row cache on
 * and admission and brownout off.  INT4 screening, the alignment-free
 * FP32 re-rank and the server loop dominate host time.  The ladder's
 * top rung is above device capacity so that max_rate_qps is bounded.
 *
 * serve-burst feeds MMPP-2 arrivals (bursts at 6x a base rate of
 * twice capacity) to one server with queue-delay admission, the
 * brownout ladder and slack batching on (the overload settings of
 * bench_smoke) and the cache off.  Most arrivals are shed or served
 * screener-only, so a re-rank speedup barely moves it while an
 * admission or ladder change does.
 *
 * Arrivals come from 65536 users with a mild Zipf skew (exponent 0.5)
 * and the bursts are short (mean dwell 10 ms calm, 1 ms burst): each
 * run then averages over hundreds of bursts and thousands of users,
 * so the request and class mix, and with it host time, hardly depends
 * on the seed.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "bench.hh"
#include "ecssd/server.hh"
#include "numeric/int4.hh"
#include "sim/metrics.hh"

namespace perfbench
{

using namespace ecssd;

namespace
{

constexpr std::size_t kTopK = 5;
/** serve-steady p99 limit for max_rate_qps. */
constexpr double kP99LimitMs = 10.0;

struct Rung
{
    double ratePerSecond;
    std::uint64_t arrivals;
    /** runTraffic calls the rung's stream is split into, back to back
     *  on one server; each is timed on its own. */
    unsigned slices = 1;
};

/** One serve workload's fixed shape. */
struct ServeShape
{
    bool burst = false;
    xclass::BenchmarkSpec spec;
    std::size_t queryPool = 256;
    std::size_t probeQueries = 64;
    std::vector<Rung> rungs;
    unsigned setups = 3;
};

ServeShape
shapeFor(const RunSpec &run, bool burst)
{
    ServeShape shape;
    shape.burst = burst;
    shape.spec = xclass::scaledDown(
        xclass::benchmarkByName("Transformer-W268K"),
        run.tiny ? 2048 : 16384);
    shape.spec.hiddenDim = run.tiny ? 64 : 256;
    if (run.tiny) {
        shape.queryPool = 32;
        shape.probeQueries = 8;
        shape.setups = 1;
    }
    // Host cost: about 5.5 ms per Full request and 0.34 ms per
    // overload arrival on one thread of a 4-core 2.1 GHz Xeon.
    if (burst) {
        const auto count = static_cast<std::uint64_t>(
            run.tiny ? 400 : std::lround(2900.0 * run.seconds));
        shape.rungs = {{8000.0, count, run.tiny ? 2u : 8u}};
    } else {
        const auto count = static_cast<std::uint64_t>(
            run.tiny ? 40 : std::lround(60.0 * run.seconds));
        // Device capacity is about 4000 requests/s: two rungs below
        // it and one above, far from the p99 limit on either side.
        shape.rungs = {{1000.0, count}, {3000.0, count}, {6000.0, count}};
    }
    return shape;
}

EcssdOptions
serveOptions(const ServeShape &shape, std::uint64_t seed)
{
    EcssdOptions options = EcssdOptions::full();
    options.threads = kThreads;
    options.isa = "auto";
    options.seed = seed;
    if (!shape.burst)
        options.cache.capacityBytes = 8ULL << 20;
    return options;
}

ServerConfig
serverConfig(const ServeShape &shape)
{
    ServerConfig config;
    if (shape.burst) {
        config.admissionTargetDelay = sim::microseconds(500.0);
        config.brownout.enterDelay = sim::microseconds(400.0);
        config.brownout.exitDelay = sim::microseconds(200.0);
        config.brownout.recoveryGuard = sim::microseconds(100.0);
        config.batchMaxWait = sim::microseconds(50.0);
    }
    return config;
}

sim::TrafficConfig
trafficFor(const ServeShape &shape, std::uint64_t seed, std::size_t rung,
           unsigned slice)
{
    sim::TrafficConfig traffic;
    traffic.ratePerSecond = shape.rungs[rung].ratePerSecond;
    traffic.users = 65536;
    traffic.userZipfExponent = 0.5;
    traffic.seed = seed * 64 + rung * 16 + slice;
    if (shape.burst) {
        traffic.process = sim::ArrivalProcess::BurstySpike;
        traffic.burstRateMultiplier = 6.0;
        traffic.meanCalmSeconds = 0.01;
        traffic.meanBurstSeconds = 0.001;
        traffic.goldFraction = 0.25;
    }
    return traffic;
}

/** The model and query pool: the workload's generated inputs. */
struct ServeInputs
{
    std::unique_ptr<xclass::SyntheticModel> model;
    std::vector<std::vector<float>> queries;
};

ServeInputs
makeInputs(const ServeShape &shape, std::uint64_t seed, Tracer &tracer)
{
    ServeInputs inputs;
    {
        const auto span = tracer.span("xclass.model_synth");
        inputs.model =
            std::make_unique<xclass::SyntheticModel>(shape.spec, seed);
    }
    sim::Rng rng(seed + 1);
    for (std::size_t q = 0; q < shape.queryPool; ++q)
        inputs.queries.push_back(inputs.model->sampleQuery(rng));
    return inputs;
}

std::vector<std::unique_ptr<InferenceServer>>
makeServers(const ServeShape &shape, const ServeInputs &inputs,
            std::uint64_t seed, Tracer &tracer)
{
    std::vector<std::unique_ptr<InferenceServer>> servers;
    for (std::size_t r = 0; r < shape.rungs.size(); ++r) {
        const auto span = tracer.span("ecssd.server_build",
                                      static_cast<std::int64_t>(r));
        servers.push_back(std::make_unique<InferenceServer>(
            inputs.model->weights(), shape.spec,
            serveOptions(shape, seed), &inputs.model->basis(),
            serverConfig(shape)));
    }
    return servers;
}

using Responses = std::vector<InferenceServer::Response>;

/** One runTraffic call: a slice of a rung's stream on its server. */
struct Slice
{
    /** The slice's arrival stream; it starts where the server's device
     *  clock stood when the slice began. */
    sim::TrafficConfig traffic;
    std::uint64_t arrivals = 0;
    /** Request id the server gave the slice's first arrival. */
    std::uint64_t firstId = 1;
    double hostSeconds = 0.0;
    Responses responses;
};

/** Serve every slice of every rung, timing each. */
std::vector<Slice>
serveSlices(const ServeShape &shape, const ServeInputs &inputs,
            std::uint64_t seed,
            std::vector<std::unique_ptr<InferenceServer>> &servers,
            Tracer &tracer)
{
    std::vector<Slice> slices;
    for (std::size_t r = 0; r < shape.rungs.size(); ++r) {
        const Rung &rung = shape.rungs[r];
        std::uint64_t next_id = 1;
        for (unsigned s = 0; s < rung.slices; ++s) {
            Slice slice;
            slice.traffic = trafficFor(shape, seed, r, s);
            slice.traffic.startAt = servers[r]->deviceTime();
            slice.arrivals = rung.arrivals / rung.slices
                + (s + 1 == rung.slices ? rung.arrivals % rung.slices : 0);
            slice.firstId = next_id;
            next_id += slice.arrivals;
            const auto span = tracer.span(
                "ecssd.serve", static_cast<std::int64_t>(slices.size()));
            const Clock::time_point start = Clock::now();
            sim::TrafficEngine engine(slice.traffic);
            slice.responses = servers[r]->runTraffic(
                engine, slice.arrivals, inputs.queries, kTopK);
            slice.hostSeconds = secondsSince(start);
            slices.push_back(std::move(slice));
        }
    }
    return slices;
}

/**
 * Host throughput of a timed phase.  serve-burst takes the median
 * slice (its slices are alike, so a transient stall of the shared
 * host is voted out); serve-steady's rungs differ in batch shape, so
 * it takes all requests over all time.
 */
double
hostOpsPerSecond(const ServeShape &shape, const std::vector<Slice> &slices)
{
    double arrivals = 0.0, seconds = 0.0;
    std::vector<double> rates;
    for (const Slice &slice : slices) {
        arrivals += static_cast<double>(slice.arrivals);
        seconds += slice.hostSeconds;
        rates.push_back(static_cast<double>(slice.arrivals)
                        / slice.hostSeconds);
    }
    return shape.burst ? median(rates) : arrivals / seconds;
}

/** Request-level figures of one timed phase. */
struct ServeTotals
{
    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;
    std::uint64_t shed = 0;
    std::uint64_t errors = 0;
    double recall = 0.0;
    std::uint64_t recallSamples = 0;
};

/**
 * Count terminals, check one per arrival, digest the simulated
 * outputs and score served top-k against exact top-k.
 */
ServeTotals
inspectServe(Outcome &out, const ServeInputs &inputs,
             const std::vector<std::unique_ptr<InferenceServer>> &servers,
             const std::vector<Slice> &slices,
             xclass::ApproximateClassifier &exact_model)
{
    ServeTotals totals;
    Digest digest;
    std::vector<std::vector<std::uint64_t>> exact(inputs.queries.size());
    for (std::size_t i = 0; i < slices.size(); ++i) {
        const Slice &slice = slices[i];
        const std::string where = "serve: slice " + std::to_string(i);
        totals.arrivals += slice.arrivals;
        // Ids run in arrival order, so id - firstId indexes the
        // arrival stream the server drew.
        const std::vector<sim::Arrival> arrivals =
            sim::TrafficEngine(slice.traffic).generate(slice.arrivals);
        std::set<std::uint64_t> ids;
        for (const InferenceServer::Response &response : slice.responses) {
            ids.insert(response.id);
            digest.add(response.id);
            digest.add(static_cast<std::uint64_t>(response.status));
            digest.add(response.completedAt);
            digest.add(static_cast<std::uint64_t>(response.servedAt));
            digest.add(static_cast<std::uint64_t>(response.cls));
            digest.add(static_cast<std::uint64_t>(
                response.prediction.candidateCount));
            for (std::uint64_t category :
                 response.prediction.topCategories)
                digest.add(category);
            for (double score : response.prediction.topScores)
                digest.add(score);
            switch (response.status) {
            case Status::Ok:
            case Status::Degraded:
                ++totals.served;
                break;
            case Status::Shed:
                ++totals.shed;
                break;
            default:
                ++totals.errors;
                break;
            }
            if ((response.status != Status::Ok
                 && response.status != Status::Degraded)
                || response.id < slice.firstId
                || response.id - slice.firstId >= slice.arrivals)
                continue;
            const std::size_t query =
                arrivals[response.id - slice.firstId].querySeed
                % inputs.queries.size();
            if (exact[query].empty())
                exact[query] =
                    exact_model.exact(inputs.queries[query], kTopK)
                        .topCategories;
            const std::vector<std::uint64_t> &truth = exact[query];
            std::size_t hits = 0;
            for (std::uint64_t category :
                 response.prediction.topCategories)
                hits += std::count(truth.begin(), truth.end(), category);
            totals.recall += static_cast<double>(hits) / kTopK;
            ++totals.recallSamples;
        }
        out.check(slice.responses.size() == slice.arrivals
                      && ids.size() == slice.arrivals
                      && *ids.begin() == slice.firstId
                      && *ids.rbegin() == slice.firstId + slice.arrivals - 1,
                  where + " did not answer every arrival exactly once");
    }
    for (const auto &server : servers) {
        const ServerStats &stats = server->serverStats();
        digest.add(server->deviceTime());
        for (std::uint64_t value :
             {stats.acceptedRequests, stats.shedRequests,
              stats.timedOutRequests, stats.okResponses,
              stats.degradedResponses, stats.queueDepthHwm,
              stats.brownoutTransitions, stats.servedFull,
              stats.servedReducedCandidates, stats.servedScreenerOnly})
            digest.add(value);
        out.check(server->pending() == 0, "serve: requests left queued");
    }
    if (totals.recallSamples > 0)
        totals.recall /= static_cast<double>(totals.recallSamples);
    out.attempted = totals.arrivals;
    out.failed = totals.errors;
    out.digest = digest.hex();
    return totals;
}

/** Simulated end-to-end figures of one timed phase. */
void
deviceFigures(Outcome &out, const ServeShape &shape,
              const std::vector<std::unique_ptr<InferenceServer>> &servers,
              const ServeTotals &totals)
{
    const InferenceServer &first = *servers.front();
    const sim::Percentiles &latency = first.latencyPercentiles();
    out.report["device_p50_ms"] = {latency.p50(), "ms"};
    out.report["device_p99_ms"] = {latency.p99(), "ms"};
    out.report["device_latency_samples"] = {
        static_cast<double>(latency.count()), "count"};
    out.report["failed_frac"] = {
        static_cast<double>(totals.arrivals - totals.served)
            / static_cast<double>(totals.arrivals),
        "fraction"};
    out.report["recall_at_5"] = {totals.recall, "fraction"};
    if (shape.burst) {
        const ServerStats &stats = first.serverStats();
        const double device_s = sim::tickToSeconds(first.deviceTime());
        out.report["goodput_qps"] = {
            static_cast<double>(stats.okResponses
                                + stats.degradedResponses)
                / device_s,
            "1/s"};
        out.check(first.brownoutLevel() == BrownoutLevel::Full,
                  "serve-burst did not end at brownout level Full");
        out.check(totals.shed > 0,
                  "serve-burst shed nothing: the overload never "
                  "reached admission control");
        return;
    }
    double max_rate = 0.0;
    for (std::size_t r = 0; r < shape.rungs.size(); ++r) {
        const InferenceServer &server = *servers[r];
        out.report["rung" + std::to_string(r) + "_p99_ms"] = {
            server.latencyPercentiles().p99(), "ms"};
        if (server.latencyPercentiles().p99() <= kP99LimitMs
            && server.serverStats().shedRequests == 0
            && server.pending() == 0)
            max_rate = std::max(max_rate, shape.rungs[r].ratePerSecond);
    }
    out.report["max_rate_qps"] = {max_rate, "1/s"};
    out.check(totals.shed == 0, "serve-steady shed requests");
    out.check(max_rate > 0.0,
              "serve-steady: no rung met the p99 limit");
    // With the learned screening basis the served top-5 matches the
    // exact top-5 almost always; a drop below this floor is a
    // functional regression, not noise.
    out.check(totals.recall >= 0.9,
              "serve-steady recall_at_5 " +
                  std::to_string(totals.recall) + " below 0.9");
}

/** Mean per-query milliseconds of the probe spans named @p name. */
double
perQueryMs(const Tracer &tracer, const std::string &name)
{
    const std::uint64_t n = tracer.count(name);
    return n == 0 ? 0.0 : tracer.total(name) * 1e3 / n;
}

/**
 * Per-query layer costs, each timed around one public call on the
 * workload's own queries: the screener, the approximate classifier's
 * three paths, the INT4 scoring kernel and the FP32 re-rank.
 */
void
probeLayers(Outcome &out, const ServeShape &shape,
            const ServeInputs &inputs, std::uint64_t seed,
            const std::vector<Slice> &slices, Tracer &tracer)
{
    sim::ThreadPool pool(kThreads);
    const xclass::ApproximateClassifier classifier(
        inputs.model->weights(), shape.spec, seed,
        &inputs.model->basis(), &pool);
    const xclass::CandidateClassifier rerank(inputs.model->weights(),
                                             &pool);
    const xclass::Screener &screener = classifier.screener();
    const auto datapath =
        xclass::CandidateClassifier::Datapath::Cfp32AlignmentFree;
    // Warm the lazily pre-aligned weights before timing.
    {
        const std::vector<float> &query = inputs.queries.front();
        classifier.predict(query, kTopK);
        rerank.scores(query,
                      screener.screen(query, xclass::FilterMode::TopRatio),
                      datapath);
    }
    // Each layer runs over all probe queries in a loop of its own, as
    // a stream of like requests does inside the server; interleaving
    // them made every call pay for the others' cache traffic, and the
    // probed costs then summed to more than the serving time.
    const auto probe = tracer.span("probe");
    const auto each_query = [&](const char *name, auto &&call) {
        for (std::size_t q = 0; q < shape.probeQueries; ++q) {
            const std::vector<float> &query =
                inputs.queries[q % inputs.queries.size()];
            const auto span =
                tracer.span(name, static_cast<std::int64_t>(q));
            call(q, query);
        }
    };
    std::vector<std::vector<std::uint64_t>> candidates(
        shape.probeQueries);
    each_query("xclass.screen", [&](std::size_t q, const auto &query) {
        candidates[q] =
            screener.screen(query, xclass::FilterMode::TopRatio);
    });
    each_query("xclass.predict", [&](std::size_t, const auto &query) {
        classifier.predict(query, kTopK);
    });
    each_query("xclass.screener_only",
               [&](std::size_t, const auto &query) {
                   classifier.screenerOnly(query, kTopK);
               });
    numeric::Int4Vector prepared;
    std::vector<double> scores;
    each_query("numeric.int4_score", [&](std::size_t, const auto &query) {
        screener.prepareFeatureInto(query, prepared);
        screener.scoresInto(prepared, scores);
    });
    std::uint64_t rerank_rows = 0;
    each_query("numeric.rerank", [&](std::size_t q, const auto &query) {
        rerank.scores(query, candidates[q], datapath);
        rerank_rows += candidates[q].size();
    });
    {
        const auto span = tracer.span("sim.traffic_gen");
        for (const Slice &slice : slices)
            sim::TrafficEngine(slice.traffic).generate(slice.arrivals);
    }
    MetricMap &m = out.layers;
    m["xclass.screen_ms_per_query"] = {perQueryMs(tracer, "xclass.screen"),
                                       "ms"};
    m["xclass.predict_ms_per_query"] = {
        perQueryMs(tracer, "xclass.predict"), "ms"};
    m["xclass.screener_only_ms_per_query"] = {
        perQueryMs(tracer, "xclass.screener_only"), "ms"};
    m["numeric.int4_score_ms_per_query"] = {
        perQueryMs(tracer, "numeric.int4_score"), "ms"};
    m["numeric.rerank_ms_per_query"] = {
        perQueryMs(tracer, "numeric.rerank"), "ms"};
    m["numeric.rerank_rows"] = {static_cast<double>(rerank_rows),
                                "count"};
    m["sim.traffic_gen_s"] = {tracer.total("sim.traffic_gen"), "s"};
}

Outcome
runServe(const RunSpec &run, bool burst, Tracer &tracer)
{
    const ServeShape shape = shapeFor(run, burst);
    Outcome out;
    ServeInputs inputs;
    std::vector<std::unique_ptr<InferenceServer>> servers;
    // Verification only: the exact top-k reference and its pool.
    sim::ThreadPool verify_pool(kThreads);

    if (!run.traced) {
        std::vector<double> setup_s;
        for (unsigned i = 0; i < shape.setups; ++i) {
            servers.clear();
            inputs = ServeInputs{};
            const Clock::time_point start = Clock::now();
            inputs = makeInputs(shape, run.seed, tracer);
            servers = makeServers(shape, inputs, run.seed, tracer);
            setup_s.push_back(secondsSince(start));
        }
        const std::vector<Slice> slices =
            serveSlices(shape, inputs, run.seed, servers, tracer);
        xclass::ApproximateClassifier exact_model(
            inputs.model->weights(), shape.spec, run.seed,
            &inputs.model->basis(), &verify_pool);
        const ServeTotals totals =
            inspectServe(out, inputs, servers, slices, exact_model);
        deviceFigures(out, shape, servers, totals);
        const double finished = static_cast<double>(totals.arrivals);
        const double host_qps = hostOpsPerSecond(shape, slices);
        out.endToEnd["setup_s"] = {median(setup_s), "s"};
        out.endToEnd["host_ops_per_s"] = {host_qps, "1/s"};
        out.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
        out.endToEnd["device_ops_per_s"] = {
            burst ? out.report["goodput_qps"].value
                  : out.report["max_rate_qps"].value,
            "1/s"};
        out.endToEnd["served_frac"] = {
            static_cast<double>(totals.served) / finished, "fraction"};
        out.report["host_qps"] = {host_qps, "1/s"};
        return out;
    }

    // --- Traced run -------------------------------------------------
    {
        const auto setup = tracer.span("setup");
        inputs = makeInputs(shape, run.seed, tracer);
        servers = makeServers(shape, inputs, run.seed, tracer);
    }
    Tracer off(false);
    const std::vector<Slice> untraced_slices =
        serveSlices(shape, inputs, run.seed, servers, off);
    xclass::ApproximateClassifier exact_model(
        inputs.model->weights(), shape.spec, run.seed,
        &inputs.model->basis(), &verify_pool);
    Outcome untraced;
    inspectServe(untraced, inputs, servers, untraced_slices, exact_model);

    // Fresh servers for the traced pass, each reporting its pipeline
    // counters into a registry (recording never alters serving).
    servers.clear();
    {
        const auto setup = tracer.span("setup");
        servers = makeServers(shape, inputs, run.seed, tracer);
    }
    sim::MetricsRegistry registry;
    for (auto &server : servers)
        server->attachObservability(&registry, nullptr);
    std::vector<Slice> slices;
    {
        const auto timed = tracer.span("timed");
        slices = serveSlices(shape, inputs, run.seed, servers, tracer);
    }
    const ServeTotals totals =
        inspectServe(out, inputs, servers, slices, exact_model);
    out.matchUntraced(untraced, "serve: traced and untraced passes differ "
                                "in simulated output");
    deviceFigures(out, shape, servers, totals);
    probeLayers(out, shape, inputs, run.seed, slices, tracer);

    ServerStats sum;
    for (const auto &server : servers) {
        const ServerStats &stats = server->serverStats();
        sum.queueDepthHwm = std::max(sum.queueDepthHwm, stats.queueDepthHwm);
        sum.shedRequests += stats.shedRequests;
        sum.servedFull += stats.servedFull;
        sum.servedReducedCandidates += stats.servedReducedCandidates;
        sum.servedScreenerOnly += stats.servedScreenerOnly;
        sum.brownoutTransitions += stats.brownoutTransitions;
    }
    const auto counter = [&registry](const char *name) {
        return static_cast<double>(registry.counter(name).value());
    };
    const double batches = std::max(1.0, counter("pipeline.batches"));
    const double cache_rows = counter("cache.hit") + counter("cache.miss");

    MetricMap &m = out.layers;
    m["xclass.model_synth_s"] = {tracer.total("xclass.model_synth"), "s"};
    m["xclass.recall_at_5"] = {totals.recall, "fraction"};
    m["ecssd.server_build_s"] = {
        tracer.total("ecssd.server_build")
            / static_cast<double>(tracer.count("ecssd.server_build")),
        "s"};
    m["accel.int4_stage_ms"] = {
        counter("pipeline.int4_stage_ps") * 1e-9 / batches, "ms"};
    m["accel.fp32_fetch_ms"] = {
        counter("pipeline.fp32_fetch_ps") * 1e-9 / batches, "ms"};
    m["accel.fp32_compute_ms"] = {
        counter("pipeline.fp32_compute_ps") * 1e-9 / batches, "ms"};
    m["accel.cache_hit_rate"] = {
        cache_rows > 0.0 ? counter("cache.hit") / cache_rows : 0.0,
        "fraction"};
    m["ssdsim.fp32_pages_read"] = {counter("pipeline.fp32_pages_read"),
                                   "count"};
    m["ecssd.queue_depth_hwm"] = {static_cast<double>(sum.queueDepthHwm),
                                  "count"};
    m["ecssd.shed"] = {static_cast<double>(sum.shedRequests), "count"};
    m["ecssd.served_full"] = {static_cast<double>(sum.servedFull),
                              "count"};
    m["ecssd.served_screener_only"] = {
        static_cast<double>(sum.servedScreenerOnly), "count"};
    m["ecssd.brownout_transitions"] = {
        static_cast<double>(sum.brownoutTransitions), "count"};

    // The server's own cost: serving time minus, per rung, the probed
    // per-query layer cost times the requests served at that rung.
    // A Full request costs one predict(); a ReducedCandidates one a
    // screen, a full INT4 scoring and a re-rank of the capped set; a
    // ScreenerOnly one screenerOnly().
    const double serve_s = tracer.total("ecssd.serve");
    const double reduced_ms =
        m["xclass.screen_ms_per_query"].value
        + m["numeric.int4_score_ms_per_query"].value
        + serverConfig(shape).brownout.reducedCandidateFraction
            * m["numeric.rerank_ms_per_query"].value;
    const double layer_ms =
        static_cast<double>(sum.servedFull)
            * m["xclass.predict_ms_per_query"].value
        + static_cast<double>(sum.servedReducedCandidates) * reduced_ms
        + static_cast<double>(sum.servedScreenerOnly)
            * m["xclass.screener_only_ms_per_query"].value;
    m["ecssd.serve_s"] = {serve_s, "s"};
    m["ecssd.server_self_s"] = {serve_s - layer_ms * 1e-3, "s"};

    addTimedAccounting(out, tracer,
                       hostOpsPerSecond(shape, untraced_slices),
                       hostOpsPerSecond(shape, slices));
    return out;
}

} // namespace

Outcome
runServeSteady(const RunSpec &run, Tracer &tracer)
{
    return runServe(run, false, tracer);
}

Outcome
runServeBurst(const RunSpec &run, Tracer &tracer)
{
    return runServe(run, true, tracer);
}

} // namespace perfbench
