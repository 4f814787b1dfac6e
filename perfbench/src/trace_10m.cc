/**
 * @file
 * trace-10m: XMLCNN-S10M at full scale (L = 10M, D = 1024) on the
 * trace tier, a closed loop of 8-query batches with no row cache.
 *
 * Host time goes to trace generation (the hotness oracle during
 * set-up, the candidate draws per batch) and to the layout build; the
 * functional kernels and the server loop do no work here.  This is
 * the paper's large-L point of Fig 13.
 *
 * The untraced run drives EcssdSystem::runInferenceWith from a
 * TraceSource with the system's own seed, stamping the host clock at
 * each draw; its device results are those of runInference.  The traced
 * run first calls runInference itself, then splits it into the layers
 * it is built from: candidate draws through the benchmark's own
 * TraceSource, then runInferenceWith over a ListSource of the
 * pre-drawn batches.  The split path must reproduce runInference's
 * device results bit for bit.  Its set-up rebuilds the trace and the
 * layout outside the system so their cost can be timed on its own.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "accel/candidate_source.hh"
#include "bench.hh"
#include "ecssd/system.hh"

namespace perfbench
{

using namespace ecssd;

namespace
{

EcssdOptions
traceOptions(std::uint64_t seed)
{
    EcssdOptions options = EcssdOptions::full();
    options.threads = kThreads;
    options.isa = "auto";
    options.seed = seed;
    return options;
}

void
digestRun(Digest &digest, const accel::RunResult &result)
{
    for (const accel::BatchTiming &batch : result.batches) {
        for (std::uint64_t value :
             {batch.startedAt, batch.finishedAt, batch.candidateRows,
              batch.fp32PagesRead, batch.fp32BytesRead,
              batch.int4PagesRead, batch.fp32Flops, batch.int4Ops,
              batch.fp32FetchTime, batch.fp32ComputeTime,
              batch.int4StageTime, batch.uncorrectablePages,
              batch.degradedRows, batch.hostRefetches,
              batch.cacheHitRows, batch.cacheMissRows,
              batch.cacheHitTime, batch.cacheMissTime,
              static_cast<std::uint64_t>(batch.failed)})
            digest.add(value);
        for (std::uint64_t pages : batch.channelPages)
            digest.add(pages);
    }
    digest.add(result.totalTime);
    digest.add(result.channelUtilization);
    digest.add(result.effectiveGflops);
}

/**
 * Forwards to a TraceSource and stamps the host clock as each batch
 * is drawn: the gap between two draws is one batch of closed-loop
 * work (its candidate draw plus its pipeline run).
 */
class StampedSource : public accel::CandidateSource
{
  public:
    explicit StampedSource(accel::TraceSource &inner) : inner_(inner) {}

    std::uint64_t rows() const override { return inner_.rows(); }

    std::vector<std::uint64_t>
    nextBatch() override
    {
        stamps_.push_back(Clock::now());
        return inner_.nextBatch();
    }

    /** Host seconds of each batch, the last one ending at @p end. */
    std::vector<double>
    batchSeconds(Clock::time_point end) const
    {
        std::vector<double> seconds;
        for (std::size_t b = 0; b < stamps_.size(); ++b) {
            const Clock::time_point next =
                b + 1 < stamps_.size() ? stamps_[b + 1] : end;
            seconds.push_back(
                std::chrono::duration<double>(next - stamps_[b]).count());
        }
        return seconds;
    }

  private:
    accel::TraceSource &inner_;
    std::vector<Clock::time_point> stamps_;
};

/** Checks and figures shared by the untraced and traced runs. */
void
inspectRun(Outcome &out, const xclass::BenchmarkSpec &spec,
           const accel::RunResult &result, unsigned batches)
{
    const std::uint64_t want = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(spec.categories)
               * spec.candidateRatio));
    out.check(result.batches.size() == batches,
              "trace-10m ran a different batch count than asked");
    for (const accel::BatchTiming &batch : result.batches)
        out.check(batch.candidateRows == want,
                  "trace-10m batch fetched " +
                      std::to_string(batch.candidateRows) +
                      " rows, want L x candidateRatio = " +
                      std::to_string(want));
    out.attempted = batches;
    out.failed = result.failedBatches;
    Digest digest;
    digestRun(digest, result);
    out.digest = digest.hex();
}

} // namespace

Outcome
runTrace10m(const RunSpec &run, Tracer &tracer)
{
    xclass::BenchmarkSpec spec = xclass::benchmarkByName("XMLCNN-S10M");
    if (run.tiny)
        spec = xclass::scaledDown(spec, 1 << 16);
    // About 0.65 host seconds per batch on a 4-core 2.1 GHz Xeon.
    const unsigned batches = run.tiny
        ? 2
        : std::max(2u, static_cast<unsigned>(
                           std::lround(1.5 * run.seconds)));
    const unsigned setups = run.tiny ? 1 : 3;
    const EcssdOptions options = traceOptions(run.seed);
    const double queries =
        static_cast<double>(batches) * spec.batchSize;

    Outcome out;
    std::unique_ptr<EcssdSystem> system;

    if (!run.traced) {
        // Set-up builds the system and the candidate source the closed
        // loop draws from (the system's own trace, rebuilt outside it
        // so each batch's host time can be stamped).
        std::unique_ptr<accel::TraceSource> source;
        std::vector<double> setup_s;
        for (unsigned i = 0; i < setups; ++i) {
            system.reset();
            source.reset();
            const Clock::time_point start = Clock::now();
            system = std::make_unique<EcssdSystem>(spec, options);
            source = std::make_unique<accel::TraceSource>(
                spec, run.seed, options.predictorNoise);
            setup_s.push_back(secondsSince(start));
        }
        StampedSource stamped(*source);
        const accel::RunResult result =
            system->runInferenceWith(stamped, batches);
        const std::vector<double> batch_s =
            stamped.batchSeconds(Clock::now());
        inspectRun(out, spec, result, batches);

        std::vector<double> batch_ms;
        for (const accel::BatchTiming &batch : result.batches)
            batch_ms.push_back(sim::tickToMs(batch.latency()));
        const double device_s = sim::tickToSeconds(result.totalTime);
        out.endToEnd["setup_s"] = {median(setup_s), "s"};
        // Closed-loop throughput at the median batch: robust to a
        // transient stall of the shared host.
        const double host_qps = spec.batchSize / median(batch_s);
        out.endToEnd["host_ops_per_s"] = {host_qps, "1/s"};
        out.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
        out.endToEnd["device_ops_per_s"] = {queries / device_s, "1/s"};
        out.endToEnd["served_frac"] = {
            static_cast<double>(batches - result.failedBatches)
                / batches,
            "fraction"};
        out.report["host_qps"] = {host_qps, "1/s"};
        out.report["device_batch_ms"] = {result.meanBatchMs(), "ms"};
        out.report["device_batch_p50_ms"] = {median(batch_ms), "ms"};
        out.report["channel_util"] = {result.channelUtilization,
                                      "fraction"};
        out.report["failed_frac"] = {
            static_cast<double>(result.failedBatches) / batches,
            "fraction"};
        out.report["batches"] = {static_cast<double>(batches), "count"};
        return out;
    }

    // --- Traced run -------------------------------------------------
    std::unique_ptr<accel::TraceSource> source;
    {
        const auto setup = tracer.span("setup");
        {
            const auto span = tracer.span("xclass.trace_build");
            source = std::make_unique<accel::TraceSource>(
                spec, run.seed, options.predictorNoise);
        }
        // The same placement EcssdSystem builds: page groups, each as
        // hot as its hottest row.  The hot-degree callback runs once
        // per group at ~100 ns a call, too short to time one by one
        // without distorting it; the wrapper counts the calls, and
        // the same number of calls is then replayed on their own and
        // timed (the callback is a pure function of the group id), so
        // its time can be folded out of the layout's.
        const std::uint64_t rows_per_page = std::max<std::uint64_t>(
            1, options.ssd.pageBytes / spec.rowBytes());
        const std::uint64_t groups =
            (spec.categories + rows_per_page - 1) / rows_per_page;
        const xclass::CandidateTrace &trace = source->trace();
        const auto group_hotness = [&](std::uint64_t group) {
            double hottest = 0.0;
            const std::uint64_t first = group * rows_per_page;
            const std::uint64_t limit =
                std::min(first + rows_per_page, spec.categories);
            for (std::uint64_t row = first; row < limit; ++row)
                hottest = std::max(hottest, trace.hotness(row));
            return hottest;
        };
        std::uint64_t calls = 0;
        std::uint64_t layout_span = 0;
        std::unique_ptr<layout::LayoutStrategy> placement;
        {
            const auto span = tracer.span("layout.build");
            layout_span = span.id();
            placement = layout::makeLayout(
                options.layoutKind, groups, options.ssd.channels,
                [&](std::uint64_t group) {
                    ++calls;
                    return group_hotness(group);
                });
        }
        const Clock::time_point replay = Clock::now();
        double sink = 0.0;
        for (std::uint64_t call = 0; call < calls; ++call)
            sink += group_hotness(call % groups);
        tracer.fold(layout_span, "xclass.hotness", secondsSince(replay),
                    calls);
        out.check(std::isfinite(sink), "trace-10m: non-finite hotness");
        {
            const auto span = tracer.span("ecssd.system_build");
            system = std::make_unique<EcssdSystem>(spec, options);
        }
        bool same_placement = placement->rows() == groups;
        for (std::uint64_t g = 0; same_placement && g < groups; ++g)
            same_placement = placement->channelOf(g)
                    == system->strategy().channelOf(g)
                && placement->dieSlotOf(g)
                    == system->strategy().dieSlotOf(g);
        out.check(same_placement,
                  "trace-10m: the benchmark's layout build differs "
                  "from the one EcssdSystem builds");
    }

    // Untraced pass first, on the same system: the reference for the
    // split path and the tracing overhead.
    const Clock::time_point untraced_start = Clock::now();
    const accel::RunResult reference = system->runInference(batches);
    const double untraced_s = secondsSince(untraced_start);
    Outcome untraced;
    inspectRun(untraced, spec, reference, batches);

    accel::RunResult result;
    std::uint64_t drawn_rows = 0;
    {
        const auto timed = tracer.span("timed");
        std::vector<std::vector<std::uint64_t>> drawn;
        for (unsigned b = 0; b < batches; ++b) {
            const auto span = tracer.span("xclass.draw", b);
            drawn.push_back(source->nextBatch());
            drawn_rows += drawn.back().size();
        }
        accel::ListSource list(spec.categories, std::move(drawn));
        const auto span = tracer.span("accel.pipeline");
        result = system->runInferenceWith(list, batches);
    }
    inspectRun(out, spec, result, batches);
    out.matchUntraced(untraced, "trace-10m: the split path (pre-drawn "
                                "ListSource) differs from runInference");

    sim::Tick int4 = 0, fetch = 0, compute = 0;
    std::uint64_t pages = 0;
    std::vector<std::uint64_t> channel_pages;
    for (const accel::BatchTiming &batch : result.batches) {
        int4 += batch.int4StageTime;
        fetch += batch.fp32FetchTime;
        compute += batch.fp32ComputeTime;
        pages += batch.fp32PagesRead;
        channel_pages.resize(
            std::max(channel_pages.size(), batch.channelPages.size()));
        for (std::size_t c = 0; c < batch.channelPages.size(); ++c)
            channel_pages[c] += batch.channelPages[c];
    }
    double skew = 0.0;
    if (!channel_pages.empty() && pages > 0) {
        const double mean = static_cast<double>(pages)
            / static_cast<double>(channel_pages.size());
        skew = static_cast<double>(*std::max_element(
                   channel_pages.begin(), channel_pages.end()))
            / mean;
    }

    const double hotness = tracer.foldedSeconds("xclass.hotness");
    MetricMap &m = out.layers;
    m["xclass.trace_build_s"] = {tracer.total("xclass.trace_build"), "s"};
    m["xclass.hotness_s"] = {hotness, "s"};
    m["xclass.hotness_calls"] = {
        static_cast<double>(tracer.foldedCalls("xclass.hotness")),
        "count"};
    m["layout.build_s"] = {tracer.total("layout.build") - hotness, "s"};
    m["ecssd.system_build_s"] = {tracer.total("ecssd.system_build"), "s"};
    m["xclass.draw_s"] = {tracer.total("xclass.draw"), "s"};
    m["xclass.draw_rows"] = {static_cast<double>(drawn_rows), "count"};
    m["accel.pipeline_s"] = {tracer.total("accel.pipeline"), "s"};
    m["accel.int4_stage_ms"] = {sim::tickToMs(int4) / batches, "ms"};
    m["accel.fp32_fetch_ms"] = {sim::tickToMs(fetch) / batches, "ms"};
    m["accel.fp32_compute_ms"] = {sim::tickToMs(compute) / batches,
                                  "ms"};
    m["ssdsim.fp32_pages_read"] = {static_cast<double>(pages), "count"};
    m["ssdsim.channel_skew"] = {skew, "ratio"};
    addTimedAccounting(out, tracer, queries / untraced_s,
                       queries / tracer.total("timed"));
    return out;
}

} // namespace perfbench
