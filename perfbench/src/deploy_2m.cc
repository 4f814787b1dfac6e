/**
 * @file
 * deploy-2m: streamingWeightDeploy of a SyntheticRowSource with 2M
 * rows x 64 columns (shrunk dimension 16) under an 8 MiB host budget.
 *
 * The write workload beside the three read workloads: sorted runs
 * spill through the FTL, the merge reads them back, placement comes
 * from the sorted-stream layout builder, and host memory is budgeted.
 * Set-up builds the device the first deploy writes through; the later
 * deploys build their own (streamingWeightDeploy's default), so every
 * deploy starts on a fresh device and repeats the same simulated
 * result.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hh"
#include "ecssd/streaming_deploy.hh"
#include "sim/event_queue.hh"

namespace perfbench
{

using namespace ecssd;

namespace
{

struct DeployShape
{
    std::uint64_t rows = 2000000;
    std::size_t cols = 64;
    std::size_t shrunkDim = 16;
    std::uint64_t budgetBytes = 8ULL << 20;
    unsigned deploys = 5;
    /** A device builds in ~30 ms, so the median needs many rounds. */
    unsigned setups = 9;
};

DeployShape
shapeFor(const RunSpec &run)
{
    DeployShape shape;
    if (run.tiny) {
        shape.rows = 100000;
        shape.cols = 32;
        shape.budgetBytes = 1ULL << 20;
        shape.deploys = 2;
        shape.setups = 1;
    } else {
        // About 1.7 host seconds per deploy on a 4-core 2.1 GHz Xeon.
        shape.deploys = std::max(
            2u, static_cast<unsigned>(std::lround(run.seconds / 2.0)));
    }
    return shape;
}

/** The device the first deploy writes through, with its queue. */
struct Target
{
    explicit Target(const ssdsim::SsdConfig &ssd)
        : queue(std::make_unique<sim::EventQueue>()),
          device(std::make_unique<ssdsim::SsdDevice>(ssd, *queue))
    {
    }

    std::unique_ptr<sim::EventQueue> queue;
    std::unique_ptr<ssdsim::SsdDevice> device;
};

/**
 * Deploy shape.deploys times, the first through @p target and the
 * rest through private devices; returns host seconds of each deploy.
 */
std::vector<double>
deployAll(const DeployShape &shape, const WeightRowSource &source,
          const ssdsim::SsdConfig &ssd,
          const StreamingDeployConfig &config, Target &target,
          std::vector<StreamingDeployResult> &results, Tracer &tracer)
{
    results.clear();
    std::vector<double> seconds;
    for (unsigned d = 0; d < shape.deploys; ++d) {
        const auto span = tracer.span("ecssd.deploy", d);
        const Clock::time_point start = Clock::now();
        results.push_back(streamingWeightDeploy(
            source, shape.shrunkDim, ssd.channels, ssd, config,
            d == 0 ? target.device.get() : nullptr));
        seconds.push_back(secondsSince(start));
    }
    return seconds;
}

/** Check every deploy and digest the first (all must agree). */
void
inspectDeploys(Outcome &out, const DeployShape &shape,
               const ssdsim::SsdConfig &ssd,
               const std::vector<StreamingDeployResult> &results)
{
    out.attempted = results.size();
    out.failed = 0;
    std::vector<std::string> digests;
    for (const StreamingDeployResult &result : results) {
        bool ok = result.layout != nullptr
            && result.rowsPlaced == shape.rows
            && result.layout->rows() == shape.rows;
        Digest digest;
        for (std::uint64_t row = 0; ok && row < shape.rows; ++row) {
            const unsigned channel = result.layout->channelOf(row);
            ok = channel < ssd.channels;
            digest.add(static_cast<std::uint64_t>(channel));
            digest.add(result.layout->dieSlotOf(row));
        }
        out.check(ok, "deploy-2m did not place every row on a channel");
        out.check(result.hostPeakBytes <= shape.budgetBytes,
                  "deploy-2m host peak " +
                      std::to_string(result.hostPeakBytes) +
                      " bytes over the budget");
        out.check(result.runsSpilled >= 2,
                  "deploy-2m spilled fewer than 2 runs");
        if (!ok)
            ++out.failed;
        for (std::uint64_t value :
             {result.deployTime, result.hostPeakBytes,
              result.runsSpilled, result.spillPagesWritten,
              result.spillPagesRead, result.rowsPlaced})
            digest.add(value);
        digests.push_back(digest.hex());
    }
    out.check(std::all_of(digests.begin(), digests.end(),
                          [&](const std::string &d) {
                              return d == digests.front();
                          }),
              "deploy-2m: repeated deploys of one input differ");
    out.digest = digests.empty() ? "" : digests.front();
}

} // namespace

Outcome
runDeploy2m(const RunSpec &run, Tracer &tracer)
{
    const DeployShape shape = shapeFor(run);
    const ssdsim::SsdConfig ssd;
    const SyntheticRowSource source(shape.rows, shape.cols, run.seed);
    StreamingDeployConfig config;
    config.hostBudgetBytes = shape.budgetBytes;
    config.rowBytes = shape.cols * sizeof(float);
    config.seed = run.seed;

    Outcome out;
    std::unique_ptr<Target> target;
    std::vector<StreamingDeployResult> results;
    const double rows = static_cast<double>(shape.rows);

    if (!run.traced) {
        std::vector<double> setup_s;
        for (unsigned i = 0; i < shape.setups; ++i) {
            target.reset();
            const Clock::time_point start = Clock::now();
            target = std::make_unique<Target>(ssd);
            setup_s.push_back(secondsSince(start));
        }
        // Rows per host second of the median deploy: robust to a
        // transient stall of the shared host.
        const double host_rows_per_s =
            rows
            / median(deployAll(shape, source, ssd, config, *target,
                               results, tracer));
        inspectDeploys(out, shape, ssd, results);
        const StreamingDeployResult &first = results.front();
        out.endToEnd["setup_s"] = {median(setup_s), "s"};
        out.endToEnd["host_ops_per_s"] = {host_rows_per_s, "1/s"};
        out.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
        out.endToEnd["device_ops_per_s"] = {
            rows / sim::tickToSeconds(first.deployTime), "1/s"};
        out.endToEnd["served_frac"] = {
            static_cast<double>(first.rowsPlaced) / rows, "fraction"};
        out.report["host_rows_per_s"] = {host_rows_per_s, "1/s"};
        out.report["deploy_ms"] = {sim::tickToMs(first.deployTime), "ms"};
        out.report["deploy_host_peak_mb"] = {
            static_cast<double>(first.hostPeakBytes) / (1 << 20), "MB"};
        out.report["runs_spilled"] = {
            static_cast<double>(first.runsSpilled), "count"};
        out.report["spill_pages_written"] = {
            static_cast<double>(first.spillPagesWritten), "count"};
        out.report["failed_frac"] = {
            static_cast<double>(out.failed) / shape.deploys, "fraction"};
        return out;
    }

    // --- Traced run -------------------------------------------------
    Tracer off(false);
    target = std::make_unique<Target>(ssd);
    const double untraced_s = median(
        deployAll(shape, source, ssd, config, *target, results, off));
    Outcome untraced;
    inspectDeploys(untraced, shape, ssd, results);

    target.reset();
    {
        const auto setup = tracer.span("setup");
        const auto span = tracer.span("ssdsim.device_build");
        target = std::make_unique<Target>(ssd);
    }
    double traced_s = 0.0;
    {
        const auto timed = tracer.span("timed");
        traced_s = median(deployAll(shape, source, ssd, config, *target,
                                    results, tracer));
    }
    inspectDeploys(out, shape, ssd, results);
    out.matchUntraced(untraced, "deploy-2m: traced and untraced passes "
                                "differ in simulated output");

    const StreamingDeployResult &first = results.front();
    MetricMap &m = out.layers;
    m["ecssd.deploy_s"] = {tracer.total("ecssd.deploy") / shape.deploys,
                           "s"};
    m["ssdsim.spill_pages_written"] = {
        static_cast<double>(first.spillPagesWritten), "count"};
    m["ssdsim.spill_pages_read"] = {
        static_cast<double>(first.spillPagesRead), "count"};
    m["ssdsim.runs_spilled"] = {static_cast<double>(first.runsSpilled),
                                "count"};
    addTimedAccounting(out, tracer, rows / untraced_s, rows / traced_s);
    return out;
}

} // namespace perfbench
