/**
 * @file
 * Repository benchmark program.
 *
 *   ecssd_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--scale full|tiny] [--trace-out PATH]
 *
 * Runs one workload (trace-10m, serve-steady, deploy-2m, serve-burst)
 * on inputs generated from the seed.  With --trace 0 it reports the
 * end-to-end metrics; with --trace 1 it runs the workload untraced
 * and then traced, and reports the per-layer metrics, the timed-phase
 * accounting and the tracing overhead.  Provenance, the digest of the
 * simulated outputs and every named end-to-end figure are printed as
 * "#" lines; the last line of standard output is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * A failed correctness check prints the result with "correct": false
 * and exits with status 1.
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sched.h>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "numeric/kernels.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace perfbench;

/** The gated end-to-end metrics every workload reports. */
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"host_ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"device_ops_per_s", "1/s"},
    {"served_frac", "fraction"},
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload trace-10m|serve-steady|deploy-2m|"
                 "serve-burst --seed N --seconds S --trace 0|1 "
                 "[--scale full|tiny] [--trace-out PATH]\n",
                 argv0);
    return 2;
}

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || text[0] == '-')
        return false;
    out = value;
    return true;
}

std::string
number(double value)
{
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

std::string
provenance(const RunSpec &run)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int nproc = sched_getaffinity(0, sizeof(set), &set) == 0
        ? CPU_COUNT(&set)
        : 0;
    std::ostringstream os;
    os << "{\"workload\":\"" << run.workload << "\",\"seed\":" << run.seed
       << ",\"seconds\":" << run.seconds
       << ",\"trace\":" << (run.traced ? 1 : 0) << ",\"scale\":\""
       << (run.tiny ? "tiny" : "full") << "\",\"nproc\":" << nproc
       << ",\"hardware_concurrency\":"
       << std::thread::hardware_concurrency()
       << ",\"threads\":" << kThreads << ",\"isa\":\""
       << ecssd::numeric::toString(ecssd::numeric::activeIsa())
       << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
       << "\",\"compiler\":\""
#if defined(__clang__)
       << "clang " << __clang_version__
#elif defined(__GNUC__)
       << "gcc " << __VERSION__
#else
       << "unknown"
#endif
       << "\"}";
    return os.str();
}

void
printMetrics(const char *label, const MetricMap &metrics)
{
    for (const auto &[name, metric] : metrics)
        std::printf("# %s %s = %s %s\n", label, name.c_str(),
                    number(metric.value).c_str(), metric.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    RunSpec run;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (value == nullptr)
            return usage(argv[0]);
        ++i;
        std::uint64_t parsed = 0;
        if (flag == "--workload") {
            run.workload = value;
            have_workload = true;
        } else if (flag == "--seed" && parseUnsigned(value, parsed)) {
            run.seed = parsed;
            have_seed = true;
        } else if (flag == "--seconds" && parseUnsigned(value, parsed)
                   && parsed >= 1 && parsed <= 3600) {
            run.seconds = static_cast<unsigned>(parsed);
            have_seconds = true;
        } else if (flag == "--trace" && parseUnsigned(value, parsed)
                   && parsed <= 1) {
            run.traced = parsed == 1;
            have_trace = true;
        } else if (flag == "--scale"
                   && (std::strcmp(value, "full") == 0
                       || std::strcmp(value, "tiny") == 0)) {
            run.tiny = std::strcmp(value, "tiny") == 0;
        } else if (flag == "--trace-out") {
            run.traceOut = value;
        } else {
            return usage(argv[0]);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage(argv[0]);

    Outcome (*workload)(const RunSpec &, Tracer &) = nullptr;
    if (run.workload == "trace-10m")
        workload = runTrace10m;
    else if (run.workload == "serve-steady")
        workload = runServeSteady;
    else if (run.workload == "deploy-2m")
        workload = runDeploy2m;
    else if (run.workload == "serve-burst")
        workload = runServeBurst;
    else
        return usage(argv[0]);

    Tracer tracer(run.traced);
    Outcome outcome;
    try {
        outcome = workload(run, tracer);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     run.workload.c_str(), error.what());
        return 1;
    }

    // Every run reports the same metric set: a layer a workload does
    // not exercise reads 0.
    MetricMap metrics;
    const auto &wanted = run.traced ? layerMetricUnits() : kEndToEnd;
    const MetricMap &measured =
        run.traced ? outcome.layers : outcome.endToEnd;
    for (const auto &[name, unit] : wanted) {
        const auto it = measured.find(name);
        if (it == measured.end() && !run.traced)
            outcome.violations.push_back("missing metric " + name);
        Metric metric =
            it == measured.end() ? Metric{0.0, unit} : it->second;
        if (metric.unit != unit || !std::isfinite(metric.value))
            outcome.violations.push_back("bad metric " + name);
        if (!std::isfinite(metric.value))
            metric.value = 0.0;
        metrics[name] = metric;
    }
    for (const auto &[name, metric] : measured)
        if (metrics.find(name) == metrics.end())
            outcome.violations.push_back("undeclared metric " + name);

    const std::string origin = provenance(run);
    std::printf("# provenance %s\n", origin.c_str());
    std::printf("# digest %s seed=%llu %s\n", run.workload.c_str(),
                static_cast<unsigned long long>(run.seed),
                outcome.digest.c_str());
    printMetrics("report", outcome.report);
    if (run.traced && !run.traceOut.empty()) {
        if (tracer.writeChrome(run.traceOut, origin))
            std::printf("# chrome trace %s\n", run.traceOut.c_str());
        else
            outcome.violations.push_back("cannot write " + run.traceOut);
    }
    for (const std::string &violation : outcome.violations)
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     violation.c_str());

    const bool correct = outcome.violations.empty();
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(outcome.attempted);
    json += ", \"failed\": " + std::to_string(outcome.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, unit] : wanted) {
        const Metric &metric = metrics[name];
        json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + number(metric.value) + ", \"unit\": \"" +
            metric.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
