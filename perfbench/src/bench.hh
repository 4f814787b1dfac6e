/**
 * @file
 * Shared pieces of the repository benchmark: run parameters, the
 * metric and outcome records every workload fills, a digest of
 * simulated outputs, and the wall-clock span tracer.
 *
 * The benchmark drives the library only through its public entry
 * points.  Host time is measured from outside, around each call the
 * benchmark makes into a layer; simulated (device) time is read from
 * the results those calls return.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Median of @p values (mean of the middle pair for even counts). */
double median(std::vector<double> values);

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/**
 * Host-compute worker threads every workload runs with.  One: with
 * more, sim::ThreadPool::parallelFor can call a retired job's body (a
 * worker that read body_ and was delayed before claiming a chunk then
 * claims chunks of the next job), which kills the serve workloads
 * with SIGSEGV in about one run in twenty.  Raise this once the pool
 * waits for every worker that picked up a job before retiring it.
 */
constexpr unsigned kThreads = 1;

/** Parameters of one benchmark run. */
struct RunSpec
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Sizes the timed phase: each workload runs a fixed amount of
     *  work per second asked for, so the same arguments always give
     *  the same simulated results. */
    unsigned seconds = 10;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool traced = false;
    /** Self-test scale: every workload shrunk to run in seconds. */
    bool tiny = false;
    /** Chrome trace-event output of a traced run ("" = none). */
    std::string traceOut;
};

/** One reported number with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/** FNV-1a over the bit patterns of simulated outputs. */
class Digest
{
  public:
    void add(std::uint64_t value);
    void add(double value);
    std::string hex() const;

  private:
    std::uint64_t state_ = 14695981039346656037ULL;
};

/** Everything one workload run produces. */
struct Outcome
{
    /** Gated end-to-end metrics (untraced run). */
    MetricMap endToEnd;
    /** Per-layer metrics (traced run). */
    MetricMap layers;
    /** Every end-to-end figure the workload defines, under its own
     *  name, printed beside the result for humans. */
    MetricMap report;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Digest of the simulated outputs of the timed phase. */
    std::string digest;
    /** Correctness violations; any entry fails the run. */
    std::vector<std::string> violations;

    /** Record a violation named @p what unless @p ok holds. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            violations.push_back(what);
    }

    /**
     * Take over the violations of the untraced pass @p untraced of the
     * same timed phase, and require its simulated outputs to match
     * (violation @p what otherwise).
     */
    void
    matchUntraced(const Outcome &untraced, const std::string &what)
    {
        violations.insert(violations.end(), untraced.violations.begin(),
                          untraced.violations.end());
        check(digest == untraced.digest, what);
    }
};

/**
 * Wall-clock span recorder.  Spans nest by scope on the calling
 * thread; each has a name, start, end, parent and the batch, request
 * or query id it belongs to.  High-frequency callbacks are folded
 * into per-parent aggregates (total time and call count) instead of
 * one span per call.  A disabled tracer records nothing and costs one
 * branch per call.
 */
class Tracer
{
  public:
    struct Span
    {
        std::uint64_t id = 0;
        /** Enclosing span id; 0 for a root. */
        std::uint64_t parent = 0;
        std::string name;
        double start = 0.0;
        double end = 0.0;
        /** Batch / request / query id; -1 when none. */
        std::int64_t ref = -1;
        /** Folded callbacks under this span: name -> (seconds, calls). */
        std::map<std::string, std::pair<double, std::uint64_t>>
            aggregates;

        double duration() const { return end - start; }
    };

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::uint64_t id)
            : tracer_(tracer), id_(id)
        {
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope() { tracer_.close(id_); }

        /** The span's id; 0 when the tracer is disabled. */
        std::uint64_t id() const { return id_; }

      private:
        Tracer &tracer_;
        std::uint64_t id_;
    };

    explicit Tracer(bool enabled);

    /** Open a span under the innermost open one. */
    [[nodiscard]] Scope span(const std::string &name,
                             std::int64_t ref = -1);

    /** Fold @p calls callbacks named @p name, taking @p seconds in
     *  total, into span @p id (no-op for id 0). */
    void
    fold(std::uint64_t id, const char *name, double seconds,
         std::uint64_t calls)
    {
        if (id != 0) {
            auto &slot = spans_[id - 1].aggregates[name];
            slot.first += seconds;
            slot.second += calls;
        }
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Total duration of every span named @p name. */
    double total(const std::string &name) const;

    /** Number of spans named @p name. */
    std::uint64_t count(const std::string &name) const;

    /** Total folded time / calls of @p name across all spans. */
    double foldedSeconds(const std::string &name) const;
    std::uint64_t foldedCalls(const std::string &name) const;

    /**
     * Self time of every layer under the root span @p root_name:
     * each descendant span's duration minus what its children and
     * folded callbacks cover, summed per name (folded callbacks are
     * layers of their own).  The entry under @p root_name is the
     * root's own self time: the remainder no layer accounts for.
     */
    std::map<std::string, double> selfTimes(
        const std::string &root_name) const;

    /**
     * Write every span as Chrome trace-event JSON (complete "X"
     * events, microseconds from the first span), loadable in
     * Perfetto or chrome://tracing.  @p metadata is a JSON object
     * stored under "metadata".
     */
    bool writeChrome(const std::string &path,
                     const std::string &metadata) const;

  private:
    void close(std::uint64_t id);

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::uint64_t> open_;
};

/** Run one workload; dispatches on spec.workload. */
Outcome runTrace10m(const RunSpec &spec, Tracer &tracer);
Outcome runServeSteady(const RunSpec &spec, Tracer &tracer);
Outcome runServeBurst(const RunSpec &spec, Tracer &tracer);
Outcome runDeploy2m(const RunSpec &spec, Tracer &tracer);

/**
 * Fill the timed-phase accounting every traced run reports: each
 * layer's self time under the "timed" root, the unattributed
 * remainder, and the tracing overhead (untraced over traced host
 * throughput).
 */
void addTimedAccounting(Outcome &outcome, const Tracer &tracer,
                        double untraced_ops_per_s,
                        double traced_ops_per_s);

/** Every per-layer metric name with its unit, in output order. */
const std::vector<std::pair<std::string, std::string>> &
layerMetricUnits();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
