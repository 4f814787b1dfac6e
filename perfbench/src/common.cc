#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sys/resource.h>

#include "bench.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
Digest::add(std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        state_ ^= (value >> (8 * byte)) & 0xffU;
        state_ *= 1099511628211ULL;
    }
}

void
Digest::add(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    add(bits);
}

std::string
Digest::hex() const
{
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(state_));
    return text;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
}

Tracer::Scope
Tracer::span(const std::string &name, std::int64_t ref)
{
    if (!enabled_)
        return Scope(*this, 0);
    Span span;
    span.id = spans_.size() + 1;
    span.parent = open_.empty() ? 0 : open_.back();
    span.name = name;
    span.ref = ref;
    span.start = secondsSince(origin_);
    spans_.push_back(std::move(span));
    open_.push_back(spans_.back().id);
    return Scope(*this, spans_.back().id);
}

void
Tracer::close(std::uint64_t id)
{
    if (id == 0)
        return;
    spans_[id - 1].end = secondsSince(origin_);
    // Scopes close innermost first, so id is the top of the stack.
    open_.pop_back();
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &span : spans_)
        if (span.name == name)
            sum += span.duration();
    return sum;
}

std::uint64_t
Tracer::count(const std::string &name) const
{
    std::uint64_t n = 0;
    for (const Span &span : spans_)
        if (span.name == name)
            ++n;
    return n;
}

double
Tracer::foldedSeconds(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &span : spans_)
        if (auto it = span.aggregates.find(name);
            it != span.aggregates.end())
            sum += it->second.first;
    return sum;
}

std::uint64_t
Tracer::foldedCalls(const std::string &name) const
{
    std::uint64_t n = 0;
    for (const Span &span : spans_)
        if (auto it = span.aggregates.find(name);
            it != span.aggregates.end())
            n += it->second.second;
    return n;
}

std::map<std::string, double>
Tracer::selfTimes(const std::string &root_name) const
{
    // Children time per span id; spans are stored in begin order, so
    // a parent always precedes its children.
    std::vector<double> covered(spans_.size() + 1, 0.0);
    for (const Span &span : spans_) {
        if (span.parent != 0)
            covered[span.parent] += span.duration();
        for (const auto &[name, folded] : span.aggregates)
            covered[span.id] += folded.first;
    }
    std::vector<bool> inside(spans_.size() + 1, false);
    std::map<std::string, double> self;
    for (const Span &span : spans_) {
        const bool is_root = span.parent == 0 && span.name == root_name;
        if (!is_root && (span.parent == 0 || !inside[span.parent]))
            continue;
        inside[span.id] = true;
        self[span.name] += span.duration() - covered[span.id];
        for (const auto &[name, folded] : span.aggregates)
            self[name] += folded.first;
    }
    return self;
}

namespace
{

/** Minimal JSON string quoting (names here are plain ASCII). */
std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

bool
Tracer::writeChrome(const std::string &path,
                    const std::string &metadata) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata
       << ",\"traceEvents\":[\n";
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
          "\"args\":{\"name\":\"benchmark\"}}";
    char number[64];
    const auto micros = [&number](double seconds) {
        std::snprintf(number, sizeof(number), "%.3f", seconds * 1e6);
        return std::string(number);
    };
    for (const Span &span : spans_) {
        os << ",\n{\"name\":" << quoted(span.name)
           << ",\"cat\":\"" << span.name.substr(0, span.name.find('.'))
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << micros(span.start) << ",\"dur\":"
           << micros(span.duration()) << ",\"args\":{\"id\":" << span.id
           << ",\"parent\":" << span.parent << ",\"ref\":" << span.ref;
        for (const auto &[name, folded] : span.aggregates)
            os << "," << quoted(name + ".seconds") << ":"
               << folded.first << "," << quoted(name + ".calls") << ":"
               << folded.second;
        os << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

void
addTimedAccounting(Outcome &outcome, const Tracer &tracer,
                   double untraced_ops_per_s, double traced_ops_per_s)
{
    std::map<std::string, double> self = tracer.selfTimes("timed");
    outcome.layers["bench.timed_s"] = {tracer.total("timed"), "s"};
    outcome.layers["bench.remainder_s"] = {self["timed"], "s"};
    self.erase("timed");
    for (const auto &[name, seconds] : self)
        outcome.report["self." + name] = {seconds, "s"};
    outcome.layers["bench.trace_overhead"] = {
        traced_ops_per_s > 0.0 ? untraced_ops_per_s / traced_ops_per_s
                               : 0.0,
        "ratio"};
    outcome.report["bench.untraced_host_ops_per_s"] = {
        untraced_ops_per_s, "1/s"};
    outcome.report["bench.traced_host_ops_per_s"] = {traced_ops_per_s,
                                                     "1/s"};
}

const std::vector<std::pair<std::string, std::string>> &
layerMetricUnits()
{
    static const std::vector<std::pair<std::string, std::string>> units =
        {
            {"xclass.trace_build_s", "s"},
            {"xclass.hotness_s", "s"},
            {"xclass.hotness_calls", "count"},
            {"xclass.draw_s", "s"},
            {"xclass.draw_rows", "count"},
            {"xclass.model_synth_s", "s"},
            {"xclass.screen_ms_per_query", "ms"},
            {"xclass.predict_ms_per_query", "ms"},
            {"xclass.screener_only_ms_per_query", "ms"},
            {"xclass.recall_at_5", "fraction"},
            {"numeric.int4_score_ms_per_query", "ms"},
            {"numeric.rerank_ms_per_query", "ms"},
            {"numeric.rerank_rows", "count"},
            {"layout.build_s", "s"},
            {"accel.pipeline_s", "s"},
            {"accel.int4_stage_ms", "ms"},
            {"accel.fp32_fetch_ms", "ms"},
            {"accel.fp32_compute_ms", "ms"},
            {"accel.cache_hit_rate", "fraction"},
            {"ssdsim.fp32_pages_read", "count"},
            {"ssdsim.channel_skew", "ratio"},
            {"ssdsim.spill_pages_written", "count"},
            {"ssdsim.spill_pages_read", "count"},
            {"ssdsim.runs_spilled", "count"},
            {"ecssd.system_build_s", "s"},
            {"ecssd.server_build_s", "s"},
            {"ecssd.serve_s", "s"},
            {"ecssd.server_self_s", "s"},
            {"ecssd.deploy_s", "s"},
            {"ecssd.queue_depth_hwm", "count"},
            {"ecssd.shed", "count"},
            {"ecssd.served_full", "count"},
            {"ecssd.served_screener_only", "count"},
            {"ecssd.brownout_transitions", "count"},
            {"sim.traffic_gen_s", "s"},
            {"bench.timed_s", "s"},
            {"bench.remainder_s", "s"},
            {"bench.trace_overhead", "ratio"},
        };
    return units;
}

} // namespace perfbench
