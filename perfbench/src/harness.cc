#include "harness.hh"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/telemetry.hh"

namespace perfbench {

namespace {

struct CatalogueEntry
{
    const char *name;
    const char *unit;
};

// End-to-end metrics (--trace 0). Host-clock: setup_s, frame_host_ms_*,
// frames_per_s, pass_s, peak_rss_mb. Simulated clock: sim_*,
// synth_power_w (a model output). See README.md for each workload's
// definition.
const CatalogueEntry kEndToEnd[] = {
    {"setup_s", "s"},
    {"frame_host_ms_p50", "ms"},
    {"frame_host_ms_p80", "ms"},
    {"frames_per_s", "1/s"},
    {"pass_s", "s"},
    {"sim_window_ms_p50", "ms"},
    {"sim_window_ms_p95", "ms"},
    {"sim_frame_ms_p50", "ms"},
    {"sim_frame_ms_p95", "ms"},
    {"sim_energy_mj_per_window", "mJ"},
    {"synth_power_w", "W"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics (--trace 1). A layer the workload never calls
// reports 0. README.md maps each one to the end-to-end metric it
// should move.
const CatalogueEntry kPerLayer[] = {
    {"dataset.generate_ms", "ms"},
    {"slam.frame_ms", "ms"},
    {"slam.solve_ms", "ms"},
    {"slam.non_solve_ms", "ms"},
    {"slam.lm_iterations", "count"},
    {"slam.step_rejections", "count"},
    {"slam.step_accept_ratio", "ratio"},
    {"slam.rmse_m", "m"},
    {"slam.build_ms", "ms"},
    {"slam.cost_ms", "ms"},
    {"linalg.solve_blocked_ms", "ms"},
    {"linalg.flops_per_window", "flop"},
    {"hw.execute_solve_ms", "ms"},
    {"hw.cycles.jacobian", "cycles"},
    {"hw.cycles.dschur", "cycles"},
    {"hw.cycles.mschur", "cycles"},
    {"hw.cycles.cholesky", "cycles"},
    {"hw.cycles.bsub", "cycles"},
    {"hw.cycles.marg", "cycles"},
    {"hw.cycles.total", "cycles"},
    {"hw.link_words", "words"},
    {"hw.link_ms", "ms"},
    {"service.run_ms", "ms"},
    {"service.slot_wait_ms_p50", "ms"},
    {"service.slot_wait_ms_p95", "ms"},
    {"service.backlog_ms_p95", "ms"},
    {"service.link_ms_mean", "ms"},
    {"service.compute_ms_mean", "ms"},
    {"service.admission_wait_ms_mean", "ms"},
    {"service.makespan_s", "s"},
    {"synth.min_latency_ms", "ms"},
    {"synth.min_power_ms", "ms"},
    {"synth.pareto_ms", "ms"},
    {"synth.evaluations", "count"},
    {"mdfg.build_ms", "ms"},
    {"runtime.profile_ms", "ms"},
    {"runtime.prepare_ms", "ms"},
    {"design.estimator_frames", "count"},
    {"common.cpu_util", "ratio"},
    {"common.allocs_per_frame", "count"},
    {"trace_overhead", "ratio"},
};

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Creates dir (and parents); false on failure. */
bool
makeDirs(const std::string &dir)
{
    for (std::size_t pos = 0; pos != std::string::npos;) {
        pos = dir.find('/', pos + 1);
        const std::string prefix = dir.substr(0, pos);
        if (prefix.empty())
            continue;
        if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
            return false;
    }
    return true;
}

} // namespace

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    // The splitmix64 finalizer over (seed, stream), so that nearby seeds
    // and streams give unrelated sub-seeds.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 *
                                  static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

void
keepFastest(std::vector<double> &best, const std::vector<double> &times)
{
    if (best.empty())
        best = times;
    for (std::size_t i = 0; i < best.size() && i < times.size(); ++i)
        best[i] = std::min(best[i], times[i]);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
rms(const std::vector<double> &values)
{
    double sum = 0.0;
    for (const double v : values)
        sum += v * v;
    return values.empty()
               ? 0.0
               : std::sqrt(sum / static_cast<double>(values.size()));
}

bool
finitePose(const archytas::slam::Pose &pose)
{
    return std::isfinite(pose.p.x) && std::isfinite(pose.p.y) &&
           std::isfinite(pose.p.z) && std::isfinite(pose.q.w) &&
           std::isfinite(pose.q.x) && std::isfinite(pose.q.y) &&
           std::isfinite(pose.q.z);
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    if (++failed_ <= 20)
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

Report::Report(bool trace) : trace_(trace)
{
    if (trace)
        for (const auto &e : kPerLayer)
            entries_.push_back({e.name, e.unit});
    else
        for (const auto &e : kEndToEnd)
            entries_.push_back({e.name, e.unit});
}

void
Report::set(std::string_view name, double value)
{
    for (Entry &e : entries_) {
        if (name == e.name) {
            e.value = value;
            e.set = true;
            return;
        }
    }
    // Metrics of the other mode are simply not reported.
    const auto known = [&](const auto &catalogue) {
        for (const auto &e : catalogue)
            if (name == e.name)
                return true;
        return false;
    };
    if (known(kEndToEnd) || known(kPerLayer))
        return;
    std::fprintf(stderr, "unknown metric %.*s\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
}

std::vector<std::string>
Report::unset() const
{
    std::vector<std::string> names;
    if (!trace_)
        for (const Entry &e : entries_)
            if (!e.set)
                names.emplace_back(e.name);
    return names;
}

std::string
Report::json(const Checks &checks) const
{
    std::string out = "{\"correct\": ";
    out += checks.failed() == 0 && unset().empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(checks.attempted());
    out += ", \"failed\": " + std::to_string(checks.failed());
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        out += (i ? ", " : "") + jsonString(e.name) + ": {\"value\": " +
               jsonNumber(e.value) + ", \"unit\": " + jsonString(e.unit) +
               "}";
    }
    return out + "}}";
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;   // KiB -> MiB
}

void
resetPeakRss()
{
    // Hand set-up's freed heap back first, so the window starts from what
    // the workload holds, not from what glibc's per-thread arenas kept.
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

void
BitHash::add(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (value >> (8 * i)) & 0xFF;
        h_ *= 1099511628211ULL;
    }
}

void
BitHash::add(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
}

void
BitHash::add(const archytas::slam::Vec3 &v)
{
    add(v.x);
    add(v.y);
    add(v.z);
}

Tracer::Tracer() : epoch_(Clock::now()) {}

int
Tracer::open(const char *name)
{
    Span span;
    span.name = name;
    span.parent = current_;
    span.frame = frame_;
    span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - epoch_)
                        .count();
    spans_.push_back(span);
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void
Tracer::close(int index)
{
    Span &span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
    current_ = span.parent;
}

std::vector<double>
Tracer::durationsMs(std::string_view name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(s.ms());
    return out;
}

FrameBreakdown
frameBreakdown(const Tracer &tracer)
{
    const std::vector<Span> &spans = tracer.spans();
    std::vector<double> solve(spans.size(), 0.0);
    std::vector<double> replay(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent < 0)
            continue;
        const auto parent = static_cast<std::size_t>(s.parent);
        if (std::string_view(s.name) == "slam.solve")
            solve[parent] += s.ms();
        else if (std::string_view(s.name) == "replay.window")
            replay[parent] += s.ms();
    }
    FrameBreakdown out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (std::string_view(spans[i].name) != "slam.frame" ||
            solve[i] == 0.0)
            continue;
        const double frame = spans[i].ms() - replay[i];
        out.frame_ms.push_back(frame);
        out.solve_ms.push_back(solve[i]);
        out.non_solve_ms.push_back(frame - solve[i]);
    }
    return out;
}

double
Tracer::totalMs(std::string_view name) const
{
    double total = 0.0;
    for (const Span &s : spans_)
        if (name == s.name)
            total += s.ms();
    return total;
}

std::vector<LayerTime>
Tracer::layerTimes() const
{
    std::vector<double> children(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)] += s.ms();
    std::vector<LayerTime> layers;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto it = std::find_if(layers.begin(), layers.end(),
                               [&](const LayerTime &l) {
                                   return l.name == s.name;
                               });
        if (it == layers.end()) {
            layers.push_back({s.name, 0, 0.0, 0.0});
            it = layers.end() - 1;
        }
        ++it->calls;
        it->total_ms += s.ms();
        it->self_ms += s.ms() - children[i];
    }
    std::sort(layers.begin(), layers.end(),
              [](const LayerTime &a, const LayerTime &b) {
                  return a.self_ms > b.self_ms;
              });
    return layers;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "") << "{\"name\": " << jsonString(s.name)
            << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
               "\"tid\": 1, \"ts\": "
            << jsonNumber(static_cast<double>(s.start_ns) * 1e-3)
            << ", \"dur\": "
            << jsonNumber(static_cast<double>(s.end_ns - s.start_ns) *
                          1e-3)
            << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
            << ", \"frame\": " << s.frame << "}}";
    }
    out << "\n]}\n";
    return out.good();
}

bool
Tracer::writeLayerTimes(const std::string &path) const
{
    std::ofstream out(path);
    out << "[\n";
    const auto layers = layerTimes();
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const LayerTime &l = layers[i];
        out << (i ? ",\n" : "") << "{\"name\": " << jsonString(l.name)
            << ", \"calls\": " << l.calls
            << ", \"total_ms\": " << jsonNumber(l.total_ms)
            << ", \"self_ms\": " << jsonNumber(l.self_ms) << "}";
    }
    out << "\n]\n";
    return out.good();
}

double
telemetryCounter(std::string_view name)
{
    for (const auto &c : archytas::telemetry::snapshotMetrics().counters)
        if (c.name == name)
            return static_cast<double>(c.value);
    return 0.0;
}

bool
exportTrace(const Tracer &tracer, const std::string &out_dir)
{
    if (!makeDirs(out_dir))
        return false;
    std::printf("per-layer self time (benchmark spans):\n");
    for (const LayerTime &l : tracer.layerTimes())
        std::printf("  %-24s calls %7zu  total %10.1f ms  self %10.1f ms\n",
                    l.name.c_str(), l.calls, l.total_ms, l.self_ms);
    return tracer.writeChromeTrace(out_dir + "/perfbench_trace.json") &&
           tracer.writeLayerTimes(out_dir + "/self_time.json") &&
           archytas::telemetry::exportAll(out_dir + "/telemetry");
}

} // namespace perfbench
