/**
 * @file
 * Shared machinery of the repository benchmark (perfbench/README.md):
 * command-line options, the metric catalogue every workload reports,
 * output checks, percentiles, process resource probes, the allocation
 * counter, and the in-memory span recorder used by the traced run.
 *
 * Everything here is single-threaded: spans are opened and closed by
 * the benchmark's own code on the main thread, around calls into the
 * library's public entry points.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "slam/estimator.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since t0 on the host clock. */
double msSince(Clock::time_point t0);

/**
 * Threads the pool is pinned to on every workload (the caller plus one
 * worker). Fewer than the host's cores: on a shared 4-vCPU host, 4
 * threads ran kitti_single slower than 1 and with a spread that tracked
 * the neighbours' load (README.md, "Threads").
 */
constexpr std::size_t kThreads = 2;

/** Command-line options (see main.cc). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;   //!< Host time the timed region runs for.
    bool trace = false;      //!< Traced run: per-layer metrics.
    std::string out_dir;     //!< Where the traced run writes its files.
};

/** Independent, reproducible sub-seed number `stream` of seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/** Nearest-rank percentile (p in [0, 100]); 0 for no values. */
double percentile(std::vector<double> values, double p);
double mean(const std::vector<double> &values);

/**
 * Per-frame host time over repeats of identical work (the same route or
 * trace, checked bit for bit): best[i] becomes the fastest time frame i
 * took in any repeat. A slow phase of the host spoils single repeats,
 * while the best time tracks what the frame itself costs.
 */
void keepFastest(std::vector<double> &best, const std::vector<double> &times);

/** Root mean square; 0 for no values. */
double rms(const std::vector<double> &values);

/** True when the pose estimate holds only finite numbers. */
bool finitePose(const archytas::slam::Pose &pose);

/**
 * Output checks. Every check is one attempted operation; a failed one
 * is counted and its first few messages go to stderr.
 */
class Checks
{
  public:
    void expect(bool ok, const std::string &what);
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * The metric catalogue. Every workload reports every metric of the
 * catalogue for its mode (end-to-end or per-layer); a per-layer metric
 * of a layer the workload never calls stays 0. The names, units and
 * clocks are documented in perfbench/README.md and listed in
 * BENCHMARK.json.
 */
class Report
{
  public:
    explicit Report(bool trace);

    /** Sets a metric of the active mode; unknown names abort. */
    void set(std::string_view name, double value);

    /** One JSON object: correct, attempted, failed, metrics. */
    std::string json(const Checks &checks) const;

    /** Names of end-to-end metrics never set (must be empty). */
    std::vector<std::string> unset() const;

  private:
    struct Entry
    {
        const char *name;
        const char *unit;
        double value = 0.0;
        bool set = false;
    };
    bool trace_;
    std::vector<Entry> entries_;
};

/** Process CPU seconds (user + system) so far. */
double cpuSeconds();
/**
 * Peak resident set size in MB since the last resetPeakRss() (Linux
 * VmHWM), or since process start where the reset is unavailable.
 */
double peakRssMb();
/** Returns freed heap to the OS and restarts the peak-RSS window at the
 *  current resident size. */
void resetPeakRss();
/** Heap allocations made through operator new so far (all threads). */
std::uint64_t allocations();

/** 64-bit FNV-1a over the bit patterns of values; for ledger checks. */
class BitHash
{
  public:
    void add(double value);
    void add(std::uint64_t value);
    void add(const archytas::slam::Vec3 &v);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

/** One recorded span: [start, end) on the host clock. */
struct Span
{
    const char *name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;          //!< Index of the enclosing span, -1 = root.
    std::uint64_t frame = 0;  //!< Frame id the span belongs to.

    double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/** Calls, total and self time of one span name. */
struct LayerTime
{
    std::string name;
    std::size_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};

/**
 * In-memory span recorder. Disabled, it records nothing; the traced
 * run enables it around the passes it measures and writes the spans
 * out when the workload ends.
 */
class Tracer
{
  public:
    Tracer();

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }
    /** Frame id stamped on spans opened from now on. */
    void setFrame(std::uint64_t frame) { frame_ = frame; }

    int open(const char *name);
    void close(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration (ms) of every span named name. */
    std::vector<double> durationsMs(std::string_view name) const;

    /** Summed duration (ms) of every span named name. */
    double totalMs(std::string_view name) const;

    /** Per-name calls, total and self time (self = duration minus the
     *  time covered by direct children). */
    std::vector<LayerTime> layerTimes() const;

    /** Chrome trace-event JSON (chrome://tracing, Perfetto). */
    bool writeChromeTrace(const std::string &path) const;
    /** Per-layer self-time table as JSON. */
    bool writeLayerTimes(const std::string &path) const;

  private:
    bool enabled_ = false;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    int current_ = -1;
    std::uint64_t frame_ = 0;
};

/**
 * Host time of the optimized frames recorded under slam.frame spans
 * (frames with a slam.solve child): frame time without the replay,
 * solve time, and the rest (ingest, marginalization, controller).
 */
struct FrameBreakdown
{
    std::vector<double> frame_ms;
    std::vector<double> solve_ms;
    std::vector<double> non_solve_ms;
};
FrameBreakdown frameBreakdown(const Tracer &tracer);

/** RAII span; free when the tracer is disabled. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const char *name)
        : tracer_(tracer), index_(tracer.enabled() ? tracer.open(name) : -1)
    {
    }
    ~SpanScope()
    {
        if (index_ >= 0)
            tracer_.close(index_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer_;
    int index_;
};

/** Value of a counter in the library's telemetry registry (0 if absent). */
double telemetryCounter(std::string_view name);

/**
 * Writes the tracer's spans, their self-time table and the library's
 * own telemetry export under out_dir. False on any write failure.
 */
bool exportTrace(const Tracer &tracer, const std::string &out_dir);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
