/**
 * @file
 * In-process SLO engine (docs/OBSERVABILITY.md): a small declarative
 * spec of service-level objectives -- frame-latency p99 bound,
 * software-fallback rate, divergence rate, admission-rejection rate --
 * evaluated over sliding windows *inside the service's event pass*, on
 * simulated-timeline numbers only.
 *
 * Determinism contract: every input the engine sees (frame latencies,
 * fallback/divergence flags, admission decisions) is fixed by the
 * numeric pass and placed by the serial event pass, so verdicts
 * are bit-identical at any ARCHYTAS_THREADS. No wall-clock values are
 * consumed; the `slo.*` gauges are therefore *not* `_ms`-exempt -- they
 * must reproduce exactly (tested by test_service_determinism.cc).
 *
 * Spec format (SloSpec::parse): comma-separated `key=value` pairs --
 * `p99_ms=<bound>` (frame-latency p99, milliseconds),
 * `fallback=<rate>` / `divergence=<rate>` / `reject=<rate>` (fractions
 * in [0,1]), `window=<frames>` (sliding-window length, default 64).
 * Omitted objectives are disabled. Example:
 * `p99_ms=250,fallback=0.10,divergence=0.05,reject=0.25,window=64`.
 */

#ifndef ARCHYTAS_SERVICE_SLO_HH
#define ARCHYTAS_SERVICE_SLO_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace archytas::service {

/** Declarative SLO spec; disabled objectives use their sentinel. */
struct SloSpec
{
    /** Frame-latency p99 bound in ms over the window; <= 0 disables. */
    double frame_p99_ms = 0.0;
    /** Max software-fallback fraction over the window; < 0 disables. */
    double max_fallback_rate = -1.0;
    /** Max diverged-frame fraction over the window; < 0 disables. */
    double max_divergence_rate = -1.0;
    /** Max admission-rejection fraction (whole run); < 0 disables. */
    double max_rejection_rate = -1.0;
    /** Sliding-window length in frames. */
    std::size_t window = 64;

    /** True when at least one objective is enabled. */
    bool any() const;

    /**
     * Parses the `key=value,...` format above into spec; returns false
     * (with a diagnostic in *error when given) on an unknown key or a
     * malformed value, leaving spec partially updated.
     */
    static bool tryParse(const std::string &text, SloSpec &spec,
                         std::string *error = nullptr);
    /** tryParse that dies on malformed input (CLI entry points). */
    static SloSpec parse(const std::string &text);

    /** The spec back in its parse format (round-trips). */
    std::string describe() const;
};

/** Outcome of one objective over the run. */
struct SloVerdict
{
    std::string objective;     //!< "frame_p99_ms", "fallback_rate", ...
    double bound = 0.0;
    double worst = 0.0;        //!< Worst windowed value observed.
    std::uint64_t evaluations = 0;
    std::uint64_t violations = 0;

    bool pass() const { return violations == 0; }
};

/**
 * Evaluates an SloSpec over the service run. Feed it from the serial
 * event pass only (it keeps no locks); read verdicts() once the
 * run completes and publish() them as `slo.*` telemetry.
 */
class SloEngine
{
  public:
    explicit SloEngine(const SloSpec &spec);

    /**
     * One scheduled frame: optimized says whether the frame closed a
     * window (only those carry a latency / fallback sample); latency_ms
     * is the simulated open-loop frame latency; diverged mirrors
     * HealthReport::solver_diverged.
     */
    void recordFrame(bool optimized, double latency_ms, bool hw_solved,
                     bool diverged);

    /** One admission decision (rejected = turned away at arrival). */
    void recordAdmission(bool rejected);

    const SloSpec &spec() const { return spec_; }

    /** Verdicts for every *enabled* objective (empty spec -> empty). */
    std::vector<SloVerdict> verdicts() const;

    /** True when every enabled objective passed so far. */
    bool allPass() const;

    /**
     * Emits the verdicts as telemetry: one `slo.<objective>` gauge per
     * enabled objective (worst windowed value), `slo.evaluations` /
     * `slo.violations` counters, and one `slo.verdict` instant per
     * objective. Call quiescently, after the run.
     */
    void publish() const;

  private:
    void evaluateWindows();

    SloSpec spec_;

    std::deque<double> latencies_;     //!< Optimized frames only.
    std::deque<std::uint8_t> fallbacks_;
    std::deque<std::uint8_t> diverged_;   //!< Every frame.
    std::uint64_t admissions_ = 0;
    std::uint64_t rejections_ = 0;

    struct Objective
    {
        double worst = 0.0;
        std::uint64_t evaluations = 0;
        std::uint64_t violations = 0;

        void
        observe(double value, double bound)
        {
            ++evaluations;
            if (evaluations == 1 || value > worst)
                worst = value;
            if (value > bound)
                ++violations;
        }
    };
    Objective p99_;
    Objective fallback_;
    Objective divergence_;
    Objective rejection_;
};

} // namespace archytas::service

#endif // ARCHYTAS_SERVICE_SLO_HH
