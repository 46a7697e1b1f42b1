/**
 * @file
 * Service load benchmark (docs/SERVICE.md): drives the multi-robot
 * localization service with an open-loop arrival process over a mixed
 * KITTI-like / EuRoC-like session mix and reports throughput
 * (sessions/sec on the simulated timeline) plus p50/p95/p99 frame
 * latency. The percentiles are read back *through the telemetry
 * registry* -- approxPercentile over the `service.frame_latency_ms`
 * histogram -- so the benchmark exercises the same observability path
 * the CI load-smoke step and production dashboards would, with the
 * exact trace-derived percentiles printed alongside as a cross-check.
 *
 * The run's timeline is checked with service::validateTimeline; a
 * violation (a double-booked slot, a window queued while a slot idled,
 * a session served out of order) exits 1 after the report is written.
 *
 * SLO verdicts (docs/OBSERVABILITY.md): `--slo <spec>` installs a
 * service-level-objective spec (default: a smoke spec) that the
 * service evaluates on the simulated timeline; verdicts print alongside
 * the percentiles, export as `slo.*` telemetry for
 * tools/archytas_slo_report.py, and surface as `slo_pass` /
 * `slo_violations` harness metrics. `--flight-dump <dir>` dumps every
 * session's flight-recorder ring as postmortem bundles at the end of
 * the run.
 *
 * Arguments: `--sessions <n>` and `--duration <s>` scale the load;
 * remaining arguments (`--json <path>`, `--telemetry-out <dir>`) go to
 * the shared bench harness.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "service/service.hh"

namespace {

using namespace archytas;

constexpr std::size_t kAcceleratorSlots = 2;

struct LoadOptions
{
    std::size_t sessions = 8;
    double duration_s = 6.0;   //!< Per-session sequence length.
    /** Smoke-test objectives: a healthy run's windowed p99 is about
     *  5 ms, so 50 ms passes with margin while a scheduler that queues
     *  windows behind future bookings (hundreds of ms) fails. */
    std::string slo = "p99_ms=50,fallback=0.9,divergence=0.5,"
                      "reject=0.5,window=64";
    std::string flight_dump;   //!< Postmortem bundle dir; empty = off.
};

/**
 * Builds the session mix: alternating KITTI-like and EuRoC-like
 * sequences with per-session seeds, arriving open-loop with
 * exponentially distributed inter-arrival gaps (mean 0.5 s) drawn from
 * a fixed-seed stream.
 */
std::vector<service::SessionConfig>
makeSessionMix(const LoadOptions &load)
{
    Rng arrivals(2021);
    std::vector<service::SessionConfig> mix;
    mix.reserve(load.sessions);
    double arrival_s = 0.0;
    for (std::size_t i = 0; i < load.sessions; ++i) {
        service::SessionConfig cfg;
        cfg.euroc_like = (i % 2) == 1;
        cfg.sequence = cfg.euroc_like
                           ? bench::eurocConfig(load.duration_s)
                           : bench::kittiConfig(load.duration_s);
        cfg.sequence.seed += i;   //!< Distinct trace per robot.
        cfg.estimator = bench::estimatorOptions();
        cfg.arrival_s = arrival_s;
        // Inverse-transform exponential draw: -mean * ln(U).
        const double u = arrivals.uniform(1e-12, 1.0);
        arrival_s += -0.5 * std::log(u);
        mix.push_back(cfg);
    }
    return mix;
}

/** Runs one full service load and returns its report. */
service::ServiceReport
runLoad(const LoadOptions &load)
{
    service::ServiceOptions options;
    options.accelerator_slots = kAcceleratorSlots;
    options.max_active_sessions = 4;
    options.slo = service::SloSpec::parse(load.slo);
    options.flight_dump_dir = load.flight_dump;
    service::LocalizationService svc(options);
    for (const service::SessionConfig &cfg : makeSessionMix(load))
        svc.addSession(cfg);
    return svc.run();
}

/** Reads the frame-latency percentile back from the telemetry registry. */
double
registryPercentileMs(const telemetry::MetricsSnapshot &snapshot, double p)
{
    for (const telemetry::HistogramValue &h : snapshot.histograms) {
        if (h.name == "service.frame_latency_ms")
            return telemetry::approxPercentile(h, p);
    }
    return 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip the load-shaping arguments before handing argv to the
    // shared harness (it fatals on anything it does not know).
    LoadOptions load;
    std::vector<char *> passthrough = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--sessions" && i + 1 < argc) {
            load.sessions = static_cast<std::size_t>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--duration" && i + 1 < argc) {
            load.duration_s = std::strtod(argv[++i], nullptr);
        } else if (arg == "--slo" && i + 1 < argc) {
            load.slo = argv[++i];
        } else if (arg == "--flight-dump" && i + 1 < argc) {
            load.flight_dump = argv[++i];
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    ARCHYTAS_ASSERT(load.sessions > 0 && load.duration_s > 0,
                    "bad load options");

    bench::BenchHarness harness(static_cast<int>(passthrough.size()),
                                passthrough.data());
    telemetry::setEnabled(true);

    service::ServiceReport report;
    harness.run(
        "service_load", [&]() { report = runLoad(load); },
        /*reps=*/3, /*warmup=*/1);

    // Registry-sourced percentiles (the acceptance path), with the
    // exact trace-derived values as a sanity cross-check.
    const telemetry::MetricsSnapshot snapshot =
        telemetry::snapshotMetrics();
    const double p50 = registryPercentileMs(snapshot, 50);
    const double p95 = registryPercentileMs(snapshot, 95);
    const double p99 = registryPercentileMs(snapshot, 99);
    harness.metric("sessions_per_second", report.sessionsPerSecond());
    harness.metric("frame_latency_p50_ms", p50);
    harness.metric("frame_latency_p95_ms", p95);
    harness.metric("frame_latency_p99_ms", p99);
    harness.metric("frame_latency_p50_exact_ms",
                   report.latencyPercentileMs(50));
    harness.metric("frame_latency_p99_exact_ms",
                   report.latencyPercentileMs(99));
    harness.metric("makespan_s", report.makespan_s);
    harness.metric("frames_traced",
                   static_cast<double>(report.traces.size()));
    double hw_frames = 0;
    for (const service::FrameTrace &t : report.traces)
        hw_frames += t.hw_solved ? 1.0 : 0.0;
    harness.metric("hw_solve_fraction",
                   report.traces.empty()
                       ? 0.0
                       : hw_frames /
                             static_cast<double>(report.traces.size()));

    // SLO verdicts: evaluated by the service on the simulated timeline
    // (bit-identical at any thread count), printed here and exported as
    // harness metrics so bench_compare / the CI slo-check gate see them.
    std::uint64_t slo_violations = 0;
    for (const service::SloVerdict &v : report.slo) {
        slo_violations += v.violations;
        std::printf("SLO %-16s bound %-10g worst %-12g %s "
                    "(%llu/%llu windows violated)\n",
                    v.objective.c_str(), v.bound, v.worst,
                    v.pass() ? "PASS" : "FAIL",
                    static_cast<unsigned long long>(v.violations),
                    static_cast<unsigned long long>(v.evaluations));
    }
    harness.metric("slo_pass", report.sloPass() ? 1.0 : 0.0);
    harness.metric("slo_violations",
                   static_cast<double>(slo_violations));

    std::printf("%s\n",
                bench::paperVsMeasured(
                    "multi-robot sharing", "one accelerator per robot",
                    std::to_string(load.sessions) + " sessions on 2 slots")
                    .c_str());
    const int status = harness.finish(
        "service load (" + std::to_string(load.sessions) + " sessions, " +
        std::to_string(load.duration_s) + " s each)");
    if (const auto violation =
            service::validateTimeline(report, kAcceleratorSlots)) {
        std::fprintf(stderr, "invalid service timeline: %s\n",
                     violation->c_str());
        return 1;
    }
    return status;
}
