/**
 * @file
 * Workload fleet: service::LocalizationService serves 8 robot sessions,
 * alternating KITTI-like and EuRoC-like, on 2 simulated accelerator
 * slots with at most 4 sessions active. Sessions arrive open loop on the
 * simulated timeline with exponential gaps; on the host the benchmark
 * runs the whole service back to back (closed loop). It is the only
 * workload that goes through admission, the AcceleratorPool, the async
 * host link and the parallel session phase.
 *
 * The sequences derive from the workload seed; the arrival schedule is
 * the fixed stream bench/bench_service_load.cc uses. Its staggered
 * arrivals are what expose the service's round-loop slot reservations
 * (a known timeline bug, ROADMAP.md), and keeping it fixed makes the
 * simulated tail comparable across seeds.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <cstdio>
#include <optional>

#include "common/rng.hh"
#include "common/telemetry.hh"
#include "dataset/sequence.hh"
#include "hw/host_interface.hh"
#include "service/service.hh"
#include "synth/models.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace archytas;

constexpr std::size_t kSessions = 8;
constexpr std::size_t kSlots = 2;
constexpr std::size_t kActive = 4;
constexpr double kSessionSeconds = 6.0;
constexpr double kMeanArrivalGapS = 0.5;
constexpr std::uint64_t kArrivalSeed = 2021;
constexpr std::size_t kMinRuns = 3;
constexpr std::size_t kTraceRuns = 3;
constexpr double kRmseBoundM = 0.5;

std::vector<service::SessionConfig>
sessionMix(std::uint64_t seed)
{
    Rng arrivals(kArrivalSeed);
    std::vector<service::SessionConfig> mix;
    double arrival_s = 0.0;
    for (std::size_t i = 0; i < kSessions; ++i) {
        service::SessionConfig cfg;
        cfg.euroc_like = (i % 2) == 1;
        cfg.sequence =
            cfg.euroc_like
                ? eurocLikeConfig(kSessionSeconds, deriveSeed(seed, i))
                : kittiLikeConfig(kSessionSeconds, deriveSeed(seed, i));
        cfg.estimator = estimatorOptions();
        cfg.accel = synth::highPerfConfig();
        cfg.arrival_s = arrival_s;
        arrival_s += -kMeanArrivalGapS * std::log(arrivals.uniform(1e-12, 1.0));
        mix.push_back(cfg);
    }
    return mix;
}

/** One complete service run (set-up included) and its outputs. */
struct Run
{
    service::ServiceReport report;
    std::vector<std::vector<slam::FrameResult>> results;   //!< Per session.
    std::vector<std::size_t> frame_counts;   //!< Per session's sequence.
    std::size_t frames = 0;       //!< Frames stepped, all sessions.
    double setup_ms = 0.0;
    double run_ms = 0.0;
    double cpu_s = 0.0;           //!< Process CPU time during run().
    double allocs = 0.0;          //!< Heap allocations during run().
};

Run
serve(const std::vector<service::SessionConfig> &mix, Tracer &tracer)
{
    const SpanScope pass_span(tracer, "fleet.pass");
    Run out;
    service::ServiceOptions options;
    options.accelerator_slots = kSlots;
    options.max_active_sessions = kActive;

    std::optional<service::LocalizationService> svc;
    {
        const SpanScope span(tracer, "service.setup");
        const auto t0 = Clock::now();
        svc.emplace(options);
        for (const auto &cfg : mix)
            svc->addSession(cfg);
        out.setup_ms = msSince(t0);
    }
    {
        const SpanScope span(tracer, "service.run");
        const double cpu0 = cpuSeconds();
        const std::uint64_t allocs0 = allocations();
        const auto t1 = Clock::now();
        out.report = svc->run();
        out.run_ms = msSince(t1);
        out.allocs = static_cast<double>(allocations() - allocs0);
        out.cpu_s = cpuSeconds() - cpu0;
    }

    for (std::size_t id = 0; id < svc->sessionCount(); ++id) {
        out.results.push_back(svc->session(id).results());
        out.frame_counts.push_back(svc->session(id).frameCount());
        out.frames += out.frame_counts.back();
    }
    return out;
}

/** Output checks of one run; returns the run's timeline hash. */
std::uint64_t
check(const Run &run, Checks &checks)
{
    for (std::size_t id = 0; id < run.results.size(); ++id) {
        const auto &sr = run.report.sessions[id];
        checks.expect(!sr.rejected, "fleet: no session rejected");
        checks.expect(run.results[id].size() == run.frame_counts[id] &&
                          sr.degraded_frames == 0,
                      "fleet: every frame of a session processed, none "
                      "degraded");
        for (const auto &r : run.results[id])
            checks.expect(finitePose(r.estimated),
                          "fleet: estimate finite");
    }
    std::vector<std::optional<service::FrameTrace>> last(run.results.size());
    BitHash h;
    for (const service::FrameTrace &t : run.report.traces) {
        checks.expect(t.hw_solved, "fleet: window solved on an "
                                   "accelerator slot");
        checks.expect(t.complete_s >= t.request_s &&
                          t.request_s >= t.available_s,
                      "fleet: complete >= request >= available");
        auto &prev = last.at(t.session);
        if (prev)
            checks.expect(t.frame > prev->frame &&
                              t.available_s >= prev->available_s &&
                              t.request_s >= prev->complete_s,
                          "fleet: a session's frames are served FIFO");
        prev = t;
        for (const double v : {t.available_s, t.request_s,
                               t.admission_wait_s, t.link_s, t.compute_s,
                               t.complete_s})
            h.add(v);
    }
    for (const auto &session : run.results)
        for (const auto &r : session)
            h.add(r.estimated.p);
    return h.value();
}

/** The run's windows in the simulated-clock ledger; position errors. */
void
addWindows(const Run &run, Checks &checks, WindowLedger &ledger,
           std::vector<double> &errors)
{
    const hw::HwConfig built = synth::highPerfConfig();
    const hw::Accelerator accel(built);
    const double watts = synth::PowerModel::calibrated().watts(built);
    const hw::HostInterface host;
    std::vector<bool> config_sent(run.results.size(), false);
    for (const service::FrameTrace &t : run.report.traces) {
        const slam::FrameResult &r = run.results[t.session].at(t.frame);
        const hw::WindowTiming timing =
            accel.windowTiming(r.workload, r.lm_report.iterations);
        checks.expect(timing.totalMs() * 1e-3 == t.compute_s,
                      "fleet: the service's compute time is the "
                      "accelerator model's window latency");
        const hw::HostTransaction txn =
            host.windowTransaction(r.workload, !config_sent[t.session]);
        config_sent[t.session] = true;
        ledger.add(r.workload, timing, watts, t.link_s * 1e3,
                   txn.input_words + txn.config_words + txn.output_words,
                   t.latency_s() * 1e3);
    }
    for (const auto &session : run.results)
        for (const auto &r : session)
            if (r.optimized)
                errors.push_back(r.position_error);
}

/**
 * Estimator frame and solve time from the library's own telemetry spans
 * (the sessions' estimators run inside the service, out of reach of the
 * benchmark's hooks), paired per (session, frame).
 */
FrameBreakdown
telemetryFrames()
{
    std::map<std::uint64_t, std::pair<double, double>> frames;
    for (const auto &e : telemetry::snapshotTrace()) {
        if (e.instant || !e.has_context)
            continue;
        const std::string_view name = e.name;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(e.session) << 32) | e.frame;
        const double ms = static_cast<double>(e.duration_ns) * 1e-6;
        if (name == "estimator.frame")
            frames[key].first += ms;
        else if (name == "estimator.solve")
            frames[key].second += ms;
    }
    FrameBreakdown out;
    for (const auto &[key, times] : frames) {
        if (times.second == 0.0)
            continue;
        out.frame_ms.push_back(times.first);
        out.solve_ms.push_back(times.second);
        out.non_solve_ms.push_back(times.first - times.second);
    }
    return out;
}

} // namespace

void
runFleet(const Options &options, Report &report, Checks &checks)
{
    const auto mix = sessionMix(options.seed);
    Tracer tracer;
    WindowLedger ledger;
    std::vector<double> errors;
    std::vector<double> setup_s, run_s, cpu_util, allocs;
    std::uint64_t first_hash = 0;
    double windows = 0.0;

    const auto record = [&](const Run &run) {
        const std::uint64_t h = check(run, checks);
        if (setup_s.empty()) {
            first_hash = h;
            addWindows(run, checks, ledger, errors);
        } else {
            checks.expect(h == first_hash, "fleet: a repeated run "
                                           "reproduces its timeline and "
                                           "trajectories bit for bit");
        }
        const double n = static_cast<double>(run.report.traces.size());
        setup_s.push_back(run.setup_ms * 1e-3);
        run_s.push_back(run.run_ms * 1e-3);
        cpu_util.push_back(run.cpu_s / (run.run_ms * 1e-3 *
                                        static_cast<double>(kThreads)));
        allocs.push_back(run.allocs / static_cast<double>(run.frames));
        windows += n;
    };

    // Untimed warm-up: one session's first frames through a service.
    {
        service::LocalizationService warm;
        service::SessionConfig cfg = mix.front();
        cfg.sequence.duration = 1.5;
        warm.addSession(cfg);
        static_cast<void>(warm.run());
    }
    resetPeakRss();

    if (!options.trace) {
        const auto t0 = Clock::now();
        while (setup_s.size() < kMinRuns ||
               msSince(t0) < options.seconds * 1e3)
            record(serve(mix, tracer));
        report.set("setup_s", percentile(setup_s, 50));
        // Every host figure keeps the fastest repeat of the (identical)
        // run, like the other workloads. The sessions' frames run inside
        // LocalizationService::run, so a whole run is the one unit the
        // host clock sees: both frame percentiles read the fastest run's
        // wall time per optimized window. The spread of single runs is
        // the host's, not the program's.
        const double best_s = *std::min_element(run_s.begin(), run_s.end());
        const double windows_per_run =
            windows / static_cast<double>(run_s.size());
        report.set("frame_host_ms_p50", best_s * 1e3 / windows_per_run);
        report.set("frame_host_ms_p80", best_s * 1e3 / windows_per_run);
        report.set("frames_per_s", windows_per_run / best_s);
        report.set("pass_s", best_s);
    } else {
        // Sequence generation as the sessions' constructors do it.
        std::vector<double> generate_ms;
        for (std::size_t i = 0; i < kTraceRuns; ++i) {
            const auto t0 = Clock::now();
            for (const auto &cfg : mix)
                static_cast<void>(
                    cfg.euroc_like
                        ? dataset::makeEurocLikeSequence(cfg.sequence)
                        : dataset::makeKittiLikeSequence(cfg.sequence));
            generate_ms.push_back(msSince(t0));
        }
        report.set("dataset.generate_ms", percentile(generate_ms, 50));

        // Untraced and traced runs alternate, so slow phases of the host
        // hit both sides of trace_overhead alike.
        const double rejected0 =
            telemetryCounter("solver.step_rejections") +
            telemetryCounter("solver.cholesky_failures");
        Run first;
        FrameBreakdown breakdown;
        double rejected = 0.0;
        for (std::size_t i = 0; i < kTraceRuns; ++i) {
            record(serve(mix, tracer));
            telemetry::setEnabled(true);
            tracer.setEnabled(true);
            Run run = serve(mix, tracer);
            tracer.setEnabled(false);
            telemetry::setEnabled(false);
            checks.expect(check(run, checks) == first_hash,
                          "fleet: the traced run reproduces the untraced "
                          "timeline bit for bit");
            if (i == 0) {
                first = std::move(run);
                breakdown = telemetryFrames();
                rejected = telemetryCounter("solver.step_rejections") +
                           telemetryCounter("solver.cholesky_failures") -
                           rejected0;
            }
        }
        const double untraced_run_ms = percentile(run_s, 50) * 1e3;
        report.set("common.cpu_util", percentile(cpu_util, 50));
        report.set("common.allocs_per_frame", percentile(allocs, 50));

        double lm_iterations = 0.0, accepted = 0.0, frames = 0.0;
        for (const auto &session : first.results) {
            frames += static_cast<double>(session.size());
            for (const auto &r : session) {
                lm_iterations += static_cast<double>(r.lm_report.iterations);
                accepted +=
                    static_cast<double>(r.lm_report.cost_history.size());
            }
        }
        report.set("slam.frame_ms", percentile(breakdown.frame_ms, 50));
        report.set("slam.solve_ms", percentile(breakdown.solve_ms, 50));
        report.set("slam.non_solve_ms",
                   percentile(breakdown.non_solve_ms, 50));
        report.set("slam.lm_iterations", lm_iterations);
        report.set("slam.step_rejections", rejected);
        report.set("slam.step_accept_ratio", accepted / (accepted + rejected));
        report.set("design.estimator_frames", frames);

        std::vector<double> slot_wait, backlog, link, compute, admission;
        for (const service::FrameTrace &t : first.report.traces) {
            slot_wait.push_back(t.admission_wait_s * 1e3);
            backlog.push_back((t.request_s - t.available_s) * 1e3);
            link.push_back(t.link_s * 1e3);
            compute.push_back(t.compute_s * 1e3);
        }
        for (const auto &sr : first.report.sessions)
            admission.push_back((sr.admit_s - sr.arrival_s) * 1e3);
        const std::vector<double> traced_run =
            tracer.durationsMs("service.run");
        report.set("service.run_ms", percentile(traced_run, 50));
        report.set("service.slot_wait_ms_p50", percentile(slot_wait, 50));
        report.set("service.slot_wait_ms_p95", percentile(slot_wait, 95));
        report.set("service.backlog_ms_p95", percentile(backlog, 95));
        report.set("service.link_ms_mean", mean(link));
        report.set("service.compute_ms_mean", mean(compute));
        report.set("service.admission_wait_ms_mean", mean(admission));
        report.set("service.makespan_s", first.report.makespan_s);
        report.set("trace_overhead",
                   percentile(traced_run, 50) / untraced_run_ms - 1.0);
        checks.expect(exportTrace(tracer, options.out_dir),
                      "fleet: trace files written");
    }

    ledger.report(report);
    const double rmse = rms(errors);
    report.set("slam.rmse_m", rmse);
    std::printf("fleet: position RMSE %.3f m (bound %.1f m)\n", rmse,
                kRmseBoundM);
    checks.expect(rmse < kRmseBoundM, "fleet: position RMSE under its "
                                      "bound");
}

} // namespace perfbench
