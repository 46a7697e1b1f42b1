/**
 * @file
 * Workload kitti_single: one KITTI-like vehicle runs the deployed stack
 * of examples/kitti_vehicle.cc -- SlidingWindowEstimator plus
 * hw::HwWindowSolver (synchronous host link) on synth::highPerfConfig(),
 * with runtime::RuntimeController choosing Iter and the gated
 * configuration per window. Frames are fed back to back by one client
 * (closed loop). Set-up generates the routes and a separate profiling
 * route and prepares the controller's tables from it.
 */

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/telemetry.hh"
#include "dataset/sequence.hh"
#include "hw/host_interface.hh"
#include "hw/hw_solver.hh"
#include "runtime/offline.hh"
#include "synth/optimizer.hh"
#include "window_hooks.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace archytas;

constexpr std::size_t kSetups = 3;
constexpr double kProfileSeconds = 4.0;
/** Distinct routes driven once each before any route repeats; every
 *  simulated-clock and count metric is taken over exactly these. */
constexpr std::size_t kRoutes = 10;
constexpr double kRouteSeconds = 15.0;
/** Passes over all routes at least, so every frame has a repeat. */
constexpr std::size_t kMinCycles = 2;
/** Output check: position RMSE over the routes' optimized frames. */
constexpr double kRmseBoundM = 2.0;

/** What set-up produces: the routes and the prepared runtime. */
struct Deployment
{
    std::vector<dataset::Sequence> routes;
    runtime::RuntimePreparation prep;
    double generate_ms = 0.0;
    double profile_ms = 0.0;
    double prepare_ms = 0.0;
    std::size_t estimator_frames = 0;
};

Deployment
setUp(std::uint64_t seed)
{
    Deployment d;
    const auto t0 = Clock::now();
    const dataset::Sequence profile = dataset::makeKittiLikeSequence(
        kittiLikeConfig(kProfileSeconds, deriveSeed(seed, 0)));
    for (std::size_t r = 0; r < kRoutes; ++r)
        d.routes.push_back(dataset::makeKittiLikeSequence(
            kittiLikeConfig(kRouteSeconds, deriveSeed(seed, 1 + r))));
    d.generate_ms = msSince(t0);

    // As in examples/kitti_vehicle.cc: the profiling route's mean window
    // sets the latency bound (the built design at Iter 6) that the
    // per-Iter gated configurations must meet.
    const auto t1 = Clock::now();
    slam::SlidingWindowEstimator warmup(profile.camera(), estimatorOptions());
    slam::WindowWorkload mean{};
    std::size_t n = 0;
    for (const auto &frame : profile.frames()) {
        const auto r = warmup.processFrame(frame);
        if (!r.optimized || r.workload.features == 0)
            continue;
        mean.features += r.workload.features;
        mean.keyframes += r.workload.keyframes;
        mean.marginalized_features += r.workload.marginalized_features;
        mean.avg_obs_per_feature += r.workload.avg_obs_per_feature;
        ++n;
    }
    n = std::max<std::size_t>(n, 1);
    mean.features /= n;
    mean.keyframes /= n;
    mean.marginalized_features /= n;
    mean.avg_obs_per_feature /= static_cast<double>(n);
    auto samples = runtime::profileSequence(profile, estimatorOptions());
    d.profile_ms = msSince(t1);
    d.estimator_frames =
        profile.frameCount() * (1 + runtime::kMaxIterations);

    const auto t2 = Clock::now();
    const hw::HwConfig built = synth::highPerfConfig();
    const synth::Synthesizer synthesizer(
        synth::LatencyModel(mean), synth::ResourceModel::calibrated(),
        synth::PowerModel::calibrated(), synth::zc706());
    const double bound = hw::Accelerator(built).windowTiming(mean, 6).totalMs();
    d.prep = runtime::prepareRuntimeFromSamples(std::move(samples),
                                                synthesizer, built, bound);
    d.prepare_ms = msSince(t2);
    return d;
}

/** One route driven by a fresh stack. */
struct Pass
{
    std::vector<slam::FrameResult> results;
    /** Per optimized frame: */
    std::vector<runtime::ControllerDecision> decisions;
    std::vector<double> link_ms;     //!< Host-link time (simulated).
    std::vector<double> allocs;      //!< Heap allocations.
    /** Per frame, bootstrap frames included: */
    std::vector<double> frame_ms;    //!< processFrame wall time.
    std::size_t fallbacks = 0;
    double build_ms = 0.0;           //!< Stack construction.
    double wall_ms = 0.0;            //!< Stack construction included.
};

Pass
drive(const dataset::Sequence &route, const Deployment &d, Tracer &tracer,
      Checks &checks, bool replay, std::uint64_t &frame_id)
{
    const SpanScope pass_span(tracer, "kitti.pass");
    const auto t0 = Clock::now();
    Pass out;
    const hw::HwConfig built = synth::highPerfConfig();
    hw::HwWindowSolver solver(built);
    runtime::RuntimeController controller(d.prep.table,
                                          d.prep.gated_configs, built);
    slam::SlidingWindowEstimator est(route.camera(), estimatorOptions());
    runtime::ControllerDecision last{};
    WindowHooks hooks(tracer, checks);
    hooks.setReplay(replay);
    out.build_ms = msSince(t0);
    hooks.attach(
        est,
        [&solver](slam::WindowProblem &problem,
                  const slam::LmOptions &options,
                  slam::HealthReport &health) {
            return solver.solveWindow(problem, options, health);
        },
        [&](std::size_t features) {
            last = controller.onWindow(features);
            return last.iterations;
        });

    out.results.reserve(route.frameCount());
    out.frame_ms.reserve(route.frameCount());
    for (const auto &frame : route.frames()) {
        tracer.setFrame(frame_id++);
        const double link_before = solver.stats().link_seconds;
        const std::uint64_t allocs_before = allocations();
        const auto f0 = Clock::now();
        slam::FrameResult r;
        {
            const SpanScope span(tracer, "slam.frame");
            r = est.processFrame(frame);
        }
        const double ms = msSince(f0);
        const auto allocs = allocations() - allocs_before;
        out.frame_ms.push_back(ms);
        if (r.optimized) {
            out.allocs.push_back(static_cast<double>(allocs));
            out.decisions.push_back(last);
            out.link_ms.push_back(
                (solver.stats().link_seconds - link_before) * 1e3);
        }
        out.results.push_back(std::move(r));
    }
    out.fallbacks = solver.stats().fallback_windows;
    out.wall_ms = msSince(t0);
    return out;
}

/** Output checks of one pass; returns the pass's ledger hash. */
std::uint64_t
check(const Pass &pass, const dataset::Sequence &route, Checks &checks)
{
    checks.expect(pass.results.size() == route.frameCount(),
                  "kitti_single: every frame processed");
    for (const auto &r : pass.results)
        checks.expect(finitePose(r.estimated) && !r.health.degraded &&
                          !r.health.hw_fallback,
                      "kitti_single: estimate finite, frame not degraded");
    checks.expect(pass.fallbacks == 0, "kitti_single: no hw fallback");
    BitHash h;
    for (const auto &r : pass.results) {
        h.add(r.estimated.p);
        h.add(static_cast<std::uint64_t>(r.lm_report.iterations));
    }
    for (const auto &d : pass.decisions)
        for (const std::size_t v : {d.iterations, d.gated.nd, d.gated.nm,
                                    d.gated.s})
            h.add(static_cast<std::uint64_t>(v));
    for (const double ms : pass.link_ms)
        h.add(ms);
    return h.value();
}

/** Adds a pass's optimized windows to the simulated-clock ledger. */
void
addWindows(const Pass &pass, WindowLedger &ledger,
           std::vector<double> &errors)
{
    const hw::HwConfig built = synth::highPerfConfig();
    const synth::PowerModel power = synth::PowerModel::calibrated();
    const hw::HostInterface host;
    std::size_t k = 0;
    for (const auto &r : pass.results) {
        if (!r.optimized)
            continue;
        errors.push_back(r.position_error);
        const runtime::ControllerDecision &d = pass.decisions[k];
        const hw::WindowTiming timing =
            hw::Accelerator(d.gated).windowTiming(r.workload, d.iterations);
        // The hw solver sends the configuration words with its first
        // window only.
        const hw::HostTransaction txn = host.windowTransaction(r.workload, k == 0);
        ledger.add(r.workload, timing, power.gatedWatts(built, d.gated),
                   pass.link_ms[k],
                   txn.input_words + txn.config_words + txn.output_words,
                   pass.link_ms[k] + timing.totalMs());
        ++k;
    }
}

/** One untimed frame through a throwaway stack: the first optimized
 *  frame of the first route. */
void
warmUp(const Deployment &d)
{
    const hw::HwConfig built = synth::highPerfConfig();
    hw::HwWindowSolver solver(built);
    slam::SlidingWindowEstimator est(d.routes[0].camera(),
                                     estimatorOptions());
    solver.attach(est);
    for (const auto &frame : d.routes[0].frames())
        if (est.processFrame(frame).optimized)
            break;
}

} // namespace

void
runKittiSingle(const Options &options, Report &report, Checks &checks)
{
    std::vector<double> setup_s, generate_ms, profile_ms, prepare_ms;
    std::optional<Deployment> d;
    for (std::size_t i = 0; i < kSetups; ++i) {
        d.reset();
        const auto t0 = Clock::now();
        d.emplace(setUp(options.seed));
        setup_s.push_back(msSince(t0) * 1e-3);
        generate_ms.push_back(d->generate_ms);
        profile_ms.push_back(d->profile_ms);
        prepare_ms.push_back(d->prepare_ms);
    }
    report.set("setup_s", percentile(setup_s, 50));
    report.set("dataset.generate_ms", percentile(generate_ms, 50));
    report.set("runtime.profile_ms", percentile(profile_ms, 50));
    report.set("runtime.prepare_ms", percentile(prepare_ms, 50));
    report.set("design.estimator_frames",
               static_cast<double>(d->estimator_frames));

    warmUp(*d);
    resetPeakRss();
    Tracer tracer;
    std::uint64_t frame_id = 0;
    WindowLedger ledger;
    std::vector<double> errors;

    if (!options.trace) {
        // Timed region: drive every route in order, kMinCycles times and
        // then on until the time is up. Every host figure keeps each
        // frame's (and each stack construction's) fastest repeat, see
        // keepFastest; a route's pass time is composed of them.
        std::vector<std::vector<double>> best_ms(kRoutes);
        std::vector<double> best_build_ms(kRoutes, 0.0);
        std::vector<std::uint64_t> route_hash(kRoutes, 0);
        std::vector<std::vector<bool>> optimized(kRoutes);
        double frames = 0.0;
        const auto t0 = Clock::now();
        for (std::size_t i = 0;; ++i) {
            const std::size_t r = i % kRoutes;
            const Pass pass =
                drive(d->routes[r], *d, tracer, checks, false, frame_id);
            const std::uint64_t h = check(pass, d->routes[r], checks);
            if (i < kRoutes) {
                route_hash[r] = h;
                addWindows(pass, ledger, errors);
                best_build_ms[r] = pass.build_ms;
                for (const auto &res : pass.results)
                    optimized[r].push_back(res.optimized);
                frames += static_cast<double>(pass.decisions.size());
            } else {
                checks.expect(h == route_hash[r],
                              "kitti_single: a repeated route reproduces "
                              "its results bit for bit");
            }
            keepFastest(best_ms[r], pass.frame_ms);
            best_build_ms[r] = std::min(best_build_ms[r], pass.build_ms);
            if (i + 1 >= kMinCycles * kRoutes &&
                msSince(t0) >= options.seconds * 1e3)
                break;
        }
        std::vector<double> host_ms;
        double drive_ms = 0.0;
        for (std::size_t r = 0; r < kRoutes; ++r) {
            drive_ms += best_build_ms[r];
            for (std::size_t k = 0; k < best_ms[r].size(); ++k) {
                drive_ms += best_ms[r][k];
                if (optimized[r][k])
                    host_ms.push_back(best_ms[r][k]);
            }
        }
        report.set("frame_host_ms_p50", percentile(host_ms, 50));
        report.set("frame_host_ms_p80", percentile(host_ms, 80));
        report.set("frames_per_s", frames / (drive_ms * 1e-3));
        report.set("pass_s", drive_ms * 1e-3 / static_cast<double>(kRoutes));
    } else {
        // Each route untraced, then again traced (the window replay and
        // the library's telemetry on), so slow phases of the host hit
        // both sides of trace_overhead alike.
        double untraced_ms = 0.0, traced_ms = 0.0, cpu_s = 0.0;
        double lm_iterations = 0.0, accepted = 0.0;
        std::vector<double> allocs;
        const double rejected0 =
            telemetryCounter("solver.step_rejections") +
            telemetryCounter("solver.cholesky_failures");
        for (std::size_t r = 0; r < kRoutes; ++r) {
            const double cpu0 = cpuSeconds();
            const Pass untraced =
                drive(d->routes[r], *d, tracer, checks, false, frame_id);
            cpu_s += cpuSeconds() - cpu0;
            const std::uint64_t untraced_hash =
                check(untraced, d->routes[r], checks);
            untraced_ms += untraced.wall_ms;
            allocs.insert(allocs.end(), untraced.allocs.begin(),
                          untraced.allocs.end());

            telemetry::setEnabled(true);
            tracer.setEnabled(true);
            const Pass traced =
                drive(d->routes[r], *d, tracer, checks, true, frame_id);
            tracer.setEnabled(false);
            telemetry::setEnabled(false);
            checks.expect(check(traced, d->routes[r], checks) ==
                              untraced_hash,
                          "kitti_single: the traced pass reproduces the "
                          "untraced results bit for bit");
            addWindows(traced, ledger, errors);
            traced_ms += traced.wall_ms;
            for (const auto &res : traced.results) {
                lm_iterations += static_cast<double>(res.lm_report.iterations);
                accepted +=
                    static_cast<double>(res.lm_report.cost_history.size());
            }
        }
        report.set("common.cpu_util",
                   cpu_s / (untraced_ms * 1e-3 * static_cast<double>(kThreads)));
        report.set("common.allocs_per_frame", percentile(allocs, 50));

        const double rejected = telemetryCounter("solver.step_rejections") +
                                telemetryCounter("solver.cholesky_failures") -
                                rejected0;
        const FrameBreakdown frames = frameBreakdown(tracer);
        report.set("slam.frame_ms", percentile(frames.frame_ms, 50));
        report.set("slam.solve_ms", percentile(frames.solve_ms, 50));
        report.set("slam.non_solve_ms", percentile(frames.non_solve_ms, 50));
        report.set("slam.lm_iterations", lm_iterations);
        report.set("slam.step_rejections", rejected);
        report.set("slam.step_accept_ratio", accepted / (accepted + rejected));
        report.set("slam.build_ms",
                   percentile(tracer.durationsMs("slam.build"), 50));
        report.set("slam.cost_ms",
                   percentile(tracer.durationsMs("slam.cost"), 50));
        report.set("linalg.solve_blocked_ms",
                   percentile(tracer.durationsMs("linalg.solve_blocked"), 50));
        report.set("hw.execute_solve_ms",
                   percentile(tracer.durationsMs("hw.execute_solve"), 50));
        report.set("trace_overhead",
                   (traced_ms - tracer.totalMs("replay.window")) / untraced_ms -
                       1.0);
        checks.expect(exportTrace(tracer, options.out_dir),
                      "kitti_single: trace files written");
    }

    ledger.report(report);
    const double rmse = rms(errors);
    report.set("slam.rmse_m", rmse);
    std::printf("kitti_single: position RMSE %.3f m (bound %.1f m)\n", rmse,
                kRmseBoundM);
    checks.expect(rmse < kRmseBoundM, "kitti_single: position RMSE under "
                                      "its bound");
}

} // namespace perfbench
