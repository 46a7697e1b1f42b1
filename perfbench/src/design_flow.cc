/**
 * @file
 * Workload design_flow: the designer's offline flow. From a recorded
 * KITTI-like profiling trace it runs the software estimator
 * (bench::runTrace-style, no hw) to measure the window workload, builds
 * and schedules the M-DFG for the mean window, synthesizes -- minimum
 * latency, then minimum power at a fixed latency bound, then the Pareto
 * frontier over fixed bounds -- and ends with runtime preparation for
 * the chosen design (runtime::prepareRuntime's two steps, profiling and
 * table/gating preparation, each under its own span). Profiling runs the
 * estimator over the same trace again at every Iter level: redundant
 * estimator work ROADMAP.md plans to remove. Set-up records the trace.
 */

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/telemetry.hh"
#include "dataset/sequence.hh"
#include "hw/host_interface.hh"
#include "mdfg/builder.hh"
#include "mdfg/scheduler.hh"
#include "runtime/offline.hh"
#include "synth/optimizer.hh"
#include "window_hooks.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace archytas;

constexpr std::size_t kSetups = 9;
/** Long enough for >= 200 optimized frames, so that the frame-time
 *  percentiles leave at least 10 frames beyond them. */
constexpr double kTraceSeconds = 22.0;
constexpr std::size_t kMinFlows = 2;
constexpr std::size_t kTraceFlows = 2;
constexpr std::size_t kIter = 6;
/** Fixed latency bound (ms per window) for minimizePower and the
 *  runtime preparation, and the Pareto sweep's bounds. */
constexpr double kLatencyBoundMs = 2.0;
const std::vector<double> kParetoBoundsMs = {1.0, 1.5, 2.0, 3.0, 4.0, 6.0};
constexpr double kRmseBoundM = 1.0;

dataset::Sequence
recordTrace(std::uint64_t seed)
{
    return dataset::makeKittiLikeSequence(
        kittiLikeConfig(kTraceSeconds, deriveSeed(seed, 0)));
}

/** The flow's products and its host time. */
struct Flow
{
    std::vector<slam::FrameResult> results;
    std::vector<double> host_ms;   //!< Per optimized estimator frame.
    std::size_t schedule_entries = 0;
    std::optional<synth::DesignPoint> fastest;
    std::optional<synth::DesignPoint> chosen;   //!< Min power at the bound.
    std::vector<synth::DesignPoint> pareto;
    std::size_t evaluations = 0;
    runtime::RuntimePreparation prep;
    std::size_t estimator_frames = 0;
    /** Rejected LM steps of the estimator pass (traced flows only). */
    double rejected_steps = 0.0;
    double design_ms = 0.0;
};

/** Rejected and failed LM steps so far, from the library's telemetry. */
double
rejectedSteps()
{
    return telemetryCounter("solver.step_rejections") +
           telemetryCounter("solver.cholesky_failures");
}

Flow
designFlow(const dataset::Sequence &trace, Tracer &tracer, Checks &checks,
           bool replay, std::uint64_t &frame_id)
{
    const SpanScope flow_span(tracer, "design.flow");
    const auto t0 = Clock::now();
    Flow out;

    // 1. The window workload, measured by the software estimator.
    slam::SlidingWindowEstimator est(trace.camera(), estimatorOptions());
    WindowHooks hooks(tracer, checks);
    hooks.setReplay(replay);
    hooks.attach(est, {}, {});
    out.results.reserve(trace.frameCount());
    const double rejected0 = telemetry::enabled() ? rejectedSteps() : 0.0;
    for (const auto &frame : trace.frames()) {
        tracer.setFrame(frame_id++);
        const auto f0 = Clock::now();
        slam::FrameResult r;
        {
            const SpanScope span(tracer, "slam.frame");
            r = est.processFrame(frame);
        }
        if (r.optimized)
            out.host_ms.push_back(msSince(f0));
        out.results.push_back(std::move(r));
    }
    if (telemetry::enabled())
        out.rejected_steps = rejectedSteps() - rejected0;
    double f = 0, o = 0, k = 0, am = 0, no = 0, it = 0, n = 0;
    for (const auto &r : out.results) {
        if (!r.optimized || r.workload.features == 0)
            continue;
        f += static_cast<double>(r.workload.features);
        o += static_cast<double>(r.workload.observations);
        k += static_cast<double>(r.workload.keyframes);
        am += static_cast<double>(r.workload.marginalized_features);
        no += r.workload.avg_obs_per_feature;
        it += static_cast<double>(r.workload.nls_iterations);
        ++n;
    }
    n = std::max(n, 1.0);
    slam::WindowWorkload mean;
    mean.features = static_cast<std::size_t>(f / n);
    mean.observations = static_cast<std::size_t>(o / n);
    mean.keyframes = static_cast<std::size_t>(k / n + 0.5);
    mean.marginalized_features = static_cast<std::size_t>(am / n + 0.5);
    mean.avg_obs_per_feature = no / n;
    mean.nls_iterations = static_cast<std::size_t>(it / n + 0.5);

    // 2. The M-DFG of the mean window, scheduled onto the template.
    {
        const SpanScope span(tracer, "mdfg.build");
        const mdfg::Graph graph = mdfg::buildWindowGraph(
            mdfg::WorkloadDims::fromWorkload(mean), kIter);
        out.schedule_entries = mdfg::scheduleGraph(graph).entries.size();
    }

    // 3. Synthesis on the ZC706.
    const synth::Synthesizer synthesizer(
        synth::LatencyModel(mean), synth::ResourceModel::calibrated(),
        synth::PowerModel::calibrated(), synth::zc706());
    {
        const SpanScope span(tracer, "synth.min_latency");
        out.fastest = synthesizer.minimizeLatency(kIter);
        out.evaluations += synthesizer.lastEvaluations();
    }
    {
        const SpanScope span(tracer, "synth.min_power");
        out.chosen = synthesizer.minimizePower(kLatencyBoundMs, kIter);
        out.evaluations += synthesizer.lastEvaluations();
    }
    {
        const SpanScope span(tracer, "synth.pareto");
        out.pareto = synthesizer.paretoFrontier(kParetoBoundsMs, kIter);
    }

    // 4. Runtime preparation for the chosen design.
    const hw::HwConfig built =
        out.chosen ? out.chosen->config : synth::highPerfConfig();
    std::vector<runtime::ProfileSample> samples;
    {
        const SpanScope span(tracer, "runtime.profile");
        samples = runtime::profileSequence(trace, estimatorOptions());
    }
    {
        const SpanScope span(tracer, "runtime.prepare");
        out.prep = runtime::prepareRuntimeFromSamples(
            std::move(samples), synthesizer, built, kLatencyBoundMs);
    }
    out.estimator_frames = trace.frameCount() * (1 + runtime::kMaxIterations);
    out.design_ms = msSince(t0);
    return out;
}

/** Output checks of one flow; returns the flow's result hash. */
std::uint64_t
check(const Flow &flow, const dataset::Sequence &trace, Checks &checks)
{
    checks.expect(flow.results.size() == trace.frameCount(),
                  "design_flow: every frame processed");
    for (const auto &r : flow.results)
        checks.expect(finitePose(r.estimated) && !r.health.degraded,
                      "design_flow: estimate finite, frame not degraded");
    checks.expect(flow.schedule_entries > 0,
                  "design_flow: the M-DFG schedule is not empty");
    const synth::ResourceModel resources = synth::ResourceModel::calibrated();
    const synth::FpgaPlatform zc706 = synth::zc706();
    checks.expect(flow.fastest && resources.fits(flow.fastest->config, zc706),
                  "design_flow: the minimum-latency design fits the ZC706");
    checks.expect(flow.chosen && resources.fits(flow.chosen->config, zc706) &&
                      flow.chosen->latency_ms <= kLatencyBoundMs,
                  "design_flow: the minimum-power design fits the ZC706 "
                  "and meets its latency bound");
    checks.expect(!flow.pareto.empty(), "design_flow: Pareto frontier "
                                        "found");
    for (const auto &p : flow.pareto)
        checks.expect(resources.fits(p.config, zc706),
                      "design_flow: Pareto design fits the ZC706");
    BitHash h;
    for (const auto &r : flow.results) {
        h.add(r.estimated.p);
        h.add(static_cast<std::uint64_t>(r.lm_report.iterations));
    }
    if (flow.chosen) {
        const hw::HwConfig &c = flow.chosen->config;
        for (const auto &g : flow.prep.gated_configs)
            checks.expect(g.nd <= c.nd && g.nm <= c.nm && g.s <= c.s,
                          "design_flow: gated configurations stay within "
                          "the built design");
        for (const std::size_t v : {c.nd, c.nm, c.s})
            h.add(static_cast<std::uint64_t>(v));
        h.add(flow.chosen->power_w);
    }
    for (const auto &p : flow.pareto)
        h.add(p.power_w);
    for (const char c : flow.prep.table.toString())
        h.add(static_cast<std::uint64_t>(c));
    h.add(static_cast<std::uint64_t>(flow.evaluations));
    return h.value();
}

/** The trace's windows on the chosen design; position errors. */
void
addWindows(const Flow &flow, WindowLedger &ledger, std::vector<double> &errors)
{
    const hw::HwConfig built =
        flow.chosen ? flow.chosen->config : synth::highPerfConfig();
    const hw::Accelerator accel(built);
    const double watts = synth::PowerModel::calibrated().watts(built);
    const hw::HostInterface host;
    bool first = true;
    for (const auto &r : flow.results) {
        if (!r.optimized)
            continue;
        errors.push_back(r.position_error);
        const hw::WindowTiming timing =
            accel.windowTiming(r.workload, r.lm_report.iterations);
        const hw::HostTransaction txn = host.windowTransaction(r.workload, first);
        first = false;
        ledger.add(r.workload, timing, watts, txn.totalMs(),
                   txn.input_words + txn.config_words + txn.output_words,
                   txn.totalMs() + timing.totalMs());
    }
}

} // namespace

void
runDesignFlow(const Options &options, Report &report, Checks &checks)
{
    std::vector<double> setup_s;
    std::optional<dataset::Sequence> trace;
    for (std::size_t i = 0; i < kSetups; ++i) {
        trace.reset();
        const auto t0 = Clock::now();
        trace.emplace(recordTrace(options.seed));
        setup_s.push_back(msSince(t0) * 1e-3);
    }
    report.set("setup_s", percentile(setup_s, 50));
    report.set("dataset.generate_ms", percentile(setup_s, 50) * 1e3);

    // Untimed warm-up: the estimator up to its first optimized frame.
    {
        slam::SlidingWindowEstimator est(trace->camera(), estimatorOptions());
        for (const auto &frame : trace->frames())
            if (est.processFrame(frame).optimized)
                break;
    }
    resetPeakRss();

    Tracer tracer;
    std::uint64_t frame_id = 0;
    WindowLedger ledger;
    std::vector<double> errors;
    std::vector<double> best_ms, design_s;
    std::uint64_t first_hash = 0;
    double estimator_frames = 0.0;
    const auto record = [&](const Flow &flow) {
        const std::uint64_t h = check(flow, *trace, checks);
        if (design_s.empty()) {
            first_hash = h;
            addWindows(flow, ledger, errors);
            report.set("synth.evaluations",
                       static_cast<double>(flow.evaluations));
        } else {
            checks.expect(h == first_hash, "design_flow: a repeated flow "
                                           "reproduces its products bit "
                                           "for bit");
        }
        keepFastest(best_ms, flow.host_ms);
        design_s.push_back(flow.design_ms * 1e-3);
        estimator_frames += static_cast<double>(flow.estimator_frames);
    };

    if (!options.trace) {
        const auto t0 = Clock::now();
        while (design_s.size() < kMinFlows ||
               msSince(t0) < options.seconds * 1e3)
            record(designFlow(*trace, tracer, checks, false, frame_id));
        // Every host figure keeps the fastest repeat of the flow (see
        // keepFastest): per frame for the percentiles, per flow for the
        // design time and throughput.
        const double best_s = *std::min_element(design_s.begin(),
                                                design_s.end());
        report.set("frame_host_ms_p50", percentile(best_ms, 50));
        report.set("frame_host_ms_p80", percentile(best_ms, 80));
        report.set("frames_per_s",
                   estimator_frames / static_cast<double>(design_s.size()) /
                       best_s);
        report.set("pass_s", best_s);
    } else {
        // Untraced and traced flows alternate, so slow phases of the host
        // hit both sides of trace_overhead alike.
        double cpu_s = 0.0, allocs = 0.0, untraced_ms = 0.0, traced_ms = 0.0;
        double lm_iterations = 0.0, accepted = 0.0, rejected = 0.0;
        for (std::size_t i = 0; i < kTraceFlows; ++i) {
            const double cpu0 = cpuSeconds();
            const std::uint64_t allocs0 = allocations();
            const Flow untraced =
                designFlow(*trace, tracer, checks, false, frame_id);
            allocs += static_cast<double>(allocations() - allocs0);
            cpu_s += cpuSeconds() - cpu0;
            untraced_ms += untraced.design_ms;
            record(untraced);

            telemetry::setEnabled(true);
            tracer.setEnabled(true);
            const Flow flow =
                designFlow(*trace, tracer, checks, true, frame_id);
            tracer.setEnabled(false);
            telemetry::setEnabled(false);
            checks.expect(check(flow, *trace, checks) == first_hash,
                          "design_flow: the traced flow reproduces the "
                          "untraced products bit for bit");
            traced_ms += flow.design_ms;
            if (i == 0) {
                rejected = flow.rejected_steps;
                for (const auto &r : flow.results) {
                    lm_iterations += static_cast<double>(r.lm_report.iterations);
                    accepted +=
                        static_cast<double>(r.lm_report.cost_history.size());
                }
            }
        }
        report.set("common.cpu_util",
                   cpu_s / (untraced_ms * 1e-3 * static_cast<double>(kThreads)));
        report.set("common.allocs_per_frame", allocs / estimator_frames);
        report.set("design.estimator_frames",
                   estimator_frames / static_cast<double>(kTraceFlows));

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
        report.set("mdfg.build_ms",
                   percentile(tracer.durationsMs("mdfg.build"), 50));
        report.set("synth.min_latency_ms",
                   percentile(tracer.durationsMs("synth.min_latency"), 50));
        report.set("synth.min_power_ms",
                   percentile(tracer.durationsMs("synth.min_power"), 50));
        report.set("synth.pareto_ms",
                   percentile(tracer.durationsMs("synth.pareto"), 50));
        report.set("runtime.profile_ms",
                   percentile(tracer.durationsMs("runtime.profile"), 50));
        report.set("runtime.prepare_ms",
                   percentile(tracer.durationsMs("runtime.prepare"), 50));
        report.set("trace_overhead",
                   (traced_ms - tracer.totalMs("replay.window")) /
                           untraced_ms -
                       1.0);
        checks.expect(exportTrace(tracer, options.out_dir),
                      "design_flow: trace files written");
    }

    ledger.report(report);
    const double rmse = rms(errors);
    report.set("slam.rmse_m", rmse);
    std::printf("design_flow: position RMSE %.3f m (bound %.1f m)\n", rmse,
                kRmseBoundM);
    checks.expect(rmse < kRmseBoundM, "design_flow: position RMSE under its "
                                      "bound");
}

} // namespace perfbench
