/**
 * @file
 * The service scheduling layer (service/service.hh): deterministic
 * admission control, earliest-free accelerator-slot grants with fixed
 * tie-breaks, and the end-to-end service run -- reports, traces, their
 * run-to-run reproducibility, and the host-link time each frame is
 * charged.
 */

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.hh"
#include "dataset/corruptor.hh"
#include "hw/hw_solver.hh"
#include "service/accel_pool.hh"
#include "service/service.hh"

namespace archytas::service {
namespace {

dataset::SequenceConfig
tinySequence(std::uint64_t seed)
{
    dataset::SequenceConfig cfg;
    cfg.duration = 1.4;
    cfg.landmarks = 300;
    cfg.max_features_per_frame = 40;
    cfg.density_modulation = 0.3;
    cfg.seed = seed;
    return cfg;
}

SessionConfig
tinySession(std::uint64_t seed, double arrival_s, bool euroc = false)
{
    SessionConfig cfg;
    cfg.sequence = tinySequence(seed);
    cfg.euroc_like = euroc;
    cfg.estimator.window_size = 8;
    cfg.arrival_s = arrival_s;
    return cfg;
}

TEST(AdmissionController, AdmitsInArrivalOrderUpToCapacity)
{
    AdmissionController admission(2);
    admission.enqueue(0, 0.0);
    admission.enqueue(1, 0.0);
    admission.enqueue(2, 0.5);
    EXPECT_EQ(admission.queued(), 3u);

    const auto a = admission.admitNext();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->session, 0u);
    EXPECT_EQ(a->admit_s, 0.0);
    EXPECT_EQ(a->wait_s(), 0.0);

    const auto b = admission.admitNext();
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->session, 1u);
    EXPECT_EQ(admission.active(), 2u);

    // Capacity exhausted: the third session waits for a release.
    EXPECT_FALSE(admission.admitNext().has_value());
    admission.release(2.0);
    const auto c = admission.admitNext();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->session, 2u);
    EXPECT_EQ(c->admit_s, 2.0);
    EXPECT_EQ(c->wait_s(), 1.5);
    EXPECT_EQ(admission.queued(), 0u);
}

TEST(AdmissionController, OrdersByArrivalThenId)
{
    AdmissionController admission(4);
    admission.enqueue(3, 1.0);
    admission.enqueue(1, 0.5);
    admission.enqueue(2, 0.5);
    ASSERT_EQ(admission.admitNext()->session, 1u);
    ASSERT_EQ(admission.admitNext()->session, 2u);
    ASSERT_EQ(admission.admitNext()->session, 3u);
}

TEST(AcceleratorPool, GrantsEarliestFreeSlotWithFixedTieBreak)
{
    AcceleratorPool pool(2);
    const SlotGrant a = pool.acquire(0.0, 1.0);
    EXPECT_EQ(a.slot, 0u);   // tie between empty slots: lowest index
    EXPECT_EQ(a.start_s, 0.0);
    EXPECT_EQ(a.wait_s, 0.0);

    const SlotGrant b = pool.acquire(0.0, 2.0);
    EXPECT_EQ(b.slot, 1u);
    EXPECT_EQ(b.start_s, 0.0);

    // Both busy: slot 0 frees first (t=1.0), so the request queues.
    const SlotGrant c = pool.acquire(0.5, 1.0);
    EXPECT_EQ(c.slot, 0u);
    EXPECT_EQ(c.start_s, 1.0);
    EXPECT_EQ(c.wait_s, 0.5);

    // A request after every slot is free starts immediately.
    const SlotGrant d = pool.acquire(5.0, 1.0);
    EXPECT_EQ(d.start_s, 5.0);
    EXPECT_EQ(d.wait_s, 0.0);
}

TEST(LocalizationService, RunsSessionsToCompletion)
{
    ServiceOptions options;
    options.accelerator_slots = 1;
    options.max_active_sessions = 2;
    LocalizationService svc(options);
    EXPECT_EQ(svc.addSession(tinySession(11, 0.0)), 0u);
    EXPECT_EQ(svc.addSession(tinySession(12, 0.2, true)), 1u);
    EXPECT_EQ(svc.addSession(tinySession(13, 0.4)), 2u);
    ASSERT_EQ(svc.sessionCount(), 3u);

    const ServiceReport report = svc.run();
    ASSERT_EQ(report.sessions.size(), 3u);
    for (const SessionReport &sr : report.sessions) {
        EXPECT_EQ(sr.frames, svc.session(sr.id).frameCount());
        EXPECT_GE(sr.admit_s, sr.arrival_s);
        EXPECT_GT(sr.completion_s, sr.admit_s);
        EXPECT_TRUE(std::isfinite(sr.rmse_m));
        EXPECT_GT(sr.hw.windows, 0u);
    }
    EXPECT_EQ(report.sessions[0].label, "session-00");
    EXPECT_FALSE(report.traces.empty());
    EXPECT_GT(report.makespan_s, 0.0);
    EXPECT_GT(report.sessionsPerSecond(), 0.0);

    // The third session waited: capacity is 2 and arrivals overlap.
    EXPECT_GT(report.sessions[2].admit_s, report.sessions[2].arrival_s);

    // The timeline obeys the event model: with one slot shared by two
    // staggered sessions, no window may queue while the slot is idle.
    EXPECT_EQ(validateTimeline(report, options.accelerator_slots)
                  .value_or(""),
              "");

    // Percentiles are monotone in p.
    const double p50 = report.latencyPercentileMs(50);
    const double p95 = report.latencyPercentileMs(95);
    const double p99 = report.latencyPercentileMs(99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GT(p50, 0.0);
}

FrameTrace
hwFrame(std::size_t session, std::size_t frame, double request_s,
        double start_s, double complete_s, std::size_t slot = 0)
{
    FrameTrace t;
    t.session = session;
    t.frame = frame;
    t.available_s = request_s;
    t.request_s = request_s;
    t.start_s = start_s;
    t.admission_wait_s = start_s - request_s;
    t.complete_s = complete_s;
    t.slot = slot;
    t.hw_solved = true;
    return t;
}

ServiceReport
twoSessionReport()
{
    ServiceReport report;
    report.sessions.resize(2);
    report.sessions[1].id = 1;
    return report;
}

TEST(ValidateTimeline, AcceptsABackToBackQueue)
{
    ServiceReport report = twoSessionReport();
    report.traces = {hwFrame(0, 0, 0.0, 0.0, 1.0),
                     hwFrame(1, 0, 0.5, 1.0, 2.0),
                     hwFrame(0, 1, 1.0, 2.0, 3.0)};
    EXPECT_EQ(validateTimeline(report, 1).value_or(""), "");
}

TEST(ValidateTimeline, NamesEachViolatedInvariant)
{
    const auto violation = [](ServiceReport report,
                              std::vector<FrameTrace> traces,
                              std::size_t slots = 1) {
        report.traces = std::move(traces);
        return validateTimeline(report, slots).value_or("");
    };
    const ServiceReport ok = twoSessionReport();
    EXPECT_NE(violation(ok, {hwFrame(0, 0, 0.0, 0.0, 1.0),
                             hwFrame(1, 0, 0.0, 0.5, 1.5)})
                  .find("double-books"),
              std::string::npos);
    EXPECT_NE(violation(ok, {hwFrame(0, 0, 0.0, 0.0, 1.0),
                             hwFrame(1, 0, 1.5, 2.5, 3.5)})
                  .find("idle"),
              std::string::npos);
    // An unused second slot is idle for the whole queueing delay.
    EXPECT_NE(violation(ok,
                        {hwFrame(0, 0, 0.0, 0.0, 1.0),
                         hwFrame(1, 0, 0.5, 1.0, 2.0)},
                        2)
                  .find("idle"),
              std::string::npos);
    EXPECT_NE(violation(ok, {hwFrame(0, 0, 0.0, 0.0, 1.0),
                             hwFrame(0, 1, 0.5, 1.0, 2.0)})
                  .find("previous frame"),
              std::string::npos);
    EXPECT_NE(violation(ok, {hwFrame(0, 0, 1.0, 0.5, 1.5)})
                  .find("complete >= start"),
              std::string::npos);
    EXPECT_NE(violation(ok, {hwFrame(0, 0, 0.0, 0.0, 1.0, 3)})
                  .find("outside the pool"),
              std::string::npos);

    ServiceReport early = twoSessionReport();
    early.sessions[1].arrival_s = 1.0;
    EXPECT_NE(violation(early, {}).find("before its arrival"),
              std::string::npos);
}

TEST(LocalizationService, ReportIsReproducibleRunToRun)
{
    const auto runOnce = [] {
        ServiceOptions options;
        options.accelerator_slots = 2;
        options.max_active_sessions = 2;
        LocalizationService svc(options);
        svc.addSession(tinySession(21, 0.0));
        svc.addSession(tinySession(22, 0.1, true));
        svc.addSession(tinySession(23, 0.3));
        return svc.run();
    };
    const ServiceReport a = runOnce();
    const ServiceReport b = runOnce();

    ASSERT_EQ(a.traces.size(), b.traces.size());
    for (std::size_t i = 0; i < a.traces.size(); ++i) {
        EXPECT_EQ(a.traces[i].session, b.traces[i].session);
        EXPECT_EQ(a.traces[i].frame, b.traces[i].frame);
        EXPECT_EQ(a.traces[i].request_s, b.traces[i].request_s);
        EXPECT_EQ(a.traces[i].complete_s, b.traces[i].complete_s);
        EXPECT_EQ(a.traces[i].hw_solved, b.traces[i].hw_solved);
    }
    ASSERT_EQ(a.sessions.size(), b.sessions.size());
    for (std::size_t i = 0; i < a.sessions.size(); ++i) {
        EXPECT_EQ(a.sessions[i].rmse_m, b.sessions[i].rmse_m);
        EXPECT_EQ(a.sessions[i].completion_s,
                  b.sessions[i].completion_s);
    }
    EXPECT_EQ(a.makespan_s, b.makespan_s);
}

/** Sum of the link time the service charged one session's frames. */
double
chargedLinkSeconds(const ServiceReport &report, std::size_t session)
{
    double sum = 0.0;
    for (const FrameTrace &t : report.traces)
        if (t.session == session)
            sum += t.link_s;
    return sum;
}

/** The session's windows solved by a standalone HwWindowSolver attached
 *  to an estimator: same sequence, link, and fault plan. */
hw::HwSolveStats
standaloneStats(const SessionConfig &cfg)
{
    const dataset::Sequence sequence =
        cfg.euroc_like ? dataset::makeEurocLikeSequence(cfg.sequence)
                       : dataset::makeKittiLikeSequence(cfg.sequence);
    const std::vector<dataset::FrameData> frames =
        cfg.faults.empty() ? sequence.frames()
                           : dataset::corruptFrames(sequence, cfg.faults);
    slam::SlidingWindowEstimator estimator(sequence.camera(),
                                           cfg.estimator);
    hw::HwWindowSolver solver(cfg.accel, cfg.link, cfg.faults);
    solver.attach(estimator);
    for (const dataset::FrameData &frame : frames)
        (void)estimator.processFrame(frame);
    return solver.stats();
}

TEST(LocalizationService, LinkTimeMatchesSolverUnderFaults)
{
    ServiceOptions options;
    options.accelerator_slots = 1;
    options.max_active_sessions = 2;
    LocalizationService svc(options);
    SessionConfig faulted = tinySession(31, 0.0);
    faulted.use_runtime_controller = false;   // As the standalone run.
    faulted.faults = FaultPlan(
        5, {FaultEvent{2, FaultKind::DmaTimeout, 2, 0.0},
            FaultEvent{4, FaultKind::DmaTimeout, 10, 0.0},
            FaultEvent{6, FaultKind::DmaStall, 1, 6.0}});
    svc.addSession(faulted);
    svc.addSession(tinySession(32, 0.1, true));

    const ServiceReport report = svc.run();
    for (std::size_t id = 0; id < svc.sessionCount(); ++id) {
        // Each frame is charged exactly its window's transaction.
        EXPECT_EQ(chargedLinkSeconds(report, id),
                  svc.session(id).solver().stats().link_seconds)
            << "session " << id;
    }

    const hw::HwSolveStats &hosted = report.sessions[0].hw;
    const hw::HwSolveStats alone = standaloneStats(faulted);
    EXPECT_GT(hosted.retried_windows, 0u);
    EXPECT_GT(hosted.fallback_windows, 0u);
    EXPECT_EQ(hosted.windows, alone.windows);
    EXPECT_EQ(hosted.retried_windows, alone.retried_windows);
    EXPECT_EQ(hosted.fallback_windows, alone.fallback_windows);
    EXPECT_EQ(hosted.link_seconds, alone.link_seconds);
}

TEST(LocalizationService, SlowLinkFallsBackToSoftware)
{
    // No fault is scheduled, but the link is too slow for its deadline:
    // every window exhausts its retry budget, is solved in software,
    // and is charged the abandoned attempts the solver accounted.
    LocalizationService svc;
    SessionConfig cfg = tinySession(41, 0.0);
    cfg.link.bandwidth_bytes_per_s = 1e5;
    svc.addSession(cfg);

    const ServiceReport report = svc.run();
    const hw::HwSolveStats &stats = svc.session(0).solver().stats();
    ASSERT_FALSE(report.traces.empty());
    EXPECT_EQ(stats.fallback_windows, stats.windows);
    EXPECT_EQ(stats.hw_windows, 0u);
    for (const FrameTrace &t : report.traces) {
        EXPECT_FALSE(t.hw_solved);
        EXPECT_EQ(t.admission_wait_s, 0.0);
    }
    EXPECT_EQ(chargedLinkSeconds(report, 0), stats.link_seconds);
}

} // namespace
} // namespace archytas::service
