#include "service/service.hh"

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "common/contracts.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "common/telemetry.hh"

namespace archytas::service {

namespace {

/** Finalizes a session's report entry when its last frame completes. */
void
finishSession(SessionReport &sr, const RobotSession &session,
              double completion_s)
{
    sr.completion_s = completion_s;
    sr.frames = session.results().size();
    double sq = 0.0;
    for (const slam::FrameResult &r : session.results()) {
        sq += r.position_error * r.position_error;
        sr.max_error_m = std::max(sr.max_error_m, r.position_error);
        if (r.health.degraded)
            ++sr.degraded_frames;
    }
    sr.rmse_m = sr.frames
                    ? std::sqrt(sq / static_cast<double>(sr.frames))
                    : 0.0;
    sr.hw = session.solver().stats();
    ARCHYTAS_COUNT_ADD("service.sessions_completed", 1);
    ARCHYTAS_INSTANT("service", "service.session_done",
                     {"session", static_cast<double>(sr.id)},
                     {"frames", static_cast<double>(sr.frames)});
}

/**
 * One event of the service's event pass. The queue pops the smallest: earliest
 * time, then a release before a frame request (so capacity freed at t
 * is admitted before a request at t is granted), then lowest session
 * id -- the deterministic tie rule.
 */
struct Event
{
    double time_s = 0.0;
    bool request = false;    //!< Frame request; false: session release.
    std::size_t session = 0;
    std::size_t index = 0;   //!< Frame index of a request.

    auto operator<=>(const Event &) const = default;
};

} // namespace

double
ServiceReport::sessionsPerSecond() const
{
    if (sessions.empty() || makespan_s <= 0.0)
        return 0.0;
    return static_cast<double>(sessions.size()) / makespan_s;
}

double
ServiceReport::latencyPercentileMs(double p) const
{
    std::vector<double> ms;
    ms.reserve(traces.size());
    for (const FrameTrace &t : traces)
        ms.push_back(t.latency_s() * 1e3);
    return percentile(std::move(ms), p);
}

bool
ServiceReport::sloPass() const
{
    for (const SloVerdict &v : slo) {
        if (!v.pass())
            return false;
    }
    return true;
}

std::optional<std::string>
validateTimeline(const ServiceReport &report, std::size_t slots)
{
    char msg[384];
    const auto frameFault = [&](const char *what, const FrameTrace &t) {
        std::snprintf(msg, sizeof msg,
                      "session %zu frame %zu: %s (available %.17g, "
                      "request %.17g, start %.17g, complete %.17g)",
                      t.session, t.frame, what, t.available_s,
                      t.request_s, t.start_s, t.complete_s);
        return std::optional<std::string>(msg);
    };

    for (const SessionReport &sr : report.sessions) {
        if (!sr.rejected && sr.admit_s < sr.arrival_s) {
            std::snprintf(msg, sizeof msg,
                          "session %zu admitted at %.17g before its "
                          "arrival at %.17g",
                          sr.id, sr.admit_s, sr.arrival_s);
            return std::string(msg);
        }
    }

    // Per frame: causal order, and per session FIFO in report order.
    std::vector<const FrameTrace *> last(report.sessions.size(), nullptr);
    std::vector<std::vector<const FrameTrace *>> bookings(slots);
    for (const FrameTrace &t : report.traces) {
        if (!(t.complete_s >= t.start_s && t.start_s >= t.request_s &&
              t.request_s >= t.available_s))
            return frameFault("not complete >= start >= request >= "
                              "available", t);
        if (t.session >= last.size())
            return frameFault("unknown session", t);
        const FrameTrace *prev = last[t.session];
        if (prev && (t.frame <= prev->frame ||
                     t.request_s < prev->complete_s))
            return frameFault("not FIFO after the session's previous "
                              "frame", t);
        last[t.session] = &t;
        if (t.hw_solved) {
            if (t.slot >= slots)
                return frameFault("granted a slot outside the pool", t);
            bookings[t.slot].push_back(&t);
        }
    }

    // Per slot: bookings must not overlap; the gaps between them are the
    // slot's idle intervals [lo, hi).
    struct Gap
    {
        double lo, hi;
    };
    std::vector<Gap> idle;
    for (std::vector<const FrameTrace *> &slot : bookings) {
        std::sort(slot.begin(), slot.end(),
                  [](const FrameTrace *a, const FrameTrace *b) {
                      return a->start_s < b->start_s;
                  });
        double free_s = -std::numeric_limits<double>::infinity();
        for (const FrameTrace *t : slot) {
            if (t->start_s < free_s)
                return frameFault("double-books its slot", *t);
            if (t->start_s > free_s)
                idle.push_back({free_s, t->start_s});
            free_s = t->complete_s;
        }
        idle.push_back({free_s, std::numeric_limits<double>::infinity()});
    }

    // Work conservation: a hardware frame waits only while every slot
    // is busy, so no idle interval may overlap [request, start).
    for (const FrameTrace &t : report.traces) {
        if (!t.hw_solved || t.start_s == t.request_s)
            continue;
        for (const Gap &g : idle) {
            if (g.lo < t.start_s && g.hi > t.request_s)
                return frameFault("waited while a slot was idle", t);
        }
    }
    return std::nullopt;
}

LocalizationService::LocalizationService(const ServiceOptions &options)
    : options_(options)
{
    ARCHYTAS_ASSERT(options.accelerator_slots > 0 &&
                        options.max_active_sessions > 0,
                    "bad service options");
    ARCHYTAS_ASSERT(options.software_fallback_factor >= 1.0,
                    "software fallback cannot be faster than hardware");
}

std::size_t
LocalizationService::addSession(const SessionConfig &config)
{
    ARCHYTAS_ASSERT(!ran_, "addSession after run()");
    const std::size_t id = sessions_.size();
    sessions_.push_back(
        std::make_unique<RobotSession>(id, config));
    return id;
}

const RobotSession &
LocalizationService::session(std::size_t id) const
{
    ARCHYTAS_CHECK_BOUNDS("LocalizationService::session", id,
                          sessions_.size());
    return *sessions_[id];
}

ServiceReport
LocalizationService::run()
{
    ARCHYTAS_ASSERT(!ran_, "LocalizationService::run called twice");
    ran_ = true;

    AdmissionController admission(options_.max_active_sessions,
                                  options_.max_queued_sessions);
    AcceleratorPool pool(options_.accelerator_slots);
    SloEngine slo_engine(options_.slo);

    ServiceReport report;
    report.sessions.resize(sessions_.size());
    for (std::size_t id = 0; id < sessions_.size(); ++id) {
        SessionReport &sr = report.sessions[id];
        sr.id = id;
        sr.label = sessions_[id]->context().label;
        sr.arrival_s = sessions_[id]->config().arrival_s;
    }

    // Announce arrivals in (arrival, id) order so the bounded waiting
    // room sees them the way the timeline would (accel_pool.hh).
    std::vector<std::size_t> announce(sessions_.size());
    for (std::size_t i = 0; i < announce.size(); ++i)
        announce[i] = i;
    std::sort(announce.begin(), announce.end(),
              [&](std::size_t a, std::size_t b) {
                  const double aa = report.sessions[a].arrival_s;
                  const double ab = report.sessions[b].arrival_s;
                  if (aa != ab)
                      return aa < ab;
                  return a < b;
              });
    for (const std::size_t id : announce) {
        SessionReport &sr = report.sessions[id];
        if (admission.enqueue(id, sr.arrival_s))
            continue;
        sr.rejected = true;
        slo_engine.recordAdmission(true);
        ARCHYTAS_COUNT_ADD("service.admission_rejects", 1);
        ARCHYTAS_INSTANT("service", "service.session_rejected",
                         {"session", static_cast<double>(id)},
                         {"arrival_s", sr.arrival_s});
#if ARCHYTAS_TELEMETRY_ENABLED
        if (telemetry::enabled()) {
            sessions_[id]->flight().record(
                telemetry::FlightKind::Fault, "admission_reject", 0);
            sessions_[id]->dumpFlight("admission_reject");
        }
#endif
    }

    // Numeric pass: every admitted session steps all its frames, one
    // pool task per session (the session shard). The numerics never
    // read the timeline, so no step waits for scheduling; sessions write
    // disjoint state and nested parallel regions run inline, so the
    // trajectories cannot depend on the interleaving. Step buffers are
    // sized outside the pool region; a rejected session's stays empty.
    std::vector<std::vector<SessionStep>> steps(sessions_.size());
    for (std::size_t id = 0; id < sessions_.size(); ++id)
        if (!report.sessions[id].rejected)
            steps[id].resize(sessions_[id]->frameCount());
    parallel::runTasks(sessions_.size(), [&](std::size_t id) {
        for (SessionStep &step : steps[id])
            step = sessions_[id]->stepFrame();
    });

    // Event pass: place every frame on the simulated timeline in time
    // order, so the pool's earliest-free grants are exact FCFS.
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    // A session's frame k requests once it is available and frame k-1
    // has completed (per-session FIFO).
    const auto requestFrame = [&](std::size_t id, std::size_t k,
                                  double ready_s) {
        const double available_s =
            report.sessions[id].admit_s + steps[id][k].frame_offset_s;
        events.push({std::max(available_s, ready_s), true, id, k});
    };
    const auto admitAvailable = [&]() {
        while (const auto a = admission.admitNext()) {
            report.sessions[a->session].admit_s = a->admit_s;
            requestFrame(a->session, 0, a->admit_s);
            slo_engine.recordAdmission(false);
            ARCHYTAS_COUNT_ADD("service.sessions_started", 1);
            ARCHYTAS_HIST_RECORD("service.admission_wait_ms",
                                 a->wait_s() * 1e3);
            ARCHYTAS_INSTANT(
                "service", "service.session_admitted",
                {"session", static_cast<double>(a->session)},
                {"wait_ms", a->wait_s() * 1e3});
        }
        ARCHYTAS_GAUGE_SET("service.active_sessions",
                           static_cast<double>(admission.active()));
    };
    admitAvailable();

    while (!events.empty()) {
        const Event e = events.top();
        events.pop();
        RobotSession &session = *sessions_[e.session];
        SessionReport &sr = report.sessions[e.session];
        if (!e.request) {
            // The session's last frame completed: return its capacity
            // and admit queued arrivals into it.
            finishSession(sr, session, e.time_s);
            admission.release(e.time_s);
            report.makespan_s = std::max(report.makespan_s, e.time_s);
            admitAvailable();
            continue;
        }

        // Same causal identity the numeric pass used, so the scheduling
        // span lands on the session's track and the flow arc opened in
        // stepFrame closes here.
        ARCHYTAS_TRACE_SCOPE(static_cast<std::uint32_t>(e.session),
                             static_cast<std::uint32_t>(e.index),
                             &session.flight());
        ARCHYTAS_SPAN("service", "service.schedule_frame");
        const SessionStep &step = steps[e.session][e.index];
        const slam::FrameResult &result = session.results()[e.index];
        double complete = e.time_s;

        if (step.transaction) {
            // Optimized window: host-link transaction, then the solve --
            // on a shared accelerator slot, or on the host CPU after a
            // DeadlineExceeded fallback (slower, but it queues for no
            // slot).
            const hw::Accelerator &accel = session.solver().accelerator();
            const double compute_s =
                accel.windowTiming(result.workload,
                                   result.lm_report.iterations)
                    .totalMs(accel.constants()) *
                1e-3;

            FrameTrace trace;
            trace.session = e.session;
            trace.frame = e.index;
            trace.available_s = sr.admit_s + step.frame_offset_s;
            trace.request_s = trace.start_s = e.time_s;
            trace.link_s = step.transaction->total_seconds;
            trace.hw_solved = step.transaction->ok();
            trace.compute_s =
                trace.hw_solved
                    ? compute_s
                    : compute_s * options_.software_fallback_factor;
            const double busy_s = trace.link_s + trace.compute_s;
            if (trace.hw_solved) {
                const SlotGrant grant = pool.acquire(e.time_s, busy_s);
                trace.slot = grant.slot;
                trace.start_s = grant.start_s;
                trace.admission_wait_s = grant.wait_s;
                ARCHYTAS_INSTANT(
                    "service", "service.slot_grant",
                    {"slot", static_cast<double>(grant.slot)},
                    {"wait_ms", grant.wait_s * 1e3});
            }
            // The sum the pool booked, so the slot's next grant starts
            // exactly at this completion.
            trace.complete_s = trace.start_s + busy_s;
            complete = trace.complete_s;
            ARCHYTAS_HIST_RECORD("service.frame_latency_ms",
                                 trace.latency_s() * 1e3);
            ARCHYTAS_HIST_RECORD("service.slot_wait_ms",
                                 trace.admission_wait_s * 1e3);
            slo_engine.recordFrame(true, trace.latency_s() * 1e3,
                                   trace.hw_solved,
                                   result.health.solver_diverged);
            report.traces.push_back(trace);
        } else {
            slo_engine.recordFrame(false, 0.0, true,
                                   result.health.solver_diverged);
        }
        ARCHYTAS_COUNT_ADD("service.frames", 1);
        ARCHYTAS_FLOW_END("service", "trace.frame");
        ARCHYTAS_COUNT_ADD("trace.frames_linked", 1);

        if (e.index + 1 < steps[e.session].size())
            requestFrame(e.session, e.index + 1, complete);
        else
            events.push({complete, false, e.session, 0});
    }

    report.slo = slo_engine.verdicts();
    slo_engine.publish();

    // On-demand dump: one bundle per session, rejected ones included
    // (their rings hold only the rejection marker).
    if (!options_.flight_dump_dir.empty()) {
        for (const auto &session : sessions_)
            session->dumpFlight("on_demand", options_.flight_dump_dir);
    }
    return report;
}

} // namespace archytas::service
