#include "window_hooks.hh"

#include <cmath>
#include <cstring>

#include "synth/models.hh"

namespace perfbench {

namespace as = archytas::slam;

namespace {

bool
bitwiseEqual(const archytas::linalg::Vector &a,
             const archytas::linalg::Vector &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double x = a[i], y = b[i];
        if (std::memcmp(&x, &y, sizeof(double)) != 0)
            return false;
    }
    return true;
}

} // namespace

WindowHooks::WindowHooks(Tracer &tracer, Checks &checks)
    : tracer_(tracer), checks_(checks),
      replay_accel_(archytas::synth::highPerfConfig())
{
}

void
WindowHooks::attach(as::SlidingWindowEstimator &est,
                    as::SlidingWindowEstimator::WindowSolver solver,
                    as::SlidingWindowEstimator::IterationController iterations)
{
    solver_ = std::move(solver);
    iterations_ = std::move(iterations);
    if (iterations_) {
        est.setIterationController([this](std::size_t features) {
            const SpanScope span(tracer_, "runtime.on_window");
            return iterations_(features);
        });
    }
    est.setWindowSolver([this](as::WindowProblem &problem,
                               const as::LmOptions &options,
                               as::HealthReport &health) {
        if (replay_)
            replay(problem, options);
        const SpanScope span(tracer_, "slam.solve");
        return solver_ ? solver_(problem, options, health)
                       : as::solveWindow(problem, options, {}, scratch_);
    });
}

void
WindowHooks::replay(const as::WindowProblem &problem,
                    const as::LmOptions &options)
{
    const SpanScope span(tracer_, "replay.window");
    {
        const SpanScope s(tracer_, "slam.build");
        problem.build(replay_scratch_.eq, replay_scratch_.assembly,
                      as::BuildMode::kSolve);
    }
    double cost = 0.0;
    {
        const SpanScope s(tracer_, "slam.cost");
        cost = problem.evaluateCost();
    }
    bool sw_ok = false;
    {
        const SpanScope s(tracer_, "linalg.solve_blocked");
        sw_ok = as::solveBlockedSystem(replay_scratch_.eq,
                                       options.lambda_init, dy_sw_, dx_sw_,
                                       replay_scratch_);
    }
    bool hw_ok = false;
    {
        const SpanScope s(tracer_, "hw.execute_solve");
        hw_ok = replay_accel_.executeSolve(replay_scratch_.eq,
                                           options.lambda_init, dy_hw_,
                                           dx_hw_);
    }
    checks_.expect(std::isfinite(cost) && std::isfinite(replay_scratch_.eq.cost),
                   "replayed window cost is finite");
    checks_.expect(sw_ok == hw_ok &&
                       (!sw_ok || (bitwiseEqual(dy_sw_, dy_hw_) &&
                                   bitwiseEqual(dx_sw_, dx_hw_))),
                   "Accelerator::executeSolve matches solveBlockedSystem "
                   "bitwise on a replayed window");
}

} // namespace perfbench
