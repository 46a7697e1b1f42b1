/**
 * @file
 * The benchmark's spans around the estimator's public hooks
 * (SlidingWindowEstimator::setIterationController / setWindowSolver),
 * plus the traced run's window replay: before each window is solved, a
 * copy of its work is re-run through WindowProblem::build,
 * WindowProblem::evaluateCost, slam::solveBlockedSystem and
 * hw::Accelerator::executeSolve, each under its own span, and the two
 * linear solves are checked to agree bit for bit. The replay only reads
 * the problem (build and evaluateCost are const), so the estimator's
 * results are the same with and without it.
 */

#ifndef PERFBENCH_WINDOW_HOOKS_HH
#define PERFBENCH_WINDOW_HOOKS_HH

#include "harness.hh"
#include "hw/accelerator.hh"
#include "slam/estimator.hh"
#include "slam/lm_solver.hh"

namespace perfbench {

class WindowHooks
{
  public:
    WindowHooks(Tracer &tracer, Checks &checks);

    /** Replay every window before solving it (traced run only). */
    void setReplay(bool on) { replay_ = on; }

    /**
     * Installs the hooks on est. `solver` runs each window (empty: the
     * software solver, slam::solveWindow); `iterations` is the Iter
     * controller (empty: none). Both run under spans: runtime.on_window
     * and slam.solve. The hooks must outlive est.
     */
    void attach(archytas::slam::SlidingWindowEstimator &est,
                archytas::slam::SlidingWindowEstimator::WindowSolver solver,
                archytas::slam::SlidingWindowEstimator::IterationController
                    iterations);

  private:
    void replay(const archytas::slam::WindowProblem &problem,
                const archytas::slam::LmOptions &options);

    Tracer &tracer_;
    Checks &checks_;
    bool replay_ = false;
    archytas::slam::SlidingWindowEstimator::WindowSolver solver_;
    archytas::slam::SlidingWindowEstimator::IterationController iterations_;
    /** Buffers of the software solve path (solver_ empty). */
    archytas::slam::SolverScratch scratch_;
    /** Replay buffers and the datapath the replay runs on. */
    archytas::hw::Accelerator replay_accel_;
    archytas::slam::SolverScratch replay_scratch_;
    archytas::linalg::Vector dy_sw_, dx_sw_, dy_hw_, dx_hw_;
};

} // namespace perfbench

#endif // PERFBENCH_WINDOW_HOOKS_HH
