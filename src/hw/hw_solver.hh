/**
 * @file
 * The fault-tolerant hardware window solver: drives the simulated
 * accelerator datapath through the host link for each sliding window,
 * exactly as the deployed system would (Sec. 6.2) — and survives the
 * faults a deployment sees. Per window it runs the host DMA transaction
 * (with deadline / bounded retry / exponential backoff from
 * hw/host_interface.hh) -- the one place a window's transaction is
 * run; the multi-robot service reads it back through lastTransaction().
 * When the retry budget is exhausted the window is solved by the
 * software path instead (graceful degradation), and injected
 * result-word bit-flips corrupt the accelerator's step so the
 * estimator's step-rejection and divergence-recovery machinery is
 * exercised end to end. Plugs into
 * slam::SlidingWindowEstimator::setWindowSolver.
 */

#ifndef ARCHYTAS_HW_HW_SOLVER_HH
#define ARCHYTAS_HW_HW_SOLVER_HH

#include "common/fault.hh"
#include "hw/accelerator.hh"
#include "hw/host_interface.hh"
#include "slam/estimator.hh"

namespace archytas::hw {

/** Lifetime statistics of the hardware window solver. */
struct HwSolveStats
{
    std::size_t windows = 0;            //!< Windows presented.
    std::size_t hw_windows = 0;         //!< Solved on the accelerator.
    std::size_t retried_windows = 0;    //!< DMA recovered after retry.
    std::size_t fallback_windows = 0;   //!< Solved in software after the
                                        //!< retry budget was exhausted.
    std::size_t bit_flips_injected = 0; //!< Result words corrupted.
    double link_seconds = 0.0;          //!< Accumulated transfer time,
                                        //!< failed attempts included.
};

/**
 * Executes each window's NLS solve on the accelerator behind the host
 * link, with fault injection and software fallback.
 */
class HwWindowSolver
{
  public:
    /**
     * @param config Accelerator configuration (the built design or a
     *               gated configuration).
     * @param link   Host link parameters (deadline, retry budget).
     * @param plan   Fault schedule; empty injects nothing.
     */
    explicit HwWindowSolver(const HwConfig &config,
                            const HostLink &link = {},
                            FaultPlan plan = {});

    /**
     * slam::SlidingWindowEstimator::WindowSolver entry point: runs the
     * window's host-link transaction, then solves the window on the
     * accelerator or, when the retry budget is exhausted, in software.
     * Windows are numbered in call order, matching FaultEvent::window.
     */
    [[nodiscard]] slam::LmReport
    solveWindow(slam::WindowProblem &problem,
                const slam::LmOptions &options,
                slam::HealthReport &health);

    /**
     * Installs this solver on an estimator. The solver must outlive the
     * estimator (the estimator keeps a non-owning reference).
     */
    void attach(slam::SlidingWindowEstimator &estimator);

    const HwSolveStats &stats() const { return stats_; }
    const Accelerator &accelerator() const { return accel_; }
    /** The host-link transaction of the most recent solveWindow. */
    const HostTransaction &lastTransaction() const { return last_txn_; }

  private:
    /** Flips `count` random bits across the result words dy/dx. */
    void corruptResult(const FaultEvent &event, linalg::Vector &dy,
                       linalg::Vector &dx);

    Accelerator accel_;
    HostInterface host_;
    FaultPlan plan_;
    HwSolveStats stats_;
    HostTransaction last_txn_;
    std::size_t window_index_ = 0;
    bool config_sent_ = false;
    /** Per-solver LM buffers: reused across windows (both the hardware
     *  LM loop and the software fallback), never shared between
     *  solvers, so concurrent sessions stay reentrant. */
    slam::SolverScratch scratch_;
};

} // namespace archytas::hw

#endif // ARCHYTAS_HW_HW_SOLVER_HH
