/**
 * @file
 * Host-FPGA interface model (Sec. 6.2 / Sec. 7.1): "The FPGA is
 * triggered by the host for each sliding window. The host passes to the
 * FPGA the visual features from the sensing front-end as well as the
 * three customization parameters if they are different from the
 * previous sliding window." This module models that per-window
 * transaction — input DMA, the three-word gating configuration, the
 * trigger, and the result DMA — so the end-to-end latency can include
 * the transfer cost and the run-time system's claim of "effectively no
 * overhead" is checkable rather than assumed.
 *
 * Transactions carry a deadline and a bounded exponential-backoff retry
 * budget, so an injected DMA timeout or link stall (common/fault.hh)
 * degrades the window's latency instead of hanging the loop; when the
 * budget is exhausted the caller falls back to the software solver (see
 * hw/hw_solver.hh and docs/ROBUSTNESS.md). HwWindowSolver::solveWindow
 * runs each window's transaction exactly once, for a single robot and
 * for every service session alike; the service only reads the result.
 */

#ifndef ARCHYTAS_HW_HOST_INTERFACE_HH
#define ARCHYTAS_HW_HOST_INTERFACE_HH

#include "common/fault.hh"
#include "hw/config.hh"
#include "slam/state.hh"

namespace archytas::hw {

/** Bus/link characteristics between host and fabric. */
struct HostLink
{
    /** Sustained DMA bandwidth (bytes per second); AXI HP-port class. */
    double bandwidth_bytes_per_s = 1.2e9;
    /** Fixed per-transaction latency (s): driver + interrupt. */
    double transaction_overhead_s = 4e-6;
    /** Word size on the link (bytes). */
    std::size_t word_bytes = 4;
    /**
     * Per-attempt completion deadline (s). An attempt that has not
     * completed by the deadline is abandoned and retried; the deadline
     * bounds how long a wedged link can stall the localization loop.
     */
    double deadline_s = 2e-3;
    /** Retry budget after the first attempt. */
    std::size_t max_retries = 3;
    /** Backoff before the first retry (s); grows by backoff_factor. */
    double backoff_initial_s = 50e-6;
    double backoff_factor = 2.0;
};

/** How a window's host-FPGA exchange concluded. */
enum class TransactionStatus
{
    Ok,                    //!< First attempt met the deadline.
    RecoveredAfterRetry,   //!< Succeeded after one or more retries.
    DeadlineExceeded,      //!< Retry budget exhausted; the caller must
                           //!< fall back to the software solver.
};

/** Human-readable status name (for logs and HealthReports). */
const char *transactionStatusName(TransactionStatus status);

/** One window's transfer accounting. */
struct HostTransaction
{
    std::size_t input_words = 0;    //!< Features + observations in.
    std::size_t config_words = 0;   //!< 0 or 3 (nd, nm, s).
    std::size_t output_words = 0;   //!< State increments out.
    /** Wall time including abandoned attempts and backoff waits. */
    double total_seconds = 0.0;
    TransactionStatus status = TransactionStatus::Ok;
    std::size_t attempts = 1;       //!< DMA attempts consumed.

    /** True unless the retry budget was exhausted. */
    bool ok() const { return status != TransactionStatus::DeadlineExceeded; }

    double
    totalMs() const
    {
        return total_seconds * 1e3;
    }
};

/**
 * The outcome of one transaction under the deadline + bounded-retry +
 * exponential-backoff policy. Computed up front from the link
 * parameters and the fault plan, so it is deterministic in the plan and
 * independent of wall clock.
 */
struct AttemptSchedule
{
    double total_seconds = 0.0;   //!< Attempts plus backoff waits.
    TransactionStatus status = TransactionStatus::Ok;
    std::size_t attempts = 0;     //!< DMA attempts consumed.
    std::size_t misses = 0;       //!< Attempts that missed the deadline.
};

/**
 * Plans a transaction whose healthy single attempt takes
 * nominal_seconds. Pure function of its arguments.
 *
 * @param stall   Optional DmaStall event scaling every attempt.
 * @param timeout Optional DmaTimeout event forcing the first `count`
 *                attempts past the deadline.
 */
AttemptSchedule planAttempts(const HostLink &link, double nominal_seconds,
                             const FaultEvent *stall,
                             const FaultEvent *timeout);

/** Models the per-window host-FPGA exchange. */
class HostInterface
{
  public:
    explicit HostInterface(const HostLink &link = {});

    /**
     * Accounts one window's transaction on a healthy link.
     *
     * @param workload      The window's feature/observation counts.
     * @param config_changed True when the gated (nd, nm, s) differs
     *                      from the previous window (Sec. 6.2: the
     *                      triple is only sent on change).
     */
    [[nodiscard]] HostTransaction
    windowTransaction(const slam::WindowWorkload &workload,
                      bool config_changed) const;

    /**
     * Fault-aware variant: plans the transaction through the deadline +
     * retry + exponential-backoff machinery, applying any DmaTimeout /
     * DmaStall event the plan schedules for this window. A link too
     * slow for its deadline misses it without any fault. Deterministic
     * in the plan; records the host.* counters.
     *
     * @param window_index  Sliding-window index used to query the plan.
     * @param faults        Fault schedule (empty injects nothing).
     */
    [[nodiscard]] HostTransaction
    windowTransaction(const slam::WindowWorkload &workload,
                      bool config_changed, std::size_t window_index,
                      const FaultPlan &faults) const;

    /**
     * The reconfiguration cost in isolation: what the run-time system
     * adds to a window when it changes the configuration. The paper's
     * "little to none overhead" claim equals this being negligible next
     * to the window's compute latency.
     */
    double reconfigurationSeconds() const;

    const HostLink &link() const { return link_; }

  private:
    HostLink link_;
};

} // namespace archytas::hw

#endif // ARCHYTAS_HW_HOST_INTERFACE_HH
