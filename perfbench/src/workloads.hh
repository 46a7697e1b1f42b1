/**
 * @file
 * The three benchmark workloads (perfbench/README.md) and the window
 * ledger they share: the simulated-clock numbers and exact work counts
 * of the windows a workload solved, computed from outside the library
 * through its public models (hw::Accelerator::windowTiming,
 * hw::HostInterface, baseline::windowFlops, synth::PowerModel).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <vector>

#include "dataset/sequence.hh"
#include "harness.hh"
#include "hw/accelerator.hh"
#include "slam/estimator.hh"

namespace perfbench {

/** The evaluation's KITTI-like sequence (bench/bench_common.hh). */
archytas::dataset::SequenceConfig kittiLikeConfig(double duration,
                                                  std::uint64_t seed);
/** The evaluation's EuRoC-like sequence (bench/bench_common.hh). */
archytas::dataset::SequenceConfig eurocLikeConfig(double duration,
                                                  std::uint64_t seed);
/** Estimator options of every workload: a 10-keyframe window. */
archytas::slam::EstimatorOptions estimatorOptions();

/** Simulated-clock and work-count ledger of a set of solved windows. */
class WindowLedger
{
  public:
    /**
     * Adds one window: its timing on the accelerator that ran it, that
     * accelerator's power while busy, the host-link transaction, and the
     * frame's simulated latency (link plus window for a dedicated
     * accelerator; completion minus availability in the service).
     */
    void add(const archytas::slam::WindowWorkload &workload,
             const archytas::hw::WindowTiming &timing, double watts,
             double link_ms, std::size_t link_words, double frame_ms);

    std::size_t windows() const { return window_ms_.size(); }

    /** sim_window_ms_*, sim_frame_ms_*, sim_energy_mj_per_window,
     *  synth_power_w, hw.cycles.*, hw.link_*, linalg.flops_per_window. */
    void report(Report &report) const;

  private:
    std::vector<double> window_ms_;
    std::vector<double> frame_ms_;
    double energy_mj_ = 0.0;
    double jacobian_ = 0.0, dschur_ = 0.0, mschur_ = 0.0, cholesky_ = 0.0,
           bsub_ = 0.0, marg_ = 0.0, total_ = 0.0;
    double link_words_ = 0.0, link_ms_ = 0.0, flops_ = 0.0;
};

void runKittiSingle(const Options &options, Report &report, Checks &checks);
void runFleet(const Options &options, Report &report, Checks &checks);
void runDesignFlow(const Options &options, Report &report, Checks &checks);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
