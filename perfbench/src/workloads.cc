#include "baseline/flops.hh"
#include "workloads.hh"

namespace perfbench {

archytas::dataset::SequenceConfig
kittiLikeConfig(double duration, std::uint64_t seed)
{
    archytas::dataset::SequenceConfig cfg;
    cfg.duration = duration;
    cfg.landmarks = 1400;
    cfg.max_features_per_frame = 120;
    cfg.density_modulation = 0.9;
    cfg.seed = seed;
    return cfg;
}

archytas::dataset::SequenceConfig
eurocLikeConfig(double duration, std::uint64_t seed)
{
    archytas::dataset::SequenceConfig cfg;
    cfg.duration = duration;
    cfg.landmarks = 3000;
    cfg.max_features_per_frame = 120;
    cfg.density_modulation = 0.5;
    cfg.seed = seed;
    return cfg;
}

archytas::slam::EstimatorOptions
estimatorOptions()
{
    archytas::slam::EstimatorOptions opts;
    opts.window_size = 10;
    return opts;
}

void
WindowLedger::add(const archytas::slam::WindowWorkload &workload,
                  const archytas::hw::WindowTiming &timing, double watts,
                  double link_ms, std::size_t link_words, double frame_ms)
{
    const double ms = timing.totalMs();
    window_ms_.push_back(ms);
    frame_ms_.push_back(frame_ms);
    energy_mj_ += ms * watts;   // ms x W = mJ
    jacobian_ += timing.jacobian_busy;
    dschur_ += timing.dschur_busy;
    mschur_ += timing.mschur_busy;
    cholesky_ += timing.cholesky_busy;
    bsub_ += timing.bsub_busy;
    marg_ += timing.marg_cycles;
    total_ += timing.total_cycles;
    link_words_ += static_cast<double>(link_words);
    link_ms_ += link_ms;
    flops_ += archytas::baseline::windowFlops(workload, timing.iterations);
}

void
WindowLedger::report(Report &report) const
{
    const double n = static_cast<double>(windows() ? windows() : 1);
    double busy_ms = 0.0;
    for (const double ms : window_ms_)
        busy_ms += ms;
    report.set("sim_window_ms_p50", percentile(window_ms_, 50));
    report.set("sim_window_ms_p95", percentile(window_ms_, 95));
    report.set("sim_frame_ms_p50", percentile(frame_ms_, 50));
    report.set("sim_frame_ms_p95", percentile(frame_ms_, 95));
    report.set("sim_energy_mj_per_window", energy_mj_ / n);
    report.set("synth_power_w", busy_ms > 0 ? energy_mj_ / busy_ms : 0.0);
    report.set("hw.cycles.jacobian", jacobian_ / n);
    report.set("hw.cycles.dschur", dschur_ / n);
    report.set("hw.cycles.mschur", mschur_ / n);
    report.set("hw.cycles.cholesky", cholesky_ / n);
    report.set("hw.cycles.bsub", bsub_ / n);
    report.set("hw.cycles.marg", marg_ / n);
    report.set("hw.cycles.total", total_ / n);
    report.set("hw.link_words", link_words_ / n);
    report.set("hw.link_ms", link_ms_ / n);
    report.set("linalg.flops_per_window", flops_ / n);
}

} // namespace perfbench
