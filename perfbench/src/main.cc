/**
 * @file
 * The benchmark binary (perfbench/README.md).
 *
 *   archytas_perfbench --workload <kitti_single|fleet|design_flow>
 *                      --seed <n> --seconds <s> --trace <0|1>
 *                      [--out <dir>]
 *
 * Runs one workload and prints, as its last stdout line, one JSON object
 * {correct, attempted, failed, metrics}: the end-to-end metrics with
 * --trace 0, the per-layer metrics with --trace 1. The traced run also
 * writes its span trace, self-time table and the library's telemetry
 * export under --out. Exits 1 when an output check failed.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/parallel.hh"
#include "common/telemetry.hh"
#include "harness.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "archytas_perfbench: %s\nusage: archytas_perfbench "
                 "--workload <kitti_single|fleet|design_flow> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out <dir>]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            options.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            options.trace = std::string(value) == "1";
        else if (flag == "--out")
            options.out_dir = value;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 == 0)
        return usage("flags take one value each");
    if (!(options.seconds > 0))
        return usage("--seconds must be positive");
    if (options.trace && options.out_dir.empty())
        return usage("--trace 1 needs --out");

    void (*workload)(const Options &, Report &, Checks &) = nullptr;
    if (options.workload == "kitti_single")
        workload = runKittiSingle;
    else if (options.workload == "fleet")
        workload = runFleet;
    else if (options.workload == "design_flow")
        workload = runDesignFlow;
    else
        return usage("unknown workload");

    // Pin the pool (every workload, independent of the host's core
    // count) and warm it up before any set-up or timed work. Telemetry
    // stays off except inside the traced run's traced passes.
    archytas::parallel::setThreadCount(kThreads);
    archytas::parallel::parallelFor(0, 64, [](std::size_t) {});
    archytas::telemetry::setEnabled(false);

    Report report(options.trace);
    Checks checks;
    workload(options, report, checks);
    report.set("peak_rss_mb", peakRssMb());

    for (const std::string &name : report.unset())
        std::fprintf(stderr, "metric %s was not measured\n", name.c_str());
    std::printf("%s\n", report.json(checks).c_str());
    std::fflush(stdout);
    // Join the pool's workers while the telemetry registry still exists:
    // a worker's telemetry shard folds into the registry when the thread
    // exits, and at static destruction the registry (first used after
    // the pool was created) would already be gone.
    archytas::parallel::setThreadCount(1);
    return checks.failed() == 0 && report.unset().empty() ? 0 : 1;
}
