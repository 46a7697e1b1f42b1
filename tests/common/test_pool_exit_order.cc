/**
 * @file
 * Process-exit order of the two process-wide singletons: the parallel
 * pool and the telemetry registry. The pool is built first here, the
 * registry second, and pool workers record telemetry; returning from
 * main then joins the workers, whose thread-local shards fold into the
 * registry as they exit. The registry must still be alive at that
 * point. A plain main() rather than a gtest case, because the check
 * is the static destruction after main returns -- the sanitizer builds
 * report a use-after-free there and fail the test.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/parallel.hh"
#include "common/telemetry.hh"

int
main()
{
    using namespace archytas;
    constexpr std::size_t kThreads = 4;

    parallel::setThreadCount(kThreads);   // Builds the pool first.
    telemetry::setEnabled(true);

    // Every task waits for all of them to start, so each pool thread
    // runs one and owns a telemetry shard when the process exits.
    std::atomic<std::size_t> started{0};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    parallel::parallelFor(0, kThreads, [&](std::size_t) {
        started.fetch_add(1);
        while (started.load() < kThreads &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        ARCHYTAS_COUNT_ADD("test.pool_exit_order", 1);
    });
    if (started.load() != kThreads) {
        std::fprintf(stderr, "pool ran %zu of %zu tasks at once\n",
                     started.load(), kThreads);
        return 1;
    }
    return 0;
}
