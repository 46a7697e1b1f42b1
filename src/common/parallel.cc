#include "common/parallel.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "common/telemetry.hh"

namespace archytas::parallel {

namespace {

/** Nesting depth of pool tasks on this thread. */
// archytas-analyzer: allow(global-state) -- per-thread nesting marker;
// it gates inline execution of nested regions (the mechanism that keeps
// per-session numerics schedule-independent) and never reaches results.
thread_local int region_depth = 0;

/** RAII region marker used around every task invocation. */
struct RegionGuard
{
    RegionGuard() { ++region_depth; }
    ~RegionGuard() { --region_depth; }
    RegionGuard(const RegionGuard &) = delete;
    RegionGuard &operator=(const RegionGuard &) = delete;
};

/** ARCHYTAS_THREADS, falling back to hardware concurrency; >= 1. */
std::size_t
defaultThreadCount()
{
    if (const char *env = std::getenv("ARCHYTAS_THREADS")) {
        char *endp = nullptr;
        const unsigned long v = std::strtoul(env, &endp, 10);
        if (endp && *endp == '\0' && v >= 1 && v <= 1024)
            return static_cast<std::size_t>(v);
        ARCHYTAS_WARN("ignoring invalid ARCHYTAS_THREADS='", env,
                      "' (want an integer in [1, 1024])");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<std::size_t>(hw) : 1;
}

/**
 * The process-wide pool. Workers are spawned lazily on the first
 * parallel call that can use them and joined on resize / process exit.
 * One job runs at a time (nested calls run inline via the region
 * guard); the calling thread always participates in the job.
 */
class Pool
{
  public:
    static Pool &
    instance()
    {
        // archytas-analyzer: allow(global-state) -- the one intentional
        // process-wide pool: all sessions share these workers, and the
        // disjoint-state contract (parallel.hh) makes results
        // independent of which worker runs which task.
        static Pool pool;
        return pool;
    }

    std::size_t
    size()
    {
        std::lock_guard<std::mutex> lk(mutex_);
        return size_;
    }

    void
    resize(std::size_t n)
    {
        ARCHYTAS_ASSERT(region_depth == 0,
                        "setThreadCount inside a parallel region");
        // Wait out any in-flight top-level job before retiring workers.
        std::lock_guard<std::mutex> job_lk(job_mutex_);
        joinWorkers();
        std::lock_guard<std::mutex> lk(mutex_);
        size_ = n == 0 ? defaultThreadCount() : n;
    }

    void
    run(std::size_t n, const std::function<void(std::size_t)> &task)
    {
        if (n == 0)
            return;
        if (region_depth > 0 || n == 1 || size() == 1) {
            runInline(n, task);
            return;
        }

        // One top-level job at a time: concurrent calls from distinct
        // non-pool threads queue here instead of clobbering job_.
        std::lock_guard<std::mutex> job_lk(job_mutex_);

        Job job;
        job.n = n;
        job.task = &task;
        job.errors.resize(n);
        {
            std::lock_guard<std::mutex> lk(mutex_);
            spawnWorkersLocked();
            job_ = &job;
            ++generation_;
        }
        work_cv_.notify_all();

        const std::size_t mine = drain(job);

        {
            std::unique_lock<std::mutex> lk(mutex_);
            job.completed += mine;
            done_cv_.wait(lk, [&] {
                return job.completed == job.n && job.active == 0;
            });
            job_ = nullptr;
        }
        for (std::size_t i = 0; i < n; ++i)
            if (job.errors[i])
                std::rethrow_exception(job.errors[i]);
    }

  private:
    struct Job
    {
        std::size_t n = 0;
        const std::function<void(std::size_t)> *task = nullptr;
        std::atomic<std::size_t> next{0};
        std::size_t completed = 0;   //!< Guarded by Pool::mutex_.
        std::size_t active = 0;      //!< Workers inside drain(); guarded.
        std::vector<std::exception_ptr> errors;
    };

    Pool() : size_(defaultThreadCount())
    {
        // Build the telemetry registry before the pool. Function-local
        // statics are destroyed in reverse order of construction, so
        // the registry then outlives ~Pool, whose exiting workers fold
        // their thread-local telemetry shards into it.
        static_cast<void>(telemetry::enabled());
    }

    ~Pool() { joinWorkers(); }

    static void
    runInline(std::size_t n, const std::function<void(std::size_t)> &task)
    {
        RegionGuard guard;
        for (std::size_t i = 0; i < n; ++i)
            task(i);
    }

    /** Claims and executes tasks until the job is exhausted. */
    static std::size_t
    drain(Job &job)
    {
        RegionGuard guard;
        std::size_t done = 0;
        for (;;) {
            const std::size_t i =
                job.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= job.n)
                break;
            try {
                (*job.task)(i);
            } catch (...) {
                job.errors[i] = std::current_exception();
            }
            ++done;
        }
        return done;
    }

    void
    workerLoop()
    {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lk(mutex_);
        for (;;) {
            work_cv_.wait(lk, [&] {
                return stop_ || (job_ != nullptr && generation_ != seen);
            });
            if (stop_)
                return;
            seen = generation_;
            Job *job = job_;
            ++job->active;
            lk.unlock();
            const std::size_t done = drain(*job);
            lk.lock();
            job->completed += done;
            --job->active;
            if (job->completed == job->n && job->active == 0)
                done_cv_.notify_all();
        }
    }

    void
    spawnWorkersLocked()
    {
        if (!workers_.empty() || size_ <= 1)
            return;
        workers_.reserve(size_ - 1);
        for (std::size_t i = 0; i + 1 < size_; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    void
    joinWorkers()
    {
        {
            std::lock_guard<std::mutex> lk(mutex_);
            stop_ = true;
        }
        work_cv_.notify_all();
        for (auto &w : workers_)
            w.join();
        workers_.clear();
        std::lock_guard<std::mutex> lk(mutex_);
        stop_ = false;
    }

    std::mutex job_mutex_;
    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> workers_;
    Job *job_ = nullptr;          //!< Guarded by mutex_.
    std::uint64_t generation_ = 0; //!< Guarded by mutex_.
    bool stop_ = false;           //!< Guarded by mutex_.
    std::size_t size_ = 1;        //!< Guarded by mutex_.
};

} // namespace

std::size_t
threadCount()
{
    return Pool::instance().size();
}

void
setThreadCount(std::size_t n)
{
    Pool::instance().resize(n);
}

bool
inParallelRegion()
{
    return region_depth > 0;
}

void
runTasks(std::size_t n, const std::function<void(std::size_t)> &task)
{
    Pool::instance().run(n, task);
}

void
parallelFor(std::size_t begin, std::size_t end,
            const std::function<void(std::size_t)> &body)
{
    if (begin >= end)
        return;
    const std::size_t n = end - begin;
    // Small over-decomposition smooths uneven per-index work; since every
    // index writes disjoint state, the chunking has no numeric effect.
    const std::size_t chunks = std::min(n, threadCount() * 4);
    const std::size_t grain = (n + chunks - 1) / chunks;
    runTasks(chunks, [&](std::size_t c) {
        const std::size_t b = begin + c * grain;
        const std::size_t e = std::min(end, b + grain);
        for (std::size_t i = b; i < e; ++i)
            body(i);
    });
}

void
parallelForChunks(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)> &body)
{
    ARCHYTAS_ASSERT(grain > 0, "parallelForChunks: grain must be positive");
    if (begin >= end)
        return;
    const std::size_t n = end - begin;
    const std::size_t chunks = (n + grain - 1) / grain;
    runTasks(chunks, [&](std::size_t c) {
        const std::size_t b = begin + c * grain;
        const std::size_t e = std::min(end, b + grain);
        body(b, e);
    });
}

} // namespace archytas::parallel
