/**
 * @file
 * Deterministic fork-join parallelism for independent simulations.
 *
 * Sweeps and batch runs are embarrassingly parallel across
 * *instances*: every cell of a fig14/fig19/fig23 sweep and every
 * replica of a batch run is an independent simulation with its own
 * RNG streams. Within one simulation, only ThroughputSim's group is
 * split: its systems share nothing but the wire, so their
 * functional halves run ahead in parallel (WorkerPool) while the
 * wire's timing is replayed serially. Channels within one
 * MultiChipSystem or NumaSystem share caches and stay serial.
 *
 * parallelFor() and WorkerPool::run() encode the determinism
 * contract those callers rely on (DESIGN.md "Deterministic parallel
 * driver"):
 *
 *  1. work is identified by index, and every per-index computation
 *     must depend only on its index (seeds derived from the index,
 *     never from thread identity or timing);
 *  2. workers write results into per-index slots — no shared
 *     accumulator is touched concurrently;
 *  3. the caller reduces the slots in index order after the join.
 *
 * Under those rules the result is bit-identical for any worker
 * count, so `--jobs N` equals `--jobs 1` exactly — scheduling only
 * changes *when* an index runs, never *what* it computes or the
 * order results are merged.
 */

#ifndef CABLE_COMMON_WORKER_POOL_H
#define CABLE_COMMON_WORKER_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace cable
{

/** Worker count for "use the machine": hardware threads, >= 1. */
inline unsigned
hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

/**
 * A fixed set of worker threads for repeated fork-join rounds.
 * run(n, fn) runs fn(0) .. fn(n-1), pulling indices from a shared
 * atomic counter, and blocks until every index completed. The
 * calling thread works too, so the pool starts jobs - 1 threads,
 * on its first round that runs in parallel; a pool that never runs
 * one starts none. The destructor stops and joins them.
 *
 * A round runs inline on the caller's thread when jobs <= 1, n <= 1
 * or @p parallel is false — the zero-overhead reference execution
 * that parallel runs must reproduce bit-for-bit.
 *
 * The first exception thrown by any fn is captured and rethrown on
 * the calling thread after the round's join; remaining indices still
 * run (a simulation error should not strand detached work).
 */
class WorkerPool
{
  public:
    explicit WorkerPool(unsigned jobs) : jobs_(jobs ? jobs : 1) {}

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    ~WorkerPool()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        wake_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    void
    run(std::size_t n, const std::function<void(std::size_t)> &fn,
        bool parallel = true)
    {
        if (!parallel || jobs_ <= 1 || n <= 1) {
            for (std::size_t i = 0; i < n; ++i)
                fn(i);
            return;
        }
        if (threads_.empty())
            for (unsigned w = 1; w < jobs_; ++w)
                threads_.emplace_back([this] { work(); });
        {
            std::lock_guard<std::mutex> lock(mu_);
            fn_ = &fn;
            n_ = n;
            next_.store(0, std::memory_order_relaxed);
            busy_ = static_cast<unsigned>(threads_.size());
            ++round_;
        }
        wake_.notify_all();
        drain();
        std::unique_lock<std::mutex> lock(mu_);
        done_.wait(lock, [this] { return busy_ == 0; });
        if (error_)
            std::rethrow_exception(std::exchange(error_, nullptr));
    }

  private:
    /** Runs indices of the current round until none are left. */
    void
    drain()
    {
        while (true) {
            std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= n_)
                return;
            try {
                (*fn_)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu_);
                if (!error_)
                    error_ = std::current_exception();
            }
        }
    }

    void
    work()
    {
        std::uint64_t seen = 0;
        while (true) {
            {
                std::unique_lock<std::mutex> lock(mu_);
                wake_.wait(lock,
                           [&] { return stop_ || round_ != seen; });
                if (stop_)
                    return;
                seen = round_;
            }
            drain();
            std::lock_guard<std::mutex> lock(mu_);
            if (--busy_ == 0)
                done_.notify_one();
        }
    }

    unsigned jobs_;
    std::mutex mu_;
    std::condition_variable wake_; ///< a round started, or stop
    std::condition_variable done_; ///< the last worker left a round
    // The round: set under mu_ before the round's wake-up, so workers
    // read it after they see round_ move; constant until busy_ is 0.
    const std::function<void(std::size_t)> *fn_ = nullptr;
    std::size_t n_ = 0;
    std::uint64_t round_ = 0;
    unsigned busy_ = 0;
    bool stop_ = false;
    std::atomic<std::size_t> next_{0};
    std::exception_ptr error_;
    /** Last: the workers use every member above. */
    std::vector<std::thread> threads_;
};

/** One WorkerPool round over min(jobs, n) threads (the caller's
 *  among them), for a single fork-join. */
template <typename Fn>
void
parallelFor(std::size_t n, unsigned jobs, Fn &&fn)
{
    WorkerPool pool(n < jobs ? static_cast<unsigned>(n) : jobs);
    pool.run(n, [&fn](std::size_t i) { fn(i); });
}

} // namespace cable

#endif // CABLE_COMMON_WORKER_POOL_H
