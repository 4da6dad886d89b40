/**
 * @file
 * Persistent worker pool for the sweep runner. One pool owns N-1
 * long-lived threads plus the calling thread; dispatch() hands every
 * role a fixed index, so back-to-back sweeps reuse the same threads
 * instead of spawning and joining fresh ones per call.
 */

#ifndef AFFALLOC_SIM_WORKER_POOL_HH
#define AFFALLOC_SIM_WORKER_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/prof.hh"

namespace affalloc::sim
{

/**
 * A barrier-style pool: dispatch(body) runs body(role) once for every
 * role in [0, threads) — role threads-1 on the calling thread, the
 * rest on persistent workers — and returns when all roles finish.
 * Exceptions thrown by a role are captured and the lowest-role one is
 * rethrown on the caller after the barrier (deterministic reporting).
 *
 * A pool of 1 thread runs everything inline (no threads spawned), so
 * callers need no special-casing for the serial configuration.
 */
class WorkerPool
{
  public:
    /** Build a pool with @p threads total roles (including caller). */
    explicit WorkerPool(unsigned threads);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Total roles, including the dispatching caller. */
    unsigned threads() const { return numThreads_; }

    /**
     * Run body(role) for every role in [0, threads()) and block until
     * all complete. Not reentrant: dispatch() must not be called from
     * inside a body.
     */
    void dispatch(const std::function<void(unsigned)> &body);

    /**
     * Utilization telemetry accumulated since construction (all zeros
     * unless the profiler was runtime-enabled during dispatches).
     * Safe to call between dispatches; a concurrent dispatch can only
     * make the snapshot slightly stale, never torn.
     */
    prof::PoolTelemetry telemetrySnapshot() const;

  private:
    void workerLoop(unsigned role);
    void runRole(unsigned role);

    unsigned numThreads_;
    std::vector<std::thread> workers_;
    std::vector<std::exception_ptr> errors_;
    /** Per-role busy ns inside dispatched bodies (profiler-enabled
     *  dispatches only). */
    std::vector<std::atomic<std::uint64_t>> busyNs_;
    /** Per-role duration of the body in the current/last dispatch. */
    std::vector<std::atomic<std::uint64_t>> lastTaskNs_;
    std::atomic<std::uint64_t> dispatches_{0};
    std::atomic<std::uint64_t> sumMaxTaskNs_{0};
    std::atomic<std::uint64_t> sumTaskNs_{0};
    const std::function<void(unsigned)> *body_ = nullptr;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::uint64_t generation_ = 0;
    unsigned pending_ = 0;
    bool stop_ = false;
};

/**
 * A lazily-built process-wide pool with at least @p threads roles,
 * shared by callers that parallelize one-at-a-time (the sweep runner
 * reuses it across every figure's sweeps instead of spawning fresh
 * threads per call). Grows but never shrinks. The caller must
 * serialize use (see runSweepTasks for the busy-flag fallback).
 */
WorkerPool &sharedWorkerPool(unsigned threads);

} // namespace affalloc::sim

#endif // AFFALLOC_SIM_WORKER_POOL_HH
