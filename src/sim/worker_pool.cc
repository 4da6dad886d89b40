#include "sim/worker_pool.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

namespace affalloc::sim
{

namespace
{

prof::PoolTelemetry
poolTelemetryThunk(const void *key)
{
    return static_cast<const WorkerPool *>(key)->telemetrySnapshot();
}

} // namespace

WorkerPool::WorkerPool(unsigned threads)
    : numThreads_(threads == 0 ? 1 : threads), errors_(numThreads_),
      busyNs_(numThreads_), lastTaskNs_(numThreads_)
{
    if (prof::compiledIn)
        prof::registerPool(this, &poolTelemetryThunk);
    workers_.reserve(numThreads_ - 1);
    for (unsigned role = 0; role + 1 < numThreads_; ++role)
        workers_.emplace_back([this, role] { workerLoop(role); });
}

WorkerPool::~WorkerPool()
{
    // Fold the final snapshot into prof's retired list first: pools
    // (e.g. the shared sweep pool) can be torn down before the
    // atexit prof writer harvests.
    if (prof::compiledIn)
        prof::unregisterPool(this, telemetrySnapshot());
    {
        std::lock_guard<std::mutex> lk(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
WorkerPool::runRole(unsigned role)
{
    const std::uint64_t t0 = prof::nowNsIfEnabled();
    try {
        (*body_)(role);
    } catch (...) {
        errors_[role] = std::current_exception();
    }
    if (t0) {
        const std::uint64_t dt = prof::nowNs() - t0;
        busyNs_[role].fetch_add(dt, std::memory_order_relaxed);
        lastTaskNs_[role].store(dt, std::memory_order_relaxed);
    }
}

void
WorkerPool::workerLoop(unsigned role)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mutex_);
            wake_.wait(lk, [&] { return stop_ || generation_ != seen; });
            if (stop_)
                return;
            seen = generation_;
        }
        runRole(role);
        {
            std::lock_guard<std::mutex> lk(mutex_);
            if (--pending_ == 0)
                done_.notify_one();
        }
    }
}

void
WorkerPool::dispatch(const std::function<void(unsigned)> &body)
{
    body_ = &body;
    std::fill(errors_.begin(), errors_.end(), std::exception_ptr{});
    if (numThreads_ == 1) {
        runRole(0);
    } else {
        {
            std::lock_guard<std::mutex> lk(mutex_);
            generation_ += 1;
            pending_ = static_cast<unsigned>(workers_.size());
        }
        wake_.notify_all();
        runRole(numThreads_ - 1);
        std::unique_lock<std::mutex> lk(mutex_);
        done_.wait(lk, [&] { return pending_ == 0; });
    }
    body_ = nullptr;
    if (prof::enabled()) {
        // The barrier above orders every role's lastTaskNs_ store
        // before these loads; zero entries mean the role ran while
        // profiling was off (don't skew the imbalance ratio).
        std::uint64_t mx = 0, sum = 0;
        unsigned sampled = 0;
        for (unsigned role = 0; role < numThreads_; ++role) {
            const std::uint64_t v =
                lastTaskNs_[role].exchange(0, std::memory_order_relaxed);
            mx = std::max(mx, v);
            sum += v;
            sampled += v != 0;
        }
        if (sampled == numThreads_) {
            dispatches_.fetch_add(1, std::memory_order_relaxed);
            sumMaxTaskNs_.fetch_add(mx, std::memory_order_relaxed);
            sumTaskNs_.fetch_add(sum, std::memory_order_relaxed);
        }
    }
    for (auto &e : errors_) {
        if (e) {
            const std::exception_ptr first = e;
            std::rethrow_exception(first);
        }
    }
}

prof::PoolTelemetry
WorkerPool::telemetrySnapshot() const
{
    prof::PoolTelemetry t;
    t.threads = numThreads_;
    t.dispatches = dispatches_.load(std::memory_order_relaxed);
    t.busyNs.reserve(numThreads_);
    for (unsigned role = 0; role < numThreads_; ++role)
        t.busyNs.push_back(busyNs_[role].load(std::memory_order_relaxed));
    t.sumMaxTaskNs = sumMaxTaskNs_.load(std::memory_order_relaxed);
    t.sumTaskNs = sumTaskNs_.load(std::memory_order_relaxed);
    return t;
}

WorkerPool &
sharedWorkerPool(unsigned threads)
{
    static std::mutex m;
    static std::unique_ptr<WorkerPool> pool;
    std::lock_guard<std::mutex> lk(m);
    if (!pool || pool->threads() < threads)
        pool = std::make_unique<WorkerPool>(threads);
    return *pool;
}

} // namespace affalloc::sim
