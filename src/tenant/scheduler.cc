#include "tenant/scheduler.hh"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <functional>
#include <utility>

#include "obs/chrome_trace.hh"
#include "obs/spatial_metrics.hh"
#include "sim/log.hh"
#include "sim/prof.hh"
#include "sim/rng.hh"
#include "tenant/qos.hh"

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef __SANITIZE_THREAD__
#include <sanitizer/tsan_interface.h>
#endif

namespace affalloc::tenant
{

const char *
schedPolicyName(SchedPolicy p)
{
    return p == SchedPolicy::weighted ? "weighted" : "rr";
}

SchedPolicy
parseSchedPolicy(const std::string &s)
{
    if (s == "rr" || s == "round-robin")
        return SchedPolicy::roundRobin;
    if (s == "weighted")
        return SchedPolicy::weighted;
    SIM_FATAL("tenant", "unknown scheduling policy '%s' (rr, weighted)",
              s.c_str());
    return SchedPolicy::roundRobin;
}

std::uint64_t
CorunReport::digest() const
{
    std::uint64_t d = 0xcbf29ce484222325ULL;
    for (const auto &t : tenants) {
        d ^= t.run.digest() + (t.id + 1) * 0x9e3779b97f4a7c15ULL;
        d *= 0x100000001b3ULL;
        d ^= t.finishCycle;
        d *= 0x100000001b3ULL;
    }
    return d;
}

namespace
{

/** Tenant substream @p stream's RunConfig (allocator seed included). */
workloads::RunConfig
tenantRunConfig(const CorunOptions &opts, std::uint64_t stream)
{
    workloads::RunConfig rc;
    rc.mode = opts.mode;
    rc.machine = opts.machine;
    rc.allocOpts = opts.allocOpts;
    rc.allocOpts.seed = Rng::substreamSeed(opts.allocOpts.seed, stream);
    return rc;
}

} // namespace

workloads::RunResult
runSolo(const CorunOptions &opts, const std::string &workload,
        std::uint64_t stream)
{
    workloads::RunContext ctx(tenantRunConfig(opts, stream));
    return workloadRunner(workload)(
        ctx, Rng::substreamSeed(opts.seed, stream), opts.quick);
}

namespace
{

// The sanitizers' fiber-switch annotations; no-ops in plain builds.
#ifdef __SANITIZE_ADDRESS__
void asanStart(void **fake, const void *stack, std::size_t bytes)
{ __sanitizer_start_switch_fiber(fake, stack, bytes); }
void asanFinish(void *fake, const void **stack, std::size_t *bytes)
{ __sanitizer_finish_switch_fiber(fake, stack, bytes); }
#else
void asanStart(void **, const void *, std::size_t) {}
void asanFinish(void *, const void **, std::size_t *) {}
#endif
#ifdef __SANITIZE_THREAD__
void *tsanCurrent() { return __tsan_get_current_fiber(); }
void *tsanCreate() { return __tsan_create_fiber(0); }
void tsanDestroy(void *fiber) { __tsan_destroy_fiber(fiber); }
void tsanSwitch(void *fiber) { __tsan_switch_to_fiber(fiber, 0); }
#else
void *tsanCurrent() { return nullptr; }
void *tsanCreate() { return nullptr; }
void tsanDestroy(void *) {}
void tsanSwitch(void *) {}
#endif

/**
 * One cooperative execution context on its own stack, switched with
 * glibc swapcontext on the thread that resumes it. The stack is an
 * 8 MiB anonymous mapping (pages are touched on demand) above a
 * PROT_NONE guard page, unmapped with the fiber; a fiber destroyed
 * before its body returned abandons whatever that stack held.
 * Switches carry the ASan/TSan fiber annotations, and resume() hands
 * the fiber the caller's profiler scope cursor and takes it back, so
 * the fiber's scopes nest under the scope that resumed it. No switch
 * may happen while an exception is in flight or inside a catch block:
 * the C++ runtime keeps that state per thread, and fibers share it.
 */
class Fiber
{
  public:
    explicit Fiber(std::function<void()> body) : body_(std::move(body))
    {
        page_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
        map_ = mmap(nullptr, page_ + stackBytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
        if (map_ == MAP_FAILED || mprotect(map_, page_, PROT_NONE) != 0)
            SIM_FATAL("tenant", "cannot map a guarded fiber stack: %s",
                      std::strerror(errno));
        getcontext(&self_);
        self_.uc_stack.ss_sp = stack();
        self_.uc_stack.ss_size = stackBytes;
        makecontext(&self_, &Fiber::entry, 0);
        tsanSelf_ = tsanCreate();
    }

    ~Fiber()
    {
        tsanDestroy(tsanSelf_);
        munmap(map_, page_ + stackBytes);
    }

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /** Run the fiber until it yields or its body returns. */
    void
    resume()
    {
        SIM_REQUIRE("tenant", std::uncaught_exceptions() == 0,
                    "fiber switch during exception unwinding");
        void *const cursor = prof::scopeCursor();
        starting_ = this;
        tsanCaller_ = tsanCurrent();
        tsanSwitch(tsanSelf_);
        void *fake = nullptr;
        asanStart(&fake, stack(), stackBytes);
        swapcontext(&caller_, &self_);
        asanFinish(fake, nullptr, nullptr);
        prof::setScopeCursor(cursor);
    }

    /** Suspend the running fiber back into resume(); @p last: for good. */
    void
    yield(bool last = false)
    {
        SIM_REQUIRE("tenant", std::uncaught_exceptions() == 0,
                    "fiber switch during exception unwinding");
        tsanSwitch(tsanCaller_);
        void *fake = nullptr;
        asanStart(last ? nullptr : &fake, callerStack_, callerStackBytes_);
        swapcontext(&self_, &caller_);
        asanFinish(fake, &callerStack_, &callerStackBytes_);
    }

  private:
    static constexpr std::size_t stackBytes = std::size_t{8} << 20;

    void *stack() const { return static_cast<char *>(map_) + page_; }

    static void
    entry()
    {
        Fiber *const f = starting_;
        asanFinish(nullptr, &f->callerStack_, &f->callerStackBytes_);
        f->body_();
        f->yield(/*last=*/true);
    }

    /** The fiber resume() is entering (read by entry() on first run). */
    static thread_local Fiber *starting_;

    std::function<void()> body_;
    void *map_ = nullptr;
    std::size_t page_ = 0;
    ucontext_t self_{};
    ucontext_t caller_{};
    /** The resuming stack, as ASan reports it at each switch-in. */
    const void *callerStack_ = nullptr;
    std::size_t callerStackBytes_ = 0;
    void *tsanSelf_ = nullptr;
    void *tsanCaller_ = nullptr;
};

thread_local Fiber *Fiber::starting_ = nullptr;

/** Closed co-run admission: every job enters at the first round. */
class CorunAdmission final : public AdmissionControl
{
  public:
    CorunAdmission(TenantScheduler &sched, std::vector<AdmittedJob> jobs)
        : sched_(sched), jobs_(std::move(jobs))
    {
        for (const AdmittedJob &j : jobs_)
            foreground_ += j.cls == AgentClass::ndc;
    }

    std::vector<AdmittedJob>
    admit(Cycles) override
    {
        return std::exchange(jobs_, {});
    }

    Cycles idleAdvance(Cycles) override { return 0; }

    void
    onFinish(const AdmittedJob &job, const workloads::RunResult &,
             Cycles) override
    {
        // Once every foreground tenant finished, ask the open-ended
        // background agents to wrap up at their next epoch boundary
        // (they would otherwise run to their own epoch caps).
        if (job.cls == AgentClass::ndc && --foreground_ == 0)
            sched_.requestBackgroundDrain();
    }

  private:
    TenantScheduler &sched_;
    std::vector<AdmittedJob> jobs_;
    std::size_t foreground_ = 0;
};

} // namespace

/** One admitted job and its fiber. */
struct TenantScheduler::Tenant
{
    /** The admission record; its runner resolved at spawn. */
    AdmittedJob job;
    /** Identity (id = admission order) and stats attribution. */
    workloads::TenantBinding binding;
    /** Released as soon as the job finishes. */
    std::unique_ptr<Fiber> fiber;
    bool finished = false;
    std::uint64_t epochsRun = 0;
    workloads::RunResult result;
    std::exception_ptr error;
};

TenantScheduler::TenantScheduler(CorunOptions opts,
                                 std::uint32_t num_slots)
    : opts_(std::move(opts)), slots_(num_slots)
{
    SIM_REQUIRE("tenant", num_slots > 0, "a run needs >= 1 arena slot");
    // Each slot adds one IOT entry per interleave pool; make sure the
    // default table does not silently cap them. The IOT is sized for
    // the slots, not the (unbounded) job count.
    const std::uint32_t needed = static_cast<std::uint32_t>(
        mem::numInterleavePools * num_slots + 2);
    opts_.machine.iotEntries = std::max(opts_.machine.iotEntries, needed);

    os_ = std::make_unique<os::SimOS>(opts_.machine);
    machine_ = std::make_unique<nsc::Machine>(opts_.machine, *os_);
    if (opts_.obs.any()) {
        observer_ = std::make_unique<obs::Observer>(opts_.obs);
        machine_->attachObserver(observer_.get());
    }
    // Arena 0 is implicit; create the remaining slots now so the IOT
    // layout is fixed before the first job runs.
    for (std::uint32_t i = 1; i < num_slots; ++i)
        os_->createArena();
}

TenantScheduler::~TenantScheduler() = default;

void
TenantScheduler::declareTenants(std::vector<std::string> names)
{
    SIM_REQUIRE("tenant", tenants_.empty(),
                "tenants must be declared before the first admission");
    declaredTenants_ = names.size();
    if (obs::SpatialMetrics *m = observer_ ? observer_->metrics() : nullptr)
        m->setTenants(std::move(names));
}

int
TenantScheduler::pickNext()
{
    const std::size_t n = tenants_.size();
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t idx = (rrNext_ + k) % n;
        if (!tenants_[idx]->finished) {
            rrNext_ = static_cast<std::uint32_t>((idx + 1) % n);
            return static_cast<int>(idx);
        }
    }
    return -1;
}

void
TenantScheduler::onEpoch()
{
    Tenant &t = *tenants_[current_];
    t.epochsRun += 1;
    t.binding.lastEpochCycle = machine_->now();
    if (++quantumUsed_ < quantum_)
        return;
    // Quantum expired: charge this tenant for the epochs it ran and
    // hand the machine back to the scheduler.
    t.binding.attributed += machine_->stats() - t.binding.resumeSnapshot;
    t.fiber->yield();
    t.binding.resumeSnapshot = machine_->stats();
    quantumUsed_ = 0;
}

void
TenantScheduler::tenantMain(Tenant &t)
{
    quantumUsed_ = 0;
    try {
        t.binding.resumeSnapshot = machine_->stats();
        workloads::RunConfig rc = tenantRunConfig(opts_, t.job.requestId);
        rc.allocOpts.arena = t.job.arena;
        rc.allocOpts.sharedLoads = &board_;
        rc.stopRequested = &drainBackground_;
        workloads::RunContext ctx(rc, *machine_, &t.binding);
        t.result = t.job.runner(
            ctx, Rng::substreamSeed(opts_.seed, t.job.requestId),
            opts_.quick);
    } catch (...) {
        t.error = std::current_exception();
    }
    // The error may have unwound from mid-epoch while this tenant held
    // the machine. Abandon the half-built epoch so its stale occupancy
    // cannot corrupt the tenants still draining on the shared machine
    // (no-op if the epoch already closed).
    if (t.error)
        machine_->abortEpoch();
    t.finished = true;
}

void
TenantScheduler::grantQuantum(int next)
{
    // One scope per scheduling quantum: the tenant's own scopes nest
    // beneath it, so its exclusive time is the switch overhead.
    PROF_SCOPE("tenant/quantum");
    Tenant &t = *tenants_[next];
    obs::SpatialMetrics *metrics =
        observer_ ? observer_->metrics() : nullptr;
    obs::ChromeTracer *tracer = observer_ ? observer_->tracer() : nullptr;
    const Cycles grantCycle = machine_->now();
    // Everything until the yield is this agent's activity: per-class
    // attribution and the arbitration scale follow the grant.
    machine_->setActiveClass(t.job.cls);
    current_ = static_cast<std::uint32_t>(next);
    const std::uint64_t q = std::max<std::uint64_t>(1, opts_.quantumEpochs);
    quantum_ = opts_.policy == SchedPolicy::weighted
                   ? q * std::max<std::uint32_t>(1, t.job.weight)
                   : q;
    if (metrics && t.binding.id < declaredTenants_)
        metrics->setCurrentTenant(t.binding.id);
    t.fiber->resume();
    const Cycles yieldCycle = machine_->now();
    if (tracer && yieldCycle > grantCycle)
        tracer->tenantSpan(t.binding.id, t.binding.name, grantCycle,
                           yieldCycle);
}

CorunReport
TenantScheduler::buildReport()
{
    obs::SpatialMetrics *metrics =
        observer_ ? observer_->metrics() : nullptr;

    CorunReport report;
    if (metrics) {
        metrics->setLinkFlits(machine_->network().lifetimeLinkFlits(),
                              machine_->network().mesh().numLinks());
        report.obsSnapshot = metrics->snapshot();
    }
    if (observer_)
        observer_->closeOutputs();

    report.policy = opts_.policy;
    report.allValid = true;
    for (auto &t : tenants_) {
        TenantResult r;
        r.id = t->binding.id;
        r.name = t->binding.name;
        r.workload = t->job.workload;
        r.weight = t->job.weight;
        r.cls = t->job.cls;
        r.run = t->result;
        r.finishCycle = t->binding.finishCycle;
        r.epochs = t->epochsRun;
        report.makespan = std::max(report.makespan, r.finishCycle);
        report.allValid = report.allValid && r.run.valid;
        report.tenants.push_back(std::move(r));
    }
    return report;
}

void
TenantScheduler::spawnJob(const AdmittedJob &job)
{
    SIM_REQUIRE("tenant", job.arena < slots_,
                "admitted job '%s' names arena %u but the run has %u "
                "slots",
                job.workload.c_str(), job.arena, slots_);
    auto t = std::make_unique<Tenant>();
    t->job = job;
    if (t->job.name.empty())
        t->job.name = job.workload + "#" + std::to_string(job.requestId);
    if (!t->job.runner)
        t->job.runner = workloadRunner(job.workload);
    t->binding.id = static_cast<std::uint32_t>(tenants_.size());
    t->binding.name = t->job.name;
    presentMask_ |= 1u << static_cast<int>(job.cls);
    machine_->setPresentClasses(presentMask_);
    Tenant *tp = t.get();
    t->fiber = std::make_unique<Fiber>([this, tp] { tenantMain(*tp); });
    tenants_.push_back(std::move(t));
}

CorunReport
TenantScheduler::runOpen(AdmissionControl &adm)
{
    SIM_REQUIRE("tenant", !ran_, "TenantScheduler::runOpen() is one-shot");
    ran_ = true;
    machine_->setEpochHook([this] { onEpoch(); });

    // On an error: stop admitting, drain the jobs already in flight
    // (and the background agents), then rethrow. Unwinding at once
    // would abandon their fibers with whatever their stacks own.
    std::exception_ptr firstError;
    const auto fail = [&](std::exception_ptr e) {
        if (!firstError)
            firstError = e;
        drainBackground_ = true;
    };
    while (true) {
        if (!firstError) {
            try {
                for (const AdmittedJob &job : adm.admit(machine_->now()))
                    spawnJob(job);
            } catch (...) {
                fail(std::current_exception());
            }
        }
        const int next = pickNext();
        if (next < 0) {
            if (firstError)
                break;
            Cycles dt = 0;
            try {
                dt = adm.idleAdvance(machine_->now());
            } catch (...) {
                fail(std::current_exception());
                break; // nothing in flight: pickNext() was negative
            }
            if (dt == 0)
                break;
            machine_->advanceIdle(dt);
            continue;
        }
        grantQuantum(next);
        Tenant &t = *tenants_[next];
        if (!t.finished)
            continue;
        t.fiber.reset();
        if (t.error) {
            fail(t.error);
        } else if (!firstError) {
            try {
                adm.onFinish(t.job, t.result, t.binding.finishCycle);
            } catch (...) {
                fail(std::current_exception());
            }
        }
    }
    machine_->setEpochHook(nullptr);
    if (firstError)
        std::rethrow_exception(firstError);
    return buildReport();
}

CorunReport
runCorun(const std::vector<TenantSpec> &specs, const CorunOptions &opts)
{
    SIM_REQUIRE("tenant", !specs.empty(), "co-run needs >= 1 tenant");
    TenantScheduler sched(opts, static_cast<std::uint32_t>(specs.size()));
    // Tenant i: arena, request id and RNG substream i.
    std::vector<AdmittedJob> jobs(specs.size());
    std::vector<std::string> names;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        static_cast<TenantSpec &>(jobs[i]) = specs[i];
        jobs[i].requestId = i;
        jobs[i].arena = static_cast<std::uint32_t>(i);
        jobs[i].name = specs[i].workload + "#" + std::to_string(i);
        names.push_back(jobs[i].name);
    }
    sched.declareTenants(std::move(names));
    CorunAdmission adm(sched, std::move(jobs));
    CorunReport report = sched.runOpen(adm);
    if (opts.solo) {
        // Solo baselines: the same work (same substream seed, same
        // inputs) alone on an identical machine. Sequential on
        // purpose — baselines must not perturb the co-run.
        for (auto &t : report.tenants) {
            // Background interference agents have no solo baseline:
            // they exist to perturb the foreground, and computeQos
            // already excludes soloCycles == 0 rows from aggregates.
            if (t.cls != AgentClass::ndc)
                continue;
            const workloads::RunResult solo = runSolo(opts, t.workload, t.id);
            t.soloCycles = solo.stats.cycles;
            report.allValid = report.allValid && solo.valid;
        }
        computeQos(report);
    }
    return report;
}

} // namespace affalloc::tenant
