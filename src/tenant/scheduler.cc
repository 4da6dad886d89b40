#include "tenant/scheduler.hh"

#include <algorithm>

#include "obs/chrome_trace.hh"
#include "obs/spatial_metrics.hh"
#include "sim/log.hh"
#include "sim/prof.hh"
#include "sim/rng.hh"
#include "tenant/qos.hh"

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

TenantScheduler::TenantScheduler(std::vector<TenantSpec> specs,
                                 CorunOptions opts)
    : opts_(std::move(opts))
{
    SIM_REQUIRE("tenant", !specs.empty(), "co-run needs >= 1 tenant");
    buildMachine(specs.size());

    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto t = std::make_unique<Tenant>();
        t->id = static_cast<std::uint32_t>(i);
        t->spec = specs[i];
        t->name = specs[i].workload + "#" + std::to_string(i);
        t->fn = specs[i].runner ? specs[i].runner
                                : workloadRunner(specs[i].workload);
        t->binding.id = t->id;
        t->binding.name = t->name;
        t->arena = t->id;
        t->seedIndex = t->id;
        notePresentClass(specs[i].cls);
        tenants_.push_back(std::move(t));
    }
}

void
TenantScheduler::buildMachine(std::size_t arenas)
{
    // Each arena (tenant or slot) adds one IOT entry per interleave
    // pool; make sure the default table does not silently cap them.
    const std::uint32_t needed =
        static_cast<std::uint32_t>(mem::numInterleavePools * arenas + 2);
    opts_.machine.iotEntries = std::max(opts_.machine.iotEntries, needed);

    os_ = std::make_unique<os::SimOS>(opts_.machine, opts_.heapPolicy);
    machine_ = std::make_unique<nsc::Machine>(opts_.machine, *os_);
    if (opts_.obs.any()) {
        observer_ = std::make_unique<obs::Observer>(opts_.obs);
        machine_->attachObserver(observer_.get());
    }
}

void
TenantScheduler::notePresentClass(AgentClass cls)
{
    presentMask_ |= 1u << static_cast<int>(cls);
    if (cls == AgentClass::ndc)
        haveForeground_ = true;
    machine_->setPresentClasses(presentMask_);
}

bool
TenantScheduler::allForegroundDone() const
{
    for (const auto &t : tenants_)
        if (t->spec.cls == AgentClass::ndc && !t->finished)
            return false;
    return true;
}

TenantScheduler::TenantScheduler(CorunOptions opts,
                                 std::uint32_t num_slots)
    : opts_(std::move(opts))
{
    SIM_REQUIRE("tenant", num_slots > 0,
                "open-system run needs >= 1 arena slot");
    openSlots_ = num_slots;
    // The IOT is sized for the recycled slots, not the (unbounded)
    // job count.
    buildMachine(num_slots);
    // Arena 0 is implicit; create the remaining slots now so the IOT
    // layout is fixed before the first job runs.
    for (std::uint32_t i = 1; i < num_slots; ++i)
        os_->createArena();
}

TenantScheduler::~TenantScheduler()
{
    // run() always joins before returning; nothing lingers here. The
    // explicit destructor only anchors the vtable-free impl in one TU.
}

workloads::RunConfig
TenantScheduler::tenantRunConfig(const Tenant &t)
{
    workloads::RunConfig rc;
    rc.mode = opts_.mode;
    rc.machine = opts_.machine;
    rc.heapPolicy = opts_.heapPolicy;
    rc.allocOpts = opts_.allocOpts;
    rc.allocOpts.arena = t.arena;
    rc.allocOpts.sharedLoads = &board_;
    rc.allocOpts.seed =
        Rng::substreamSeed(opts_.allocOpts.seed, t.seedIndex);
    rc.stopRequested = &drainBackground_;
    return rc;
}

std::uint64_t
TenantScheduler::quantumFor(const Tenant &t) const
{
    const std::uint64_t q = std::max<std::uint64_t>(1, opts_.quantumEpochs);
    return opts_.policy == SchedPolicy::weighted
               ? q * std::max<std::uint32_t>(1, t.spec.weight)
               : q;
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
    // hand the machine back to the scheduler thread.
    std::unique_lock<std::mutex> lk(mu_);
    t.binding.attributed += machine_->stats() - t.binding.resumeSnapshot;
    t.binding.resumeSnapshot = machine_->stats();
    running_ = -1;
    cv_.notify_all();
    cv_.wait(lk, [&] { return running_ == static_cast<int>(t.id); });
    t.binding.resumeSnapshot = machine_->stats();
    quantumUsed_ = 0;
}

void
TenantScheduler::tenantMain(Tenant &t)
{
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return running_ == static_cast<int>(t.id); });
        t.binding.resumeSnapshot = machine_->stats();
        quantumUsed_ = 0;
    }
    try {
        const workloads::RunConfig rc = tenantRunConfig(t);
        workloads::RunContext ctx(rc, *machine_, &t.binding);
        const std::uint64_t seed =
            Rng::substreamSeed(opts_.seed, t.seedIndex);
        t.result = t.fn(ctx, seed, opts_.quick);
    } catch (...) {
        t.error = std::current_exception();
        // The error may have unwound from mid-epoch while this tenant
        // held the machine. Abandon the half-built epoch so its stale
        // occupancy cannot corrupt the tenants still draining on the
        // shared machine (no-op if the epoch already closed).
        machine_->abortEpoch();
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        t.finished = true;
        running_ = -1;
    }
    cv_.notify_all();
}

void
TenantScheduler::grantQuantum(int next)
{
    // One scope per scheduling quantum: inclusive time covers the
    // handoff plus everything the tenant ran before yielding back.
    PROF_SCOPE("tenant/quantum");
    Tenant &t = *tenants_[next];
    obs::SpatialMetrics *metrics =
        observer_ ? observer_->metrics() : nullptr;
    obs::ChromeTracer *tracer = observer_ ? observer_->tracer() : nullptr;
    const Cycles grantCycle = machine_->now();
    // Everything until the yield is this agent's activity: per-class
    // attribution and the arbitration scale follow the grant.
    machine_->setActiveClass(t.spec.cls);
    {
        std::unique_lock<std::mutex> lk(mu_);
        current_ = static_cast<std::uint32_t>(next);
        quantum_ = quantumFor(t);
        // The per-tenant metrics overlay needs the full tenant list
        // up front (closed co-runs declare it); open-system jobs are
        // dynamic, so the overlay stays off there.
        if (metrics && openSlots_ == 0)
            metrics->setCurrentTenant(t.id);
        running_ = next;
        cv_.notify_all();
        cv_.wait(lk, [&] { return running_ == -1; });
    }
    const Cycles yieldCycle = machine_->now();
    if (tracer && yieldCycle > grantCycle)
        tracer->tenantSpan(t.id, t.name, grantCycle, yieldCycle);
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
        r.id = t->id;
        r.name = t->name;
        r.workload = t->spec.workload;
        r.weight = t->spec.weight;
        r.cls = t->spec.cls;
        r.run = t->result;
        r.finishCycle = t->binding.finishCycle;
        r.epochs = t->epochsRun;
        report.makespan = std::max(report.makespan, r.finishCycle);
        report.allValid = report.allValid && r.run.valid;
        report.tenants.push_back(std::move(r));
    }
    return report;
}

CorunReport
TenantScheduler::run()
{
    SIM_REQUIRE("tenant", !ran_, "TenantScheduler::run() is one-shot");
    SIM_REQUIRE("tenant", openSlots_ == 0,
                "open-system schedulers run through runOpen()");
    ran_ = true;

    // Tenant 0 uses the boot arena; every further tenant gets its own.
    for (std::size_t i = 1; i < tenants_.size(); ++i)
        os_->createArena();
    machine_->setEpochHook([this] { onEpoch(); });

    obs::SpatialMetrics *metrics =
        observer_ ? observer_->metrics() : nullptr;
    if (metrics) {
        std::vector<std::string> names;
        for (const auto &t : tenants_)
            names.push_back(t->name);
        metrics->setTenants(std::move(names));
    }

    for (auto &t : tenants_) {
        Tenant *tp = t.get();
        t->thread = std::thread([this, tp] { tenantMain(*tp); });
    }

    while (true) {
        const int next = pickNext();
        if (next < 0)
            break;
        grantQuantum(next);
        // Once every foreground tenant finished, ask the open-ended
        // background agents to wrap up at their next epoch boundary
        // (they would otherwise run to their own epoch caps).
        if (haveForeground_ && !drainBackground_ && allForegroundDone())
            drainBackground_ = true;
    }
    for (auto &t : tenants_)
        t->thread.join();
    machine_->setEpochHook(nullptr);
    for (auto &t : tenants_)
        if (t->error)
            std::rethrow_exception(t->error);

    return buildReport();
}

TenantScheduler::Tenant &
TenantScheduler::spawnJob(const AdmittedJob &job)
{
    SIM_REQUIRE("tenant", job.arena < openSlots_,
                "admitted job '%s' names arena %u but the run has %u "
                "slots",
                job.workload.c_str(), job.arena, openSlots_);
    auto t = std::make_unique<Tenant>();
    t->id = static_cast<std::uint32_t>(tenants_.size());
    t->name = job.name.empty()
                  ? job.workload + "#" + std::to_string(job.requestId)
                  : job.name;
    t->spec.workload = job.workload;
    t->spec.weight = job.weight;
    t->spec.cls = job.cls;
    t->fn = job.runner ? job.runner : workloadRunner(job.workload);
    notePresentClass(job.cls);
    t->binding.id = t->id;
    t->binding.name = t->name;
    t->arena = job.arena;
    t->seedIndex = job.requestId;
    t->job = job;
    tenants_.push_back(std::move(t));
    Tenant *tp = tenants_.back().get();
    tp->thread = std::thread([this, tp] { tenantMain(*tp); });
    return *tp;
}

CorunReport
TenantScheduler::runOpen(AdmissionControl &adm)
{
    SIM_REQUIRE("tenant", !ran_, "TenantScheduler::runOpen() is one-shot");
    SIM_REQUIRE("tenant", openSlots_ > 0,
                "runOpen needs the open-system constructor");
    ran_ = true;
    machine_->setEpochHook([this] { onEpoch(); });

    // On a job error: stop admitting, drain the jobs already in
    // flight (their threads must be granted to finish), then rethrow.
    std::exception_ptr firstError;
    while (true) {
        // An admission hook that throws must not unwind past parked
        // job threads (their std::thread dtors would terminate); fold
        // the error into the drain path instead.
        if (!firstError) {
            try {
                for (const AdmittedJob &job : adm.admit(machine_->now()))
                    spawnJob(job);
            } catch (...) {
                firstError = std::current_exception();
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
                firstError = std::current_exception();
                break; // nothing in flight: pickNext() was negative
            }
            if (dt == 0)
                break;
            machine_->advanceIdle(dt);
            continue;
        }
        grantQuantum(next);
        Tenant &t = *tenants_[next];
        if (t.finished && !t.joined) {
            // Join eagerly so at most openSlots_ threads exist.
            t.thread.join();
            t.joined = true;
            if (t.error && !firstError) {
                firstError = t.error;
            } else if (!t.error && !firstError) {
                try {
                    adm.onFinish(t.job, t.result,
                                 t.binding.finishCycle);
                } catch (...) {
                    firstError = std::current_exception();
                }
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
    TenantScheduler sched(specs, opts);
    CorunReport report = sched.run();
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
            workloads::RunConfig rc;
            rc.mode = opts.mode;
            rc.machine = opts.machine;
            rc.heapPolicy = opts.heapPolicy;
            rc.allocOpts = opts.allocOpts;
            rc.allocOpts.seed =
                Rng::substreamSeed(opts.allocOpts.seed, t.id);
            workloads::RunContext ctx(rc);
            const RunnerFn fn = workloadRunner(t.workload);
            const workloads::RunResult solo =
                fn(ctx, Rng::substreamSeed(opts.seed, t.id), opts.quick);
            t.soloCycles = solo.stats.cycles;
            report.allValid = report.allValid && solo.valid;
        }
        computeQos(report);
    }
    return report;
}

} // namespace affalloc::tenant
