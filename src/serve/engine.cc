/**
 * @file
 * The serving engine: arrival schedule generation, the admission
 * controller (an AdmissionControl driving TenantScheduler::runOpen),
 * mid-flight fault campaign application with re-affinity recovery,
 * and the per-class availability summary.
 */

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>

#include "mem/address.hh"
#include "obs/latency_hist.hh"
#include "serve/serve.hh"
#include "sim/log.hh"
#include "sim/prof.hh"
#include "sim/rng.hh"

namespace affalloc::serve
{

namespace
{

/** RNG substream ids private to the front-end (clear of request ids,
 *  which occupy 0..numRequests). */
constexpr std::uint64_t arrivalStream = 0x0a22117a1ULL;
constexpr std::uint64_t baselineStreamBase = 0x0ba5e11eULL;

/**
 * Request-id base for background interference jobs. Far above any
 * request id, so onFinish can tell the two apart without extra state
 * and the seed substreams stay clear of the request streams.
 */
constexpr std::uint64_t bgIdBase = 1ULL << 60;

std::string
jsonPair(const char *a, std::uint64_t av, const char *b, std::uint64_t bv)
{
    return std::string("\"") + a + "\":" + std::to_string(av) + ",\"" +
           b + "\":" + std::to_string(bv);
}

/**
 * The engine. One instance per runServe call; implements the
 * scheduler's admission interface. All state transitions happen at
 * scheduling rounds, keyed off the simulated clock only.
 */
class ServeEngine final : public tenant::AdmissionControl
{
  public:
    explicit ServeEngine(ServeOptions opts);

    ServeReport run();

    // ------------------------------------------- AdmissionControl hooks
    std::vector<tenant::AdmittedJob> admit(Cycles now) override;
    Cycles idleAdvance(Cycles now) override;
    void onFinish(const tenant::AdmittedJob &job,
                  const workloads::RunResult &result,
                  Cycles finish_cycle) override;

  private:
    struct Arrival
    {
        Cycles cycle = 0;
        std::uint64_t id = 0;
    };

    void generateArrivals();
    void measureUnloadedBaselines(const tenant::CorunOptions &copts);
    void applyFaultsUpTo(Cycles now);
    void reassignRedirects();
    /** Try to enqueue one arrival attempt (fresh or retried). */
    void attemptAdmission(RequestRecord &r, Cycles now);
    /** Drop queued requests older than their class give-up age. */
    void expireQueued(Cycles now);
    /** Horizon reached: everything not yet in service times out. */
    void flushPendingAtHorizon();
    void traceInstant(const char *name, Cycles ts,
                      const std::string &args);
    bool allResolved() const;
    void summarize(const tenant::CorunReport &corun);

    ServeOptions opts_;
    std::vector<Cycles> unloaded_; // per class
    std::vector<sim::TimedFault> schedule_;
    std::size_t nextFault_ = 0;

    std::vector<RequestRecord> requests_; // by id
    std::vector<Arrival> arrivals_;       // sorted by (cycle, id)
    std::size_t nextArrival_ = 0;
    /** Scheduled client retries, ordered by (due cycle, id). */
    std::set<std::pair<Cycles, std::uint64_t>> retries_;
    std::deque<std::uint64_t> queue_;
    std::set<std::uint32_t> freeSlots_;
    std::uint32_t resolved_ = 0;
    std::uint32_t iotCap_ = 0;
    /** Background interference jobs spawned (first admit() only). */
    bool backgroundAdmitted_ = false;
    /** Drain request already sent to the scheduler. */
    bool drainRequested_ = false;
    /** resolved_ value last reported to the progress heartbeat. */
    std::uint32_t progressReported_ = 0;

    tenant::TenantScheduler *sched_ = nullptr; // valid during run()
    ServeReport report_;
};

ServeEngine::ServeEngine(ServeOptions opts) : opts_(std::move(opts))
{
    if (opts_.classes.empty())
        opts_.classes = defaultServeClasses();
    SIM_REQUIRE("serve", opts_.numRequests > 0,
                "a serving run needs >= 1 request");
    SIM_REQUIRE("serve", opts_.slots > 0, "need >= 1 tenant slot");
    SIM_REQUIRE("serve", opts_.queueCapacity > 0,
                "need an admission queue of capacity >= 1");
    SIM_REQUIRE("serve", opts_.maxCycles > 0,
                "an open-system run needs a finite horizon (maxCycles)");
    SIM_REQUIRE("serve", opts_.arrivalsPerMcycle > 0.0,
                "arrival rate must be positive");
    SIM_REQUIRE("serve",
                opts_.burstiness >= 0.0 && opts_.burstiness <= 1.0,
                "burstiness %g outside [0, 1]", opts_.burstiness);
    double totalWeight = 0.0;
    for (const ServeClass &c : opts_.classes) {
        SIM_REQUIRE("serve", tenant::isWorkloadName(c.workload),
                    "unknown serve workload '%s'", c.workload.c_str());
        SIM_REQUIRE("serve", c.weight > 0.0,
                    "class '%s' needs a positive weight",
                    c.workload.c_str());
        totalWeight += c.weight;
    }
    SIM_REQUIRE("serve", totalWeight > 0.0, "empty workload mix");
    for (const tenant::TenantSpec &b : opts_.background)
        SIM_REQUIRE("serve",
                    b.runner || tenant::isWorkloadName(b.workload),
                    "background spec '%s' has neither a runner nor a "
                    "registered workload",
                    b.workload.c_str());

    // Fix the campaign's firing order.
    schedule_ = opts_.faultSchedule;
    std::stable_sort(schedule_.begin(), schedule_.end(),
                     [](const sim::TimedFault &a, const sim::TimedFault &b) {
                         return a.atCycle < b.atCycle;
                     });
    sim::validateFaultSchedule(schedule_, opts_.machine.meshX,
                               opts_.machine.meshY, opts_.maxCycles);

    // Background agents hold dedicated arenas past the request slots,
    // so the IOT budget covers both populations.
    const std::uint32_t totalSlots =
        opts_.slots +
        static_cast<std::uint32_t>(opts_.background.size());
    iotCap_ = static_cast<std::uint32_t>(mem::numInterleavePools) *
                  totalSlots + 2;
    for (std::uint32_t s = 0; s < opts_.slots; ++s)
        freeSlots_.insert(s);
}

void
ServeEngine::generateArrivals()
{
    Rng rng(Rng::substreamSeed(opts_.seed, arrivalStream));
    const double meanGap = 1e6 / opts_.arrivalsPerMcycle;
    double totalWeight = 0.0;
    for (const ServeClass &c : opts_.classes)
        totalWeight += c.weight;

    Cycles t = 0;
    requests_.resize(opts_.numRequests);
    for (std::uint32_t i = 0; i < opts_.numRequests; ++i) {
        // Exponential interarrival; a bursty draw compresses the gap
        // 8x, clustering arrivals without changing the offered count.
        double gap = -std::log(1.0 - rng.uniform()) * meanGap;
        if (opts_.burstiness > 0.0 && rng.uniform() < opts_.burstiness)
            gap /= 8.0;
        t += std::max<Cycles>(1, static_cast<Cycles>(gap));

        double pick = rng.uniform() * totalWeight;
        std::uint32_t cls = 0;
        for (; cls + 1 < opts_.classes.size(); ++cls) {
            if (pick < opts_.classes[cls].weight)
                break;
            pick -= opts_.classes[cls].weight;
        }
        RequestRecord &r = requests_[i];
        r.id = i;
        r.classIdx = cls;
        r.arrival = t;
        arrivals_.push_back(Arrival{t, i});
    }
}

void
ServeEngine::measureUnloadedBaselines(const tenant::CorunOptions &copts)
{
    PROF_SCOPE("serve/baseline");
    tenant::CorunOptions healthy = copts;
    healthy.machine.faults = sim::FaultConfig{};
    for (std::size_t c = 0; c < opts_.classes.size(); ++c) {
        const workloads::RunResult solo = tenant::runSolo(
            healthy, opts_.classes[c].workload, baselineStreamBase + c);
        SIM_REQUIRE("serve", solo.valid,
                    "unloaded baseline of '%s' failed validation",
                    opts_.classes[c].workload.c_str());
        unloaded_.push_back(std::max<Cycles>(1, solo.stats.cycles));
    }
}

void
ServeEngine::traceInstant(const char *name, Cycles ts,
                          const std::string &args)
{
    if (obs::Observer *o = sched_ ? sched_->machine().observer() : nullptr)
        if (obs::ChromeTracer *t = o->tracer())
            t->machineInstant(name, ts, args);
}

void
ServeEngine::attemptAdmission(RequestRecord &r, Cycles now)
{
    if (queue_.size() < opts_.queueCapacity) {
        queue_.push_back(r.id);
        r.enqueue = now;
        report_.peakQueueDepth = std::max(
            report_.peakQueueDepth,
            static_cast<std::uint32_t>(queue_.size()));
        traceInstant("request-enqueue", now,
                     jsonPair("req", r.id, "class", r.classIdx));
        return;
    }
    report_.shedAttempts += 1;
    const ServeClass &cls = opts_.classes[r.classIdx];
    if (r.retries < cls.maxRetries) {
        PROF_SCOPE("serve/retry");
        r.retries += 1;
        report_.retries += 1;
        prof::counterAdd("serve/retries", 1);
        const Cycles backoff =
            cls.retryBackoff
            << std::min<std::uint32_t>(r.retries - 1, 6);
        retries_.insert({now + std::max<Cycles>(1, backoff), r.id});
        traceInstant("request-retry", now,
                     jsonPair("req", r.id, "attempt", r.retries));
    } else {
        r.outcome = RequestOutcome::shed;
        resolved_ += 1;
        traceInstant("request-shed", now,
                     jsonPair("req", r.id, "class", r.classIdx));
    }
}

void
ServeEngine::expireQueued(Cycles now)
{
    std::deque<std::uint64_t> keep;
    for (const std::uint64_t id : queue_) {
        RequestRecord &r = requests_[id];
        const ServeClass &cls = opts_.classes[r.classIdx];
        if (now >= r.arrival && now - r.arrival >= cls.giveUpAfter) {
            r.outcome = RequestOutcome::timedOut;
            resolved_ += 1;
            traceInstant("request-timeout", now,
                         jsonPair("req", r.id, "waited",
                                  now - r.arrival));
        } else {
            keep.push_back(id);
        }
    }
    queue_.swap(keep);
}

void
ServeEngine::flushPendingAtHorizon()
{
    const Cycles now = sched_->machine().now();
    for (; nextArrival_ < arrivals_.size(); ++nextArrival_) {
        RequestRecord &r = requests_[arrivals_[nextArrival_].id];
        r.outcome = RequestOutcome::timedOut;
        resolved_ += 1;
    }
    for (const auto &[due, id] : retries_) {
        requests_[id].outcome = RequestOutcome::timedOut;
        resolved_ += 1;
    }
    retries_.clear();
    for (const std::uint64_t id : queue_) {
        requests_[id].outcome = RequestOutcome::timedOut;
        resolved_ += 1;
    }
    if (!queue_.empty() || nextArrival_ < arrivals_.size())
        traceInstant("serve-horizon", now, "\"flushed\":1");
    queue_.clear();
}

void
ServeEngine::applyFaultsUpTo(Cycles now)
{
    bool killed = false;
    nsc::Machine &m = sched_->machine();
    while (nextFault_ < schedule_.size() &&
           schedule_[nextFault_].atCycle <= now) {
        const sim::TimedFault &ev = schedule_[nextFault_++];
        if (ev.kind == sim::FaultKind::killBank) {
            if (!m.bankLive(ev.target))
                continue;
            if (m.faultPlan().numLiveBanks() <= 1) {
                // Spare capacity is exhausted: killing the last live
                // bank would leave nowhere to serve from. Degrade
                // gracefully instead of crashing the run.
                report_.killsSuppressed += 1;
                traceInstant("bank-kill-suppressed", now,
                             jsonPair("bank", ev.target, "live", 1));
                continue;
            }
            m.injectBankFault(ev.target);
            report_.banksKilled += 1;
            killed = true;
        } else if (ev.kind == sim::FaultKind::nackStorm) {
            m.injectNackStorm(ev.target);
            report_.nackStorms += 1;
        } else {
            m.injectLinkDegrade(ev.target, ev.factor);
            report_.linksDegraded += 1;
        }
    }
    if (killed && opts_.reaffinity)
        reassignRedirects();
}

void
ServeEngine::reassignRedirects()
{
    nsc::Machine &m = sched_->machine();
    sim::FaultPlan &plan = m.faultPlan();
    alloc::BankLoadBoard &board = sched_->loadBoard();
    const std::uint32_t numBanks = opts_.machine.numBanks();
    board.init(numBanks); // idempotent; zero if nothing allocated yet

    // Redirects assigned in this pass, so dead banks spread instead
    // of piling onto one lightly-loaded survivor.
    std::vector<std::uint32_t> pending(numBanks, 0);
    for (BankId dead = 0; dead < numBanks; ++dead) {
        if (plan.bankLive(dead))
            continue;
        const auto betterThan = [&](BankId a, BankId b) {
            if (pending[a] != pending[b])
                return pending[a] < pending[b];
            if (board.loads[a] != board.loads[b])
                return board.loads[a] < board.loads[b];
            return a < b;
        };
        BankId best = invalidBank;
        BankId runnerUp = invalidBank;
        for (BankId t = 0; t < numBanks; ++t) {
            if (!plan.bankLive(t))
                continue;
            if (best == invalidBank || betterThan(t, best)) {
                runnerUp = best;
                best = t;
            } else if (runnerUp == invalidBank ||
                       betterThan(t, runnerUp)) {
                runnerUp = t;
            }
        }
        SIM_REQUIRE("serve", best != invalidBank,
                    "re-affinity recovery found no live bank");
        const BankId defaultSpare = plan.redirect(dead);
        plan.setRedirect(dead, best);
        pending[best] += 1;
        report_.reaffinityMoves += 1;
        // The spare re-target moves the dead bank's stream context
        // and a line-buffer's worth of hot state; charge the traffic
        // (counters only — the clock is advanced by the next epoch).
        m.migrateStream(dead, best);
        m.forwardData(dead, best, 4096);
        if (obs::Observer *o = m.observer()) {
            if (obs::PlacementExplainer *e = o->explainer()) {
                obs::PlacementDecision dec;
                dec.policy = "reaffinity";
                dec.numAffinity = 1;
                dec.chosen = best;
                dec.chosenLoad =
                    static_cast<double>(board.loads[best]);
                dec.chosenScore =
                    static_cast<double>(pending[best] - 1);
                dec.runnerUp = runnerUp;
                dec.runnerUpScore =
                    runnerUp == invalidBank
                        ? 0.0
                        : static_cast<double>(board.loads[runnerUp]);
                e->record(dec);
            }
            if (obs::ChromeTracer *t = o->tracer())
                t->machineInstant(
                    "reaffinity", m.now(),
                    jsonPair("dead", dead, "to", best) +
                        ",\"defaultSpare\":" +
                        std::to_string(defaultSpare));
        }
    }
}

std::vector<tenant::AdmittedJob>
ServeEngine::admit(Cycles now)
{
    PROF_SCOPE("serve/admit");
    applyFaultsUpTo(now);

    // Background interference agents enter once, before any request:
    // they hold the arenas past the request slots for the whole run
    // and are drained (below) once every request resolves.
    std::vector<tenant::AdmittedJob> jobs;
    if (!backgroundAdmitted_) {
        backgroundAdmitted_ = true;
        for (std::size_t i = 0; i < opts_.background.size(); ++i) {
            const tenant::TenantSpec &spec = opts_.background[i];
            tenant::AdmittedJob job;
            static_cast<tenant::TenantSpec &>(job) = spec;
            job.requestId = bgIdBase + i;
            job.name = spec.workload + "#bg" + std::to_string(i);
            job.arena = opts_.slots + static_cast<std::uint32_t>(i);
            jobs.push_back(std::move(job));
            traceInstant("background-admit", now,
                         jsonPair("bg", i, "arena",
                                  opts_.slots + i));
        }
    }

    // Collect every arrival attempt due by now — fresh arrivals and
    // retried ones — and replay them in (cycle, id) order so the
    // admission sequence is a pure function of the simulated clock.
    std::vector<Arrival> due;
    while (nextArrival_ < arrivals_.size() &&
           arrivals_[nextArrival_].cycle <= now) {
        due.push_back(arrivals_[nextArrival_]);
        ++nextArrival_;
    }
    while (!retries_.empty() && retries_.begin()->first <= now) {
        due.push_back(Arrival{retries_.begin()->first,
                              retries_.begin()->second});
        retries_.erase(retries_.begin());
    }
    std::sort(due.begin(), due.end(),
              [](const Arrival &a, const Arrival &b) {
                  return a.cycle != b.cycle ? a.cycle < b.cycle
                                            : a.id < b.id;
              });

    if (now >= opts_.maxCycles) {
        for (const Arrival &a : due) {
            requests_[a.id].outcome = RequestOutcome::timedOut;
            resolved_ += 1;
        }
        flushPendingAtHorizon();
    } else {
        for (const Arrival &a : due)
            attemptAdmission(requests_[a.id], now);
        expireQueued(now);
    }

    // Dispatch from the queue into free slots, FIFO.
    while (!queue_.empty() && !freeSlots_.empty()) {
        const std::uint64_t id = queue_.front();
        queue_.pop_front();
        RequestRecord &r = requests_[id];
        const std::uint32_t arena = *freeSlots_.begin();
        freeSlots_.erase(freeSlots_.begin());
        r.admit = now;
        const ServeClass &cls = opts_.classes[r.classIdx];
        tenant::AdmittedJob job;
        job.requestId = id;
        job.workload = cls.workload;
        job.name = cls.workload + "#" + std::to_string(id);
        job.arena = arena;
        jobs.push_back(std::move(job));
        traceInstant("request-admit", now,
                     jsonPair("req", id, "arena", arena));
    }
    prof::progressNoteAdmitted(jobs.size());
    if (prof::progressEnabled() && resolved_ != progressReported_) {
        prof::progressAdvance(resolved_ - progressReported_);
        progressReported_ = resolved_;
    }
    // Every request resolved: ask the open-ended background agents to
    // wrap up at their next epoch boundary so the run can drain.
    if (allResolved() && !drainRequested_) {
        drainRequested_ = true;
        sched_->requestBackgroundDrain();
    }
    return jobs;
}

Cycles
ServeEngine::idleAdvance(Cycles now)
{
    // Called only when nothing is in service, which means every slot
    // is free, which means admit() drained the queue first.
    SIM_REQUIRE("serve", queue_.empty(),
                "idle with a non-empty admission queue");
    if (allResolved())
        return 0;
    Cycles next = opts_.maxCycles; // the horizon flush itself
    if (nextArrival_ < arrivals_.size())
        next = std::min(next, arrivals_[nextArrival_].cycle);
    if (!retries_.empty())
        next = std::min(next, retries_.begin()->first);
    if (nextFault_ < schedule_.size())
        next = std::min(next, schedule_[nextFault_].atCycle);
    return next > now ? next - now : 1;
}

void
ServeEngine::onFinish(const tenant::AdmittedJob &job,
                      const workloads::RunResult &result,
                      Cycles finish_cycle)
{
    if (job.requestId >= bgIdBase) {
        // Background interference agent: not a request — no record,
        // no slot to recycle (its arena is dedicated), no resolution
        // bookkeeping. It must still have validated its own run.
        SIM_REQUIRE("serve", result.valid,
                    "background agent '%s' failed validation",
                    job.name.c_str());
        traceInstant("background-finish", finish_cycle,
                     jsonPair("bg", job.requestId - bgIdBase, "arena",
                              job.arena));
        return;
    }

    RequestRecord &r = requests_[job.requestId];
    r.finish = finish_cycle;
    r.outcome = RequestOutcome::completed;
    r.valid = result.valid;
    resolved_ += 1;

    // Arena-recycle hygiene: the finished job's allocator must have
    // unregistered every host range in the slot's pool windows before
    // the arena is handed to the next request (the dtor/range-reuse
    // bug class turns into silent cross-request aliasing otherwise).
    os::SimOS &os = sched_->machine().simOs();
    const mem::AddressSpace &as = sched_->machine().addressSpace();
    for (int k = 0; k < mem::numInterleavePools; ++k) {
        const Addr base = os.poolVirtBaseOf(k, job.arena);
        const std::size_t left =
            as.numRangesInSimWindow(base, base + mem::arenaStride);
        SIM_REQUIRE("serve", left == 0,
                    "arena %u pool %d still has %zu host ranges "
                    "registered at slot recycle",
                    job.arena, k, left);
    }
    // And the IOT must stay sized by the slots, not the job count:
    // per-job entry leakage would exhaust the table under churn.
    SIM_REQUIRE("serve", os.iot().size() <= iotCap_,
                "IOT has %zu entries, past the %u-entry slot budget "
                "(per-job entries leaked)",
                os.iot().size(), iotCap_);

    freeSlots_.insert(job.arena);
    traceInstant("request-finish", finish_cycle,
                 jsonPair("req", job.requestId, "arena", job.arena));
}

bool
ServeEngine::allResolved() const
{
    return resolved_ >= opts_.numRequests;
}

void
ServeEngine::summarize(const tenant::CorunReport &corun)
{
    report_.offered = opts_.numRequests;
    report_.corunDigest = corun.digest();
    report_.endCycle = sched_->machine().now();

    std::vector<obs::LatencyHistogram> hist(opts_.classes.size());
    std::vector<ClassSummary> classes(opts_.classes.size());
    report_.allValid = true;
    for (const RequestRecord &r : requests_) {
        SIM_REQUIRE("serve", r.outcome != RequestOutcome::pending,
                    "request %llu left pending at end of run",
                    static_cast<unsigned long long>(r.id));
        ClassSummary &c = classes[r.classIdx];
        c.offered += 1;
        c.retries += r.retries;
        switch (r.outcome) {
          case RequestOutcome::completed:
            c.completed += 1;
            hist[r.classIdx].record(r.finish - r.arrival);
            report_.allValid = report_.allValid && r.valid;
            break;
          case RequestOutcome::shed:
            c.shed += 1;
            break;
          default:
            c.timedOut += 1;
            break;
        }
    }

    report_.completed = report_.shed = report_.timedOut = 0;
    for (std::size_t i = 0; i < classes.size(); ++i) {
        ClassSummary &c = classes[i];
        c.workload = opts_.classes[i].workload;
        c.unloadedCycles = unloaded_[i];
        c.p50 = hist[i].quantileUpperBound(0.50);
        c.p99 = hist[i].quantileUpperBound(0.99);
        c.p999 = hist[i].quantileUpperBound(0.999);
        const double base = static_cast<double>(c.unloadedCycles);
        c.p50Slowdown = static_cast<double>(c.p50) / base;
        c.p99Slowdown = static_cast<double>(c.p99) / base;
        c.p999Slowdown = static_cast<double>(c.p999) / base;
        c.availability =
            c.offered ? static_cast<double>(c.completed) / c.offered
                      : 0.0;
        report_.completed += c.completed;
        report_.shed += c.shed;
        report_.timedOut += c.timedOut;
        if (c.completed > 0)
            report_.worstP99Slowdown =
                std::max(report_.worstP99Slowdown, c.p99Slowdown);
    }
    report_.availability =
        static_cast<double>(report_.completed) / report_.offered;
    report_.goodputPerMcycle =
        report_.endCycle
            ? static_cast<double>(report_.completed) * 1e6 /
                  static_cast<double>(report_.endCycle)
            : 0.0;
    report_.classes = std::move(classes);
    report_.requests = std::move(requests_);
}

ServeReport
ServeEngine::run()
{
    prof::progressSetGoal(opts_.numRequests);
    generateArrivals();

    tenant::CorunOptions copts;
    copts.machine = opts_.machine;
    copts.mode = opts_.mode;
    copts.allocOpts = opts_.allocOpts;
    copts.policy = opts_.policy;
    copts.seed = opts_.seed;
    copts.quantumEpochs = opts_.quantumEpochs;
    copts.quick = opts_.quick;
    copts.solo = false;
    copts.obs = opts_.obs;
    measureUnloadedBaselines(copts);

    // Arena layout: [0, slots) recycle across requests; one dedicated
    // slot per background agent follows at [slots, slots + bg).
    const std::uint32_t totalSlots =
        opts_.slots +
        static_cast<std::uint32_t>(opts_.background.size());
    tenant::TenantScheduler sched(copts, totalSlots);
    sched_ = &sched;
    const tenant::CorunReport corun = sched.runOpen(*this);

    // Every request resolved, every slot back in the pool, and no
    // host range left registered anywhere: the machine fully drained.
    SIM_REQUIRE("serve", allResolved(),
                "run ended with unresolved requests");
    SIM_REQUIRE("serve", freeSlots_.size() == opts_.slots,
                "run ended with slots still claimed");
    SIM_REQUIRE("serve",
                sched.machine().addressSpace().size() == 0,
                "%zu host ranges still registered after drain",
                sched.machine().addressSpace().size());

    summarize(corun);
    sched_ = nullptr;
    return report_;
}

} // namespace

std::vector<ServeClass>
defaultServeClasses()
{
    // A cheap, shape-diverse mix: an affine stream kernel, a pointer
    // chase, and a hash join — all modest at quick scale so an open
    // run stays CI-sized.
    std::vector<ServeClass> mix(3);
    mix[0].workload = "vecadd";
    mix[0].weight = 3.0;
    mix[1].workload = "link_list";
    mix[1].weight = 2.0;
    mix[2].workload = "hash_join";
    mix[2].weight = 1.0;
    return mix;
}

ServeReport
runServe(const ServeOptions &opts)
{
    ServeEngine engine(opts);
    return engine.run();
}

} // namespace affalloc::serve
