#include "nsc/machine.hh"

#include <algorithm>
#include <optional>

#include "mem/address.hh"
#include "sim/log.hh"
#include "sim/prof.hh"

namespace affalloc::nsc
{

namespace
{

// Event costs of the timing model.
/** L3 bank occupancy per line access (pipelined tag+data). */
constexpr double l3ServiceCycles = 0.5;
/** Extra L3 bank occupancy for an atomic RMW (serializes). */
constexpr double atomicExtraCycles = 0.5;
/** Core occupancy per issued memory instruction. */
constexpr double coreIssueCycles = 0.5;
/** Flops retired per cycle by a core (SIMD FMA throughput). */
constexpr double coreFlopsPerCycle = 32.0;
/** Flops retired per cycle by a near-stream SMT compute thread. */
constexpr double seFlopsPerCycle = 32.0;
/** Control message payload bytes (requests, credits). */
constexpr std::uint32_t controlBytes = 16;
/** Stream migration message payload bytes. */
constexpr std::uint32_t migrateBytes = 64;
/** Stream configuration message payload bytes. */
constexpr std::uint32_t configBytes = 96;
/** Fixed per-epoch overhead (sync, credit turnaround). */
constexpr double epochOverheadCycles = 64.0;

} // namespace

Machine::Machine(const sim::MachineConfig &cfg, os::SimOS &os)
    : cfg_(cfg), os_(os), net_(cfg, stats_),
      mapper_(cfg, os.iot(), &os.faultPlan()),
      dram_(cfg, net_.mesh(), stats_),
      bankBusy_(cfg.numBanks(), 0.0), coreBusy_(cfg.numTiles(), 0.0),
      seBusy_(cfg.numBanks(), 0.0), epochAtomics_(cfg.numBanks(), 0)
{
    cfg_.validate();
    net_.setFaultPlan(&os_.faultPlan());
    stats_.offlineBanks = os_.faultPlan().numOfflineBanks();
    // Bank numbering (§4.1): where bank id b physically sits.
    bankTile_.resize(cfg.numBanks());
    const auto &mesh = net_.mesh();
    for (BankId b = 0; b < cfg.numBanks(); ++b) {
        switch (cfg.bankNumbering) {
          case sim::BankNumbering::rowMajor:
            bankTile_[b] = b;
            break;
          case sim::BankNumbering::snake: {
            const std::uint32_t y = b / cfg.meshX;
            std::uint32_t x = b % cfg.meshX;
            if (y % 2 == 1)
                x = cfg.meshX - 1 - x;
            bankTile_[b] = mesh.tileAt(x, y);
            break;
          }
          case sim::BankNumbering::block2: {
            const std::uint32_t block = b / 4;
            const std::uint32_t within = b % 4;
            const std::uint32_t per_row = cfg.meshX / 2;
            const std::uint32_t bx = block % per_row;
            const std::uint32_t by = block / per_row;
            bankTile_[b] =
                mesh.tileAt(bx * 2 + within % 2, by * 2 + within / 2);
            break;
          }
        }
    }
    l3Banks_.reserve(cfg.numBanks());
    for (std::uint32_t b = 0; b < cfg.numBanks(); ++b)
        l3Banks_.emplace_back(cfg.l3BankSizeBytes, cfg.l3Assoc,
                              cfg.lineSize, /*hashed_index=*/true);
    l1_.reserve(cfg.numTiles());
    l2_.reserve(cfg.numTiles());
    for (std::uint32_t c = 0; c < cfg.numTiles(); ++c) {
        l1_.emplace_back(cfg.l1SizeBytes, cfg.l1Assoc, cfg.lineSize);
        l2_.emplace_back(cfg.l2SizeBytes, cfg.l2Assoc, cfg.lineSize);
        // TLBs track page-number tags: unit "line size" with the
        // entry count as the capacity.
        l1Tlb_.emplace_back(cfg.l1TlbEntries, cfg.l1TlbAssoc, 1);
        l2Tlb_.emplace_back(cfg.l2TlbEntries, 16, 1);
    }
    seTlb_.reserve(cfg.numBanks());
    for (std::uint32_t b = 0; b < cfg.numBanks(); ++b)
        seTlb_.emplace_back(cfg.seTlbEntries, 16, 1, true);

    auditor_.setEnabled(cfg_.simcheck.audit);
    auditor_.setPeriodEpochs(cfg_.simcheck.auditPeriodEpochs);
    watchdog_.setLimit(cfg_.simcheck.watchdogStallEpochs);
    auditor_.registerCheck("noc", "flit-conservation",
                           [this](simcheck::CheckContext &ctx) {
                               net_.auditConservation(ctx);
                           });
    auditor_.registerCheck("mem", "cache-integrity",
                           [this](simcheck::CheckContext &ctx) {
                               auditCaches(ctx);
                           });
    auditor_.registerCheck("mem", "mapping-consistency",
                           [this](simcheck::CheckContext &ctx) {
                               auditMapping(ctx);
                           });
    auditor_.registerCheck("traffic", "class-conservation",
                           [this](simcheck::CheckContext &ctx) {
                               // The per-class side counters and their
                               // snapshot only move together in the
                               // attribution flush, so the class slices
                               // must always sum to exactly the
                               // attributed total — no charge may leak
                               // out of (or be double-counted into) a
                               // class.
                               for (const auto &ref : sim::statsCounters()) {
                                   std::uint64_t sum = 0;
                                   for (int c = 0; c < numAgentClasses; ++c)
                                       sum += ref.get(classStats_[c]);
                                   const std::uint64_t want =
                                       ref.get(classAttribSnap_);
                                   if (sum != want) {
                                       ctx.failf(
                                           "per-class %s sums to %llu, "
                                           "attributed total is %llu",
                                           ref.name,
                                           (unsigned long long)sum,
                                           (unsigned long long)want);
                                       return;
                                   }
                               }
                           });
}

void
Machine::setActiveClass(AgentClass c)
{
    // Flush everything charged since the last flush to the class that
    // was active while it accrued, then switch.
    net_.flush();
    classStats_[static_cast<int>(activeClass_)] +=
        stats_ - classAttribSnap_;
    classAttribSnap_ = stats_;
    if (c != activeClass_) {
        activeClass_ = c;
        refreshArbScale();
    }
}

void
Machine::setPresentClasses(std::uint32_t mask)
{
    SIM_REQUIRE("nsc", mask != 0 &&
                mask < (1u << numAgentClasses),
                "present-class mask %#x invalid", mask);
    presentClasses_ = mask;
    refreshArbScale();
}

void
Machine::refreshArbScale()
{
    arbScale_ = 1.0;
    const int a = static_cast<int>(activeClass_);
    if (!(presentClasses_ & (1u << a)))
        return;
    int present = 0;
    for (int c = 0; c < numAgentClasses; ++c)
        if (presentClasses_ & (1u << c))
            ++present;
    if (present <= 1)
        return;
    const sim::ClassArbConfig &arb = cfg_.classArb;
    switch (arb.mode) {
      case sim::ClassArbMode::none:
        break;
      case sim::ClassArbMode::partition: {
        // Fluid weighted round-robin: a class holding share s out of
        // the present total serves its queue at s/total speed, so its
        // occupancy stretches by total/s.
        double total = 0.0;
        for (int c = 0; c < numAgentClasses; ++c)
            if (presentClasses_ & (1u << c))
                total += arb.share[c];
        arbScale_ = total / arb.share[a];
        break;
      }
      case sim::ClassArbMode::priority: {
        // Strict priority by class order: each higher-priority class
        // present steals yieldPenalty of this class's queue time.
        int higher = 0;
        for (int c = 0; c < a; ++c)
            if (presentClasses_ & (1u << c))
                ++higher;
        arbScale_ = 1.0 + arb.yieldPenalty * higher;
        break;
      }
    }
}

void
Machine::attachObserver(obs::Observer *o)
{
    obs_ = o;
    metrics_ = o ? o->metrics() : nullptr;
    tracer_ = o ? o->tracer() : nullptr;
    if (metrics_) {
        metrics_->init(cfg_.meshX, cfg_.meshY, bankTile_,
                       net_.mesh().numLinks());
    }
}

Cycles
Machine::coreTranslate(CoreId core, Addr vaddr)
{
    // Interleave pools are backed by contiguous physical segments
    // (direct-segment style, §4.1): translation is a base+offset
    // range check with no TLB involvement.
    if (vaddr >= mem::poolVirtBase)
        return 0;
    const Addr vpage = mem::pageOf(vaddr);
    stats_.tlbAccesses += 1;
    if (l1Tlb_[core].access(vpage, false).hit)
        return 0;
    if (l2Tlb_[core].access(vpage, false).hit)
        return cfg_.tlbLatency;
    stats_.tlbWalks += 1;
    return cfg_.tlbLatency + cfg_.tlbWalkLatency;
}

Cycles
Machine::seTlbProbe(BankId bank, Addr vpage)
{
    stats_.tlbAccesses += 1;
    if (seTlb_[bank].access(vpage, false).hit)
        return 0;
    stats_.tlbWalks += 1;
    return cfg_.tlbLatency + cfg_.tlbWalkLatency;
}

BankId
Machine::bankOfHost(const void *p) const
{
    return bankOfSim(addrSpace_.simAddrOf(p));
}

void
Machine::beginEpoch()
{
    std::fill(bankBusy_.begin(), bankBusy_.end(), 0.0);
    std::fill(coreBusy_.begin(), coreBusy_.end(), 0.0);
    std::fill(seBusy_.begin(), seBusy_.end(), 0.0);
    std::fill(epochAtomics_.begin(), epochAtomics_.end(), 0u);
    bankBusyMax_ = 0.0;
    coreBusyMax_ = 0.0;
    seBusyMax_ = 0.0;
    net_.resetEpoch();
    dram_.resetEpoch();
    epochStartStats_ = stats_;
    inEpoch_ = true;
    epochProfT0_ = prof::nowNsIfEnabled();
}

void
Machine::abortEpoch()
{
    if (!inEpoch_)
        return;
    if (epochProfT0_) {
        prof::addTimed("machine/epoch.record", prof::nowNs() - epochProfT0_);
        epochProfT0_ = 0;
    }
    // The cache/TLB state and the lifetime NoC counters keep the
    // aborted epoch's work; only the Stats counters rewind. Expand the
    // pending NoC pairs before the rewind: the lifetime link counters
    // keep the aborted traffic, while the degraded-link flits the
    // expansion adds to stats_ are rewound with the other Stats.
    net_.flush();
    // The restore rewinds every counter to the beginEpoch() snapshot;
    // carry the abort count itself across it so degradation stays
    // observable.
    const std::uint64_t aborted = stats_.abortedEpochs + 1;
    stats_ = epochStartStats_;
    stats_.abortedEpochs = aborted;
    // The rewind can only move counters back toward (never below) the
    // last attribution snapshot — snapshots are taken outside open
    // epochs — so attributing the post-restore delta keeps the
    // per-class slices conserved.
    classStats_[static_cast<int>(activeClass_)] +=
        stats_ - classAttribSnap_;
    classAttribSnap_ = stats_;
    std::fill(bankBusy_.begin(), bankBusy_.end(), 0.0);
    std::fill(coreBusy_.begin(), coreBusy_.end(), 0.0);
    std::fill(seBusy_.begin(), seBusy_.end(), 0.0);
    std::fill(epochAtomics_.begin(), epochAtomics_.end(), 0u);
    bankBusyMax_ = 0.0;
    coreBusyMax_ = 0.0;
    seBusyMax_ = 0.0;
    net_.resetEpoch();
    dram_.resetEpoch();
    inEpoch_ = false;
    if (tracer_)
        tracer_->machineInstant("epoch-abort", stats_.cycles, "");
}

Cycles
Machine::endEpoch(double latency_floor, const std::string &phase)
{
    // The in-epoch host time ends here; the audit below is timed on
    // its own.
    if (epochProfT0_) {
        prof::addTimed("machine/epoch.record", prof::nowNs() - epochProfT0_);
        epochProfT0_ = 0;
    }
    // Expand the epoch's pending NoC pairs onto the links: the link
    // term and the class attribution below read what they charge.
    net_.flush();
    // The busy maxima are maintained at charge time, so closing the
    // epoch no longer rescans every per-bank accumulator and link
    // counter. Class arbitration stretches only
    // the bank and link terms (the shared queues classes contend on);
    // the guard keeps single-class runs on the exact classic
    // arithmetic.
    double bankTerm = bankBusyMax_;
    double linkTerm = static_cast<double>(net_.maxLinkFlits());
    if (arbScale_ != 1.0) {
        bankTerm *= arbScale_;
        linkTerm *= arbScale_;
    }
    double busiest = latency_floor;
    busiest = std::max(busiest, bankTerm);
    busiest = std::max(busiest, coreBusyMax_);
    busiest = std::max(busiest, seBusyMax_);
    busiest = std::max(busiest, linkTerm);
    busiest = std::max(busiest, dram_.maxChannelBusy());

    const Cycles duration =
        static_cast<Cycles>(busiest + epochOverheadCycles);
    stats_.cycles += duration;
    stats_.epochs += 1;
    // Cleared before the watchdog/audit throw points below: once the
    // clock has advanced the epoch is committed, and a later
    // abortEpoch() must not rewind it.
    inEpoch_ = false;

    // Attribute the epoch's charges (including its duration) to the
    // active class before the audit below checks conservation.
    classStats_[static_cast<int>(activeClass_)] +=
        stats_ - classAttribSnap_;
    classAttribSnap_ = stats_;

    sim::EpochRecord rec;
    rec.endCycle = stats_.cycles;
    rec.atomicStreamsPerBank.assign(epochAtomics_.begin(),
                                    epochAtomics_.end());
    rec.phase = phase;
    timeline_.record(std::move(rec));

    if (metrics_) {
        metrics_->endEpoch(stats_.cycles, bankBusy_, net_.maxLinkFlits(),
                           net_.epochFlits());
    }
    if (tracer_) {
        tracer_->epochSpan(phase, stats_.cycles - duration, duration,
                           stats_.epochs);
    }

    // Livelock watchdog: an epoch counts as stalled when no *work*
    // counter moved. NoC messages deliberately do not count — an
    // offload NACK-retry storm generates plenty of traffic while
    // making zero forward progress, which is exactly the livelock
    // shape this exists to catch.
    const sim::Stats &pre = epochStartStats_;
    const bool progress =
        stats_.coreOps != pre.coreOps || stats_.seOps != pre.seOps ||
        stats_.atomicOps != pre.atomicOps ||
        stats_.l1Accesses != pre.l1Accesses ||
        stats_.l3Accesses != pre.l3Accesses ||
        stats_.dramAccesses != pre.dramAccesses ||
        stats_.streamConfigs != pre.streamConfigs ||
        stats_.streamMigrations != pre.streamMigrations;
    if (watchdog_.observe(progress)) {
        throw simcheck::LivelockError(detail::formatMessage(
            "panic: [nsc] livelock watchdog: %u consecutive epochs with no "
            "forward progress (cycle %llu, epoch %llu, offload retries this "
            "epoch %llu, offline banks %llu/%u); aborting instead of "
            "spinning",
            watchdog_.stalledEpochs(),
            static_cast<unsigned long long>(stats_.cycles),
            static_cast<unsigned long long>(stats_.epochs),
            static_cast<unsigned long long>(stats_.offloadRetries -
                                            pre.offloadRetries),
            static_cast<unsigned long long>(stats_.offlineBanks),
            cfg_.numBanks()));
    }

    {
        PROF_SCOPE("machine/epoch.audit");
        auditor_.onEpochEnd(stats_.epochs);
    }
    prof::rssEpochTick();
    prof::progressTick(stats_.epochs, stats_.cycles);
    if (epochHook_)
        epochHook_();
    return duration;
}

void
Machine::auditCaches(simcheck::CheckContext &ctx) const
{
    const auto check = [&ctx](const char *what, std::size_t idx,
                              const mem::CacheModel &c) {
        const std::string err = c.checkIntegrity();
        if (!err.empty())
            ctx.failf("%s[%zu]: %s", what, idx, err.c_str());
    };
    for (std::size_t b = 0; b < l3Banks_.size(); ++b)
        check("l3", b, l3Banks_[b]);
    for (std::size_t c = 0; c < l1_.size(); ++c)
        check("l1", c, l1_[c]);
    for (std::size_t c = 0; c < l2_.size(); ++c)
        check("l2", c, l2_[c]);
    for (std::size_t c = 0; c < l1Tlb_.size(); ++c)
        check("l1tlb", c, l1Tlb_[c]);
    for (std::size_t c = 0; c < l2Tlb_.size(); ++c)
        check("l2tlb", c, l2Tlb_[c]);
    for (std::size_t b = 0; b < seTlb_.size(); ++b)
        check("setlb", b, seTlb_[b]);
}

void
Machine::auditMapping(simcheck::CheckContext &ctx) const
{
    const auto &pt = os_.pageTable();
    const auto &iot = os_.iot();
    const sim::FaultPlan &plan = os_.faultPlan();

    // IOT entries must never overlap; hardware would pick one
    // nondeterministically.
    for (std::size_t i = 0; i < iot.size(); ++i) {
        for (std::size_t j = i + 1; j < iot.size(); ++j) {
            const mem::IotEntry &a = iot.entry(i);
            const mem::IotEntry &b = iot.entry(j);
            if (a.start < b.end && b.start < a.end) {
                ctx.failf("IOT entries %zu and %zu overlap "
                          "([%llx,%llx) vs [%llx,%llx))",
                          i, j, (unsigned long long)a.start,
                          (unsigned long long)a.end,
                          (unsigned long long)b.start,
                          (unsigned long long)b.end);
            }
        }
    }

    // One sampled page: translation, IOT coverage, Eq. 1 bank.
    const auto checkPage = [&](const char *what, int k, Addr vaddr,
                               std::optional<Addr> expect_pa,
                               std::uint32_t expect_intrlv) {
        const std::optional<Addr> pa = pt.tryTranslate(vaddr);
        if (!pa) {
            ctx.failf("%s %d: vaddr %llx inside brk but unmapped", what, k,
                      (unsigned long long)vaddr);
            return;
        }
        if (expect_pa && *pa != *expect_pa) {
            ctx.failf("%s %d: vaddr %llx maps to %llx, expected contiguous "
                      "backing at %llx",
                      what, k, (unsigned long long)vaddr,
                      (unsigned long long)*pa,
                      (unsigned long long)*expect_pa);
            return;
        }
        const mem::IotEntry *e = iot.lookup(*pa);
        if (!e) {
            ctx.failf("%s %d: paddr %llx not covered by any IOT entry",
                      what, k, (unsigned long long)*pa);
            return;
        }
        if (e->intrlv != expect_intrlv) {
            ctx.failf("%s %d: IOT interleave %u != %u the OS installed "
                      "(stale entry)",
                      what, k, e->intrlv, expect_intrlv);
            return;
        }
        const BankId raw = e->bankOf(*pa, cfg_.numBanks());
        const BankId expect = plan.redirect(raw);
        const BankId got = mapper_.bankOf(*pa);
        if (got != expect) {
            ctx.failf("%s %d: paddr %llx homed at bank %u, Eq. 1 predicts "
                      "%u (redirected from %u)",
                      what, k, (unsigned long long)*pa, got, expect, raw);
        }
    };

    for (std::uint32_t arena = 0; arena < os_.numArenas(); ++arena) {
        for (int k = 0; k < mem::numInterleavePools; ++k) {
            const Addr brk = os_.poolBrkOf(k, arena);
            if (brk == 0)
                continue;
            const Addr vbase = os_.poolVirtBaseOf(k, arena);
            const Addr pbase = mem::poolPhysBase +
                               Addr(k) * mem::terabyte +
                               Addr(arena) * mem::arenaStride;
            const Addr pages = mem::pageOf(brk + mem::pageSize - 1);
            const Addr stride = std::max<Addr>(1, pages / 32);
            for (Addr pg = 0; pg < pages; pg += stride) {
                checkPage("pool", k, vbase + pg * mem::pageSize,
                          pbase + pg * mem::pageSize,
                          mem::poolInterleave(k));
            }
            checkPage("pool", k, vbase + (pages - 1) * mem::pageSize,
                      pbase + (pages - 1) * mem::pageSize,
                      mem::poolInterleave(k));
        }
    }

    const Addr lpages = os_.largeBrkPages();
    if (lpages != 0) {
        const Addr stride = std::max<Addr>(1, lpages / 32);
        for (Addr pg = 0; pg < lpages; pg += stride) {
            checkPage("page-at-bank", 0, mem::largeVirtBase +
                      pg * mem::pageSize, std::nullopt,
                      static_cast<std::uint32_t>(mem::pageSize));
        }
    }
}

Machine::Probe
Machine::probeL3Line(BankId home, Addr pline, bool is_write)
{
    stats_.l3Accesses += 1;
    const auto res = l3Banks_[home].access(pline, is_write);
    if (metrics_)
        metrics_->bankAccess(home, res.hit);
    Probe p;
    p.hit = res.hit;
    if (!res.hit) {
        stats_.l3Misses += 1;
        const TileId ctrl = dram_.controllerTile(dram_.channelOf(pline));
        p.extra += send(bankTile_[home], ctrl, controlBytes,
                        TrafficClass::control);
        p.extra += dram_.access(pline, is_write);
        p.extra += send(ctrl, bankTile_[home],
                        cfg_.lineSize + controlBytes, TrafficClass::data);
    }
    if (res.writeback)
        writeBackL3Victim(home, res.victimLine);
    return p;
}

void
Machine::writeBackL3Victim(BankId home, Addr victim)
{
    // The dirty victim travels to its DRAM controller off the critical
    // path.
    const TileId ctrl = dram_.controllerTile(dram_.channelOf(victim));
    send(bankTile_[home], ctrl, cfg_.lineSize + controlBytes,
         TrafficClass::data);
    dram_.access(victim, true);
}

Cycles
Machine::send(TileId src, TileId dst, std::uint32_t bytes, TrafficClass tc)
{
    const Cycles latency = net_.send(src, dst, bytes, tc);
    if (!inEpoch_)
        net_.flush();
    return latency;
}

Cycles
Machine::ioWrite(TileId ingress, Addr vaddr, std::uint32_t bytes)
{
    SIM_REQUIRE("nsc", ingress < cfg_.numTiles(),
                "I/O ingress tile %u outside the %u-tile mesh", ingress,
                cfg_.numTiles());
    Cycles total = 0;
    const Addr first = vaddr / cfg_.lineSize;
    const Addr last = (vaddr + bytes - 1) / cfg_.lineSize;
    for (Addr vline = first; vline <= last; ++vline) {
        // Device-side translation (IOMMU/direct segment): no core TLB
        // is charged; the pool segments translate by range check.
        const Addr paddr =
            os_.pageTable().translate(vline * cfg_.lineSize);
        const Addr pline = paddr / cfg_.lineSize;

        if (cfg_.llcIoPolicy == sim::LlcIoPolicy::bypass) {
            // Straight to DRAM: the LLC never sees the line, so tenant
            // occupancy is untouched.
            const std::uint32_t ch = dram_.channelOf(pline);
            const TileId ctrl = dram_.controllerTile(ch);
            total += send(ingress, ctrl, cfg_.lineSize + controlBytes,
                          TrafficClass::data);
            total += dram_.access(pline, true);
            continue;
        }

        // DDIO-style allocate into the line's home L3 bank. A write
        // allocation needs no DRAM fill (the device supplies the full
        // line); only dirty victims travel to memory.
        const BankId home = mapper_.bankOf(paddr);
        total += send(ingress, bankTile_[home],
                      cfg_.lineSize + controlBytes, TrafficClass::data);
        stats_.l3Accesses += 1;
        chargeBankBusy(home, l3ServiceCycles);
        const auto res =
            cfg_.llcIoPolicy == sim::LlcIoPolicy::wayRestrict
                ? l3Banks_[home].accessCapped(pline, true, cfg_.llcIoWays)
                : l3Banks_[home].access(pline, true);
        if (metrics_)
            metrics_->bankAccess(home, res.hit);
        if (!res.hit)
            stats_.l3Misses += 1;
        total += cfg_.l3Latency;
        if (res.writeback)
            writeBackL3Victim(home, res.victimLine);
    }
    return total;
}

AccessOutcome
Machine::coreAccess(CoreId core, Addr vaddr, std::uint32_t bytes,
                    AccessType type, bool prefetch_friendly)
{
    AccessOutcome out;
    out.servedBy = 1;
    const Addr first = vaddr / cfg_.lineSize;
    const Addr last = (vaddr + bytes - 1) / cfg_.lineSize;
    const bool is_write = type != AccessType::read;

    for (Addr vline = first; vline <= last; ++vline) {
        chargeCoreBusy(core, coreIssueCycles);

        if (type != AccessType::atomic) {
            // L1 probe (virtually indexed model).
            stats_.l1Accesses += 1;
            const auto r1 = l1_[core].access(vline, is_write);
            if (r1.writeback) {
                stats_.l2Accesses += 1;
                l2_[core].access(r1.victimLine, true);
            }
            if (r1.hit) {
                out.latency += cfg_.l1Latency;
                continue;
            }
            stats_.l1Misses += 1;

            // L2 probe; its victim writes back to its home L3 bank.
            stats_.l2Accesses += 1;
            const auto r2 = l2_[core].access(vline, is_write);
            if (r2.writeback) {
                const Addr wb_p = os_.pageTable().translate(
                    r2.victimLine * cfg_.lineSize);
                const BankId wb_home = mapper_.bankOf(wb_p);
                send(core, bankTile_[wb_home],
                     cfg_.lineSize + controlBytes, TrafficClass::data);
                chargeBankBusy(wb_home, l3ServiceCycles);
                probeL3Line(wb_home, wb_p / cfg_.lineSize, true);
            }
            if (r2.hit) {
                out.latency += cfg_.l1Latency + cfg_.l2Latency;
                out.servedBy = std::max(out.servedBy, 2);
                continue;
            }
            stats_.l2Misses += 1;
        }

        // Go to the home L3 bank over the NoC; translation happens
        // here (L1/L2 are virtually indexed in this model).
        const Cycles tlb_lat = coreTranslate(core, vline * cfg_.lineSize);
        const Addr paddr = os_.pageTable().translate(vline * cfg_.lineSize);
        const Addr pline = paddr / cfg_.lineSize;
        const BankId home = mapper_.bankOf(paddr);
        out.bank = home;

        Cycles lat = tlb_lat;
        lat += send(core, bankTile_[home], controlBytes,
                    TrafficClass::control);
        chargeBankBusy(home, l3ServiceCycles);
        const Probe probe = probeL3Line(home, pline, is_write);
        lat += cfg_.l3Latency + probe.extra;
        out.servedBy = std::max(out.servedBy, probe.hit ? 3 : 4);

        if (type == AccessType::atomic) {
            // RMW performed at the directory/L3; small response plus
            // an invalidation message to a sharer (coherence cost).
            stats_.atomicOps += 1;
            if (metrics_)
                metrics_->bankAtomic(home);
            chargeBankBusy(home, atomicExtraCycles);
            lat += send(bankTile_[home], core, controlBytes,
                        TrafficClass::control);
            send(bankTile_[home], core, controlBytes,
                 TrafficClass::control);
        } else {
            lat += send(bankTile_[home], core,
                        cfg_.lineSize + controlBytes, TrafficClass::data);
        }
        const Cycles latency = cfg_.l1Latency + cfg_.l2Latency + lat;
        out.latency += latency;
        if (!prefetch_friendly) {
            // Irregular L2 miss: the core can only hide coreMaxMlp of
            // these, so sustained throughput is latency / MLP.
            chargeCoreBusy(core, double(latency) / coreMaxMlp);
        }
    }
    return out;
}

void
Machine::coreCompute(CoreId core, double flops)
{
    stats_.coreOps += static_cast<std::uint64_t>(flops);
    chargeCoreBusy(core, flops / coreFlopsPerCycle);
}

AccessOutcome
Machine::l3StreamAccess(BankId requester, Addr vaddr, std::uint32_t bytes,
                        AccessType type)
{
    AccessOutcome out;
    out.servedBy = 3;
    const Addr first = vaddr / cfg_.lineSize;
    const Addr last = (vaddr + bytes - 1) / cfg_.lineSize;
    const bool is_write = type != AccessType::read;

    for (Addr vline = first; vline <= last; ++vline) {
        const Addr line_vaddr = vline * cfg_.lineSize;
        // SEL3-side translation at the requester's stream-engine TLB;
        // interleave pools translate as direct segments (§4.1).
        Cycles lat = line_vaddr >= mem::poolVirtBase
                         ? 0
                         : seTlbProbe(requester, mem::pageOf(line_vaddr));
        const Addr paddr = os_.pageTable().translate(line_vaddr);
        const Addr pline = paddr / cfg_.lineSize;
        const BankId home = mapper_.bankOf(paddr);
        out.bank = home;

        const bool remote = home != requester;
        if (remote) {
            // Indirect request to the home bank.
            lat += send(bankTile_[requester], bankTile_[home],
                        is_write && type != AccessType::atomic
                            ? std::min<std::uint32_t>(bytes, cfg_.lineSize) +
                                  controlBytes
                            : controlBytes,
                        type == AccessType::atomic
                            ? TrafficClass::control
                            : (is_write ? TrafficClass::data
                                        : TrafficClass::control));
        }
        chargeBankBusy(home, l3ServiceCycles);
        const Probe probe = probeL3Line(home, pline, is_write);
        lat += cfg_.l3Latency + probe.extra;
        out.servedBy = std::max(out.servedBy, probe.hit ? 3 : 4);

        if (type == AccessType::atomic) {
            stats_.atomicOps += 1;
            if (metrics_)
                metrics_->bankAtomic(home);
            chargeBankBusy(home, atomicExtraCycles);
            noteAtomicStream(home);
            if (remote) {
                lat += send(bankTile_[home], bankTile_[requester],
                            controlBytes, TrafficClass::control);
            }
        } else if (remote) {
            if (!is_write) {
                const std::uint32_t resp =
                    std::min<std::uint32_t>(bytes, cfg_.lineSize);
                lat += send(bankTile_[home], bankTile_[requester],
                            resp + controlBytes, TrafficClass::data);
            } else {
                // Write ack.
                lat += send(bankTile_[home], bankTile_[requester],
                            controlBytes, TrafficClass::control);
            }
        }
        out.latency += lat;
    }
    return out;
}

Cycles
Machine::forwardData(BankId from, BankId to, std::uint32_t bytes)
{
    // Streaming a buffered line into/out of the SE's FIFO is cheap
    // relative to a tag+data bank access.
    chargeBankBusy(from, 0.25);
    chargeBankBusy(to, 0.25);
    return send(bankTile_[from], bankTile_[to], bytes, TrafficClass::data);
}

Cycles
Machine::migrateStream(BankId from, BankId to)
{
    stats_.streamMigrations += 1;
    return send(bankTile_[from], bankTile_[to], migrateBytes,
                TrafficClass::offload);
}

Cycles
Machine::configStream(CoreId core, BankId first_bank)
{
    stats_.streamConfigs += 1;
    return send(core, bankTile_[first_bank], configBytes,
                TrafficClass::offload);
}

void
Machine::injectBankFault(BankId b)
{
    if (b >= cfg_.numBanks())
        SIM_FATAL("nsc", "injectBankFault: bank %u out of range", b);
    if (os_.faultPlan().offlineBank(b)) {
        stats_.offlineBanks += 1;
        if (tracer_) {
            tracer_->machineInstant(
                "bank-fault", stats_.cycles,
                detail::formatMessage("\"bank\":%u", b));
        }
        // The bank's cached lines are gone; future accesses to its
        // lines miss at the spare and refill from DRAM.
        l3Banks_[b].reset();
    }
}

void
Machine::injectLinkDegrade(std::uint32_t link, std::uint32_t factor)
{
    // Traffic sent so far is charged at the old multiplier.
    net_.flush();
    if (os_.faultPlan().degradeLink(link, factor) && tracer_) {
        tracer_->machineInstant(
            "link-degrade", stats_.cycles,
            detail::formatMessage("\"link\":%u,\"factor\":%u", link,
                                  factor));
    }
}

void
Machine::injectNackStorm(std::uint32_t permille)
{
    if (permille > 1000)
        SIM_FATAL("nsc", "injectNackStorm: rate %u permille outside 0..1000",
                  permille);
    os_.faultPlan().setOffloadRejectRate(permille / 1000.0);
    if (tracer_) {
        tracer_->machineInstant(
            "nack-storm", stats_.cycles,
            detail::formatMessage("\"permille\":%u", permille));
    }
}

void
Machine::advanceIdle(Cycles cycles)
{
    stats_.cycles += cycles;
}

Cycles
Machine::offloadNack(CoreId core, BankId bank)
{
    stats_.offloadRetries += 1;
    if (tracer_) {
        tracer_->machineInstant(
            "offload-nack", stats_.cycles,
            detail::formatMessage("\"core\":%u,\"bank\":%u", core, bank));
    }
    Cycles lat =
        send(core, bankTile_[bank], configBytes, TrafficClass::offload);
    lat += send(bankTile_[bank], core, controlBytes,
                TrafficClass::control);
    return lat;
}

void
Machine::creditMessage(CoreId core, BankId bank)
{
    send(core, bankTile_[bank], controlBytes, TrafficClass::control);
}

void
Machine::seCompute(BankId bank, double flops)
{
    stats_.seOps += static_cast<std::uint64_t>(flops);
    if (metrics_)
        metrics_->bankSeOps(bank, static_cast<std::uint64_t>(flops));
    chargeSeBusy(bank, flops / seFlopsPerCycle);
}

void
Machine::noteAtomicStream(BankId bank)
{
    epochAtomics_[bank] += 1;
    if (metrics_)
        metrics_->bankStreamNote(bank);
}

double
Machine::nocUtilization()
{
    if (stats_.cycles == 0)
        return 0.0;
    const auto &mesh = net_.mesh();
    const std::uint64_t real_links =
        2ull * (mesh.xDim() - 1) * mesh.yDim() +
        2ull * mesh.xDim() * (mesh.yDim() - 1);
    std::uint64_t flits = 0;
    const auto &lifetime = net_.lifetimeLinkFlits();
    // Only mesh links count toward utilization (the tail entries are
    // the endpoint local ports).
    for (std::uint32_t l = 0; l < mesh.numLinks(); ++l)
        flits += lifetime[l];
    return static_cast<double>(flits) /
           (static_cast<double>(real_links) *
            static_cast<double>(stats_.cycles));
}

void
Machine::preloadL3Range(Addr sim_base, std::uint64_t bytes)
{
    // Translate a batch of lines and prefetch their tag sets, then
    // probe them: the host fetches the batch's sets in parallel.
    constexpr Addr batch = 16;
    BankId home[batch];
    Addr pline[batch];
    const Addr first = sim_base / cfg_.lineSize;
    const Addr last = (sim_base + bytes - 1) / cfg_.lineSize;
    for (Addr v0 = first; v0 <= last; v0 += batch) {
        const Addr n = std::min(batch, last - v0 + 1);
        for (Addr i = 0; i < n; ++i) {
            const Addr paddr =
                os_.pageTable().translate((v0 + i) * cfg_.lineSize);
            home[i] = mapper_.bankOf(paddr);
            pline[i] = paddr / cfg_.lineSize;
            l3Banks_[home[i]].prefetch(pline[i]);
        }
        for (Addr i = 0; i < n; ++i)
            l3Banks_[home[i]].access(pline[i], false);
    }
}

void
Machine::flushPrivateCaches()
{
    for (auto &c : l1_)
        c.reset();
    for (auto &c : l2_)
        c.reset();
}

} // namespace affalloc::nsc
