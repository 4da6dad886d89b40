#include "nsc/stream_executor.hh"

#include <algorithm>

#include "obs/chrome_trace.hh"
#include "sim/log.hh"

namespace affalloc::nsc
{

namespace
{

/** How many lines ahead an affine NSC stream prefetches its L3 set. */
constexpr Addr prefetchLines = 4;

/** Elements per credit message in coarse-grained core<->SE sync. */
constexpr std::uint32_t creditBatch = 256;

} // namespace

StreamExecutor::StreamExecutor(Machine &m, ExecMode mode)
    : machine_(m), mode_(mode)
{
    audit_ = machine_.config().simcheck.audit;
    auditId_ = machine_.auditor().registerCheck(
        "nsc", "offload-conservation",
        [this](simcheck::CheckContext &ctx) { auditOffloads(ctx); });
}

StreamExecutor::~StreamExecutor()
{
    machine_.auditor().unregisterCheck(auditId_);
}

void
StreamExecutor::auditOffloads(simcheck::CheckContext &ctx) const
{
    if (!offloaded() && offloadAttempts_ != 0) {
        ctx.failf("%llu offload attempts under in-core mode",
                  (unsigned long long)offloadAttempts_);
    }
    if (offloadAttempts_ != offloadAdmits_ + offloadFallbacks_) {
        ctx.failf("stranded offloads: %llu attempts != %llu admits + "
                  "%llu in-core fallbacks",
                  (unsigned long long)offloadAttempts_,
                  (unsigned long long)offloadAdmits_,
                  (unsigned long long)offloadFallbacks_);
    }
}

bool
StreamExecutor::offloadAdmitted(CoreId core, BankId bank, double &penalty)
{
    offloadAttempts_ += 1;
    // Bank selection (bankOfSim) already redirects faulted banks to
    // their spares, so an offload aimed at a dead bank means the
    // mapper and the fault plan disagree.
    if (audit_) {
        SIM_CHECK("nsc", machine_.bankLive(bank),
                  "offload targets dead bank %u", bank);
    }
    sim::FaultPlan &plan = machine_.faultPlan();
    if (!plan.rejectsOffloads()) {
        offloadAdmits_ += 1;
        return true;
    }
    const sim::FaultConfig &fc = plan.config();
    for (std::uint32_t attempt = 0; attempt <= fc.maxOffloadRetries;
         ++attempt) {
        if (!plan.rejectOffload()) {
            offloadAdmits_ += 1;
            return true;
        }
        // The rejected config message and its NACK still travel.
        penalty += double(machine_.offloadNack(core, bank));
        // Exponential backoff, capped at 2^8 x the base.
        penalty += double(fc.offloadRetryBackoff) *
                   double(1u << std::min<std::uint32_t>(attempt, 8u));
    }
    offloadFallbacks_ += 1;
    machine_.stats().offloadFallbacks += 1;
    return false;
}

void
StreamExecutor::affineKernel(const std::vector<AffineRef> &loads,
                             const std::vector<AffineRef> &stores,
                             std::uint64_t num_elems,
                             double flops_per_elem,
                             const std::string &phase)
{
    if (num_elems == 0)
        return;
    const auto &cfg = machine_.config();
    const std::uint32_t cores = cfg.numTiles();
    const std::uint32_t line = cfg.lineSize;
    const std::uint64_t slice = (num_elems + cores - 1) / cores;
    const std::uint64_t chunk = cfg.epochChunk;
    const std::uint64_t epochs = (slice + chunk - 1) / chunk;

    const std::size_t n_refs = loads.size() + stores.size();

    auto ref_at = [&](std::size_t r) -> const AffineRef & {
        return r < loads.size() ? loads[r] : stores[r - loads.size()];
    };

    // Refs over the same array whose offsets fall within one line of
    // each other share a dedup slot: the compiler coalesces
    // unit-offset streams (e.g. the A[i-1]/A[i]/A[i+1] streams of a
    // stencil) so a line is fetched and forwarded once, not once per
    // offset. Distant offsets (row stencils' +/-N) remain separate
    // streams — their traffic is what intra-array affinity targets.
    std::vector<std::size_t> dedup_slot(n_refs);
    for (std::size_t r = 0; r < n_refs; ++r) {
        dedup_slot[r] = r;
        for (std::size_t q = 0; q < r; ++q) {
            const AffineRef &a = ref_at(q);
            const AffineRef &b = ref_at(r);
            const std::int64_t gap =
                (b.offsetElems - a.offsetElems) *
                std::int64_t(b.elemSize);
            if (a.simBase == b.simBase &&
                gap > -std::int64_t(line) && gap < std::int64_t(line)) {
                dedup_slot[r] = dedup_slot[q];
                break;
            }
        }
    }

    // Per-(core, ref) line/bank tracking across the whole kernel.
    std::vector<Addr> last_line(cores * n_refs, invalidAddr);
    std::vector<BankId> cur_bank(cores * n_refs, invalidBank);

    // Per-core offload admission: a core whose streams cannot get
    // configured (offload rejection faults) runs its whole slice
    // in-core instead.
    std::vector<std::uint8_t> core_offloaded(cores, 0);
    std::vector<std::uint32_t> core_trace(cores, 0);
    obs::ChromeTracer *tr = machine_.tracer();
    double setup_penalty = 0.0;
    if (offloaded()) {
        // Each core offloads one stream per array for its slice.
        for (std::uint32_t c = 0; c < cores; ++c) {
            const std::uint64_t e0 = std::uint64_t(c) * slice;
            if (e0 >= num_elems)
                break;
            core_offloaded[c] = 1;
            double penalty = 0.0;
            for (std::size_t r = 0; r < n_refs; ++r) {
                const AffineRef &ref = ref_at(r);
                const std::int64_t i =
                    std::clamp<std::int64_t>(std::int64_t(e0) +
                                                 ref.offsetElems,
                                             0,
                                             std::int64_t(num_elems) - 1);
                const Addr a = ref.simBase + Addr(i) * ref.elemSize;
                const BankId bank = machine_.bankOfSim(a);
                if (!offloadAdmitted(c, bank, penalty)) {
                    core_offloaded[c] = 0;
                    break;
                }
                machine_.configStream(c, bank);
                cur_bank[c * n_refs + r] = bank;
            }
            setup_penalty = std::max(setup_penalty, penalty);
            if (tr) {
                core_trace[c] = ++nextStreamId_;
                tr->streamBegin(core_trace[c],
                                core_offloaded[c] ? "affine"
                                                  : "affine-fallback",
                                c, cur_bank[c * n_refs],
                                machine_.stats().cycles);
            }
        }
    }

    // Unloaded pipeline-fill latency floor of one epoch.
    const double floor =
        double(cfg.l3Latency) +
        double(cfg.hopLatency) * (cfg.meshX + cfg.meshY) / 2.0 +
        double(cfg.seComputeInitLatency);

    for (std::uint64_t e = 0; e < epochs; ++e) {
        machine_.beginEpoch();
        for (std::uint32_t c = 0; c < cores; ++c) {
            const std::uint64_t s0 = std::uint64_t(c) * slice;
            const std::uint64_t s1 =
                std::min<std::uint64_t>(s0 + slice, num_elems);
            const std::uint64_t e0 = s0 + e * chunk;
            const std::uint64_t e1 = std::min(e0 + chunk, s1);
            if (e0 >= e1)
                continue;

            if (!offloaded() || !core_offloaded[c]) {
                // In-core: walk each array's lines through the
                // private hierarchy; one access per new line
                // (SIMD-width accesses). A ref's addresses grow
                // monotonically with i and only elements that start a
                // new line (past the dedup slot's last line) access the
                // machine, so the loop hops from line to line instead
                // of visiting every element; the visited (i, address)
                // pairs are exactly those the per-element walk acts on.
                for (std::size_t r = 0; r < n_refs; ++r) {
                    const AffineRef &ref = ref_at(r);
                    const bool is_store = r >= loads.size();
                    const std::int64_t off = ref.offsetElems;
                    const std::uint64_t es = ref.elemSize;
                    Addr &ll = last_line[c * n_refs + dedup_slot[r]];
                    // i range whose j = i + off stays in bounds.
                    std::int64_t i = std::max<std::int64_t>(
                        std::int64_t(e0), -off);
                    const std::int64_t i_hi = std::min<std::int64_t>(
                        std::int64_t(e1), std::int64_t(num_elems) - off);
                    while (i < i_hi) {
                        const Addr a =
                            ref.simBase + Addr(i + off) * es;
                        const Addr al = a / line;
                        // Coalesced streams advance monotonically: a
                        // lagging offset's line was already fetched.
                        if (ll == invalidAddr || al > ll) {
                            ll = al;
                            machine_.coreAccess(c, a, line,
                                                is_store
                                                    ? AccessType::write
                                                    : AccessType::read,
                                                /*prefetch_friendly=*/
                                                true);
                        }
                        // First element whose line exceeds ll.
                        const Addr next_byte = (ll + 1) * Addr(line);
                        const std::int64_t jn = std::int64_t(
                            (next_byte - ref.simBase + es - 1) / es);
                        i = std::max(i + 1, jn - off);
                    }
                }
                machine_.coreCompute(c, flops_per_elem *
                                            double(e1 - e0));
                continue;
            }

            // NSC: compute sits at the bank of the (first) store
            // stream's current line; loads forward their lines there.
            const AffineRef &site_ref =
                stores.empty() ? loads.front() : stores.front();
            std::uint64_t i = e0;
            while (i < e1) {
                const Addr site_addr =
                    site_ref.simBase + Addr(i) * site_ref.elemSize;
                const std::uint64_t per_line =
                    std::max<std::uint64_t>(1, line / site_ref.elemSize);
                const std::uint64_t group_end = std::min<std::uint64_t>(
                    e1, (i / per_line + 1) * per_line);
                const BankId site = machine_.bankOfSim(site_addr);

                for (std::size_t r = 0; r < n_refs; ++r) {
                    const AffineRef &ref = ref_at(r);
                    const bool is_store = r >= loads.size();
                    const std::int64_t off = ref.offsetElems;
                    const std::uint64_t es = ref.elemSize;
                    Addr &ll = last_line[c * n_refs + dedup_slot[r]];
                    BankId &cb = cur_bank[c * n_refs + r];
                    // Same line-hopping walk as the in-core path.
                    std::int64_t g = std::max<std::int64_t>(
                        std::int64_t(i), -off);
                    const std::int64_t g_hi = std::min<std::int64_t>(
                        std::int64_t(group_end),
                        std::int64_t(num_elems) - off);
                    const Addr ref_last =
                        ref.simBase + Addr(num_elems - 1) * es;
                    while (g < g_hi) {
                        const Addr a =
                            ref.simBase + Addr(g + off) * es;
                        const Addr al = a / line;
                        if (ll == invalidAddr || al > ll) {
                            ll = al;
                            // Warm the tag set this stream probes a
                            // few lines on, while it stays in the array.
                            const Addr ahead =
                                (al + prefetchLines) * Addr(line);
                            if (ahead <= ref_last)
                                machine_.prefetchL3(ahead);
                            const BankId home = machine_.bankOfSim(a);
                            // Affine streams execute as strided
                            // sub-streams: every participating bank
                            // works on its own stripe after one
                            // configuration, so no per-line migration
                            // is paid (only irregular streams
                            // migrate).
                            cb = home;
                            machine_.l3StreamAccess(home, a, line,
                                                    is_store
                                                        ? AccessType::write
                                                        : AccessType::read);
                            if (!is_store && home != site)
                                machine_.forwardData(home, site, line);
                        }
                        const Addr next_byte = (ll + 1) * Addr(line);
                        const std::int64_t jn = std::int64_t(
                            (next_byte - ref.simBase + es - 1) / es);
                        g = std::max(g + 1, jn - off);
                    }
                }
                machine_.seCompute(site,
                                   flops_per_elem * double(group_end - i));
                i = group_end;
            }
            // Coarse-grained credits core -> current site.
            const std::uint64_t credits =
                (e1 - e0 + creditBatch - 1) / creditBatch;
            const BankId credit_bank = machine_.bankOfSim(
                site_ref.simBase + Addr(e1 - 1) * site_ref.elemSize);
            for (std::uint64_t k = 0; k < credits; ++k)
                machine_.creditMessage(c, credit_bank);
        }
        // Retried offload setup serializes before the first epoch's
        // pipeline fill.
        machine_.endEpoch(e == 0 ? floor + setup_penalty : floor, phase);
    }

    if (tr) {
        for (std::uint32_t c = 0; c < cores; ++c) {
            if (core_trace[c] != 0)
                tr->streamEnd(core_trace[c], machine_.stats().cycles);
        }
    }
}

AccessOutcome
StreamExecutor::streamStep(MigratingStream &stream, Addr vaddr,
                           std::uint32_t bytes, AccessType type,
                           bool sequential)
{
    if (!offloaded() || stream.inCoreFallback_) {
        const AccessOutcome out = machine_.coreAccess(
            stream.owner_, vaddr, bytes, type, sequential);
        stream.chain_ += double(out.latency);
        return out;
    }
    const Addr line = vaddr / machine_.config().lineSize;
    if (line == stream.lastLine_ && type == AccessType::read) {
        // Served out of the stream's line buffer.
        AccessOutcome out;
        out.bank = stream.bank_;
        out.latency = 0;
        return out;
    }
    const BankId home = machine_.bankOfSim(vaddr);
    obs::ChromeTracer *tr = machine_.tracer();
    if (stream.bank_ == invalidBank) {
        double penalty = 0.0;
        if (!offloadAdmitted(stream.owner_, home, penalty)) {
            // Retries exhausted: this stream degrades to in-core
            // execution for the rest of its life (until reconfigured).
            stream.inCoreFallback_ = true;
            stream.chain_ += penalty;
            if (tr && stream.traceId_ != 0) {
                tr->streamInstant(stream.traceId_, "in-core-fallback",
                                  machine_.stats().cycles,
                                  detail::formatMessage("\"core\":%u",
                                                        stream.owner_));
            }
            const AccessOutcome out = machine_.coreAccess(
                stream.owner_, vaddr, bytes, type, sequential);
            stream.chain_ += double(out.latency);
            return out;
        }
        stream.chain_ += penalty;
        stream.chain_ +=
            double(machine_.configStream(stream.owner_, home));
        stream.bank_ = home;
        if (tr && stream.traceId_ == 0) {
            // Implicitly configured stream (no explicit configure()).
            stream.traceId_ = ++nextStreamId_;
            tr->streamBegin(stream.traceId_, "irregular", stream.owner_,
                            home, machine_.stats().cycles);
        }
    } else if (home != stream.bank_) {
        if (audit_) {
            SIM_CHECK("nsc", machine_.bankLive(home),
                      "stream migrating to dead bank %u", home);
        }
        if (tr && stream.traceId_ != 0) {
            tr->streamInstant(stream.traceId_, "migrate",
                              machine_.stats().cycles,
                              detail::formatMessage(
                                  "\"from\":%u,\"to\":%u",
                                  stream.bank_, home));
        }
        stream.chain_ +=
            double(machine_.migrateStream(stream.bank_, home));
        stream.bank_ = home;
    }
    const AccessOutcome out =
        machine_.l3StreamAccess(stream.bank_, vaddr, bytes, type);
    stream.lastLine_ = line;
    stream.chain_ += double(out.latency);
    maybeCredit(stream);
    return out;
}

AccessOutcome
StreamExecutor::indirect(MigratingStream &stream, Addr vaddr,
                         std::uint32_t bytes, AccessType type)
{
    if (!offloaded() || stream.inCoreFallback_) {
        const AccessOutcome out =
            machine_.coreAccess(stream.owner_, vaddr, bytes, type);
        stream.chain_ += double(out.latency);
        return out;
    }
    if (stream.bank_ == invalidBank)
        SIM_PANIC("nsc", "indirect from an unconfigured stream");
    const AccessOutcome out =
        machine_.l3StreamAccess(stream.bank_, vaddr, bytes, type);
    stream.chain_ += double(out.latency);
    maybeCredit(stream);
    return out;
}

void
StreamExecutor::configure(MigratingStream &stream, Addr vaddr)
{
    obs::ChromeTracer *tr = machine_.tracer();
    if (tr && stream.traceId_ != 0) {
        // Reconfiguration ends the previous lifetime span.
        tr->streamEnd(stream.traceId_, machine_.stats().cycles);
        stream.traceId_ = 0;
    }
    stream.lastLine_ = invalidAddr;
    stream.inCoreFallback_ = false;
    if (!offloaded()) {
        stream.bank_ = invalidBank;
        return;
    }
    const BankId home = machine_.bankOfSim(vaddr);
    double penalty = 0.0;
    if (!offloadAdmitted(stream.owner_, home, penalty)) {
        stream.inCoreFallback_ = true;
        stream.bank_ = invalidBank;
        stream.chain_ += penalty;
        if (tr) {
            stream.traceId_ = ++nextStreamId_;
            tr->streamBegin(stream.traceId_, "in-core-fallback",
                            stream.owner_, invalidBank,
                            machine_.stats().cycles);
        }
        return;
    }
    stream.chain_ += penalty;
    machine_.configStream(stream.owner_, home);
    stream.bank_ = home;
    if (tr) {
        stream.traceId_ = ++nextStreamId_;
        tr->streamBegin(stream.traceId_, "irregular", stream.owner_, home,
                        machine_.stats().cycles);
    }
}

void
StreamExecutor::compute(const MigratingStream &stream, double flops)
{
    if (offloaded() && !stream.inCoreFallback_) {
        machine_.seCompute(stream.bank_ == invalidBank ? 0 : stream.bank_,
                           flops);
    } else {
        machine_.coreCompute(stream.owner_, flops);
    }
}

void
StreamExecutor::maybeCredit(MigratingStream &stream)
{
    if (++stream.sinceCredit_ >= creditBatch) {
        stream.sinceCredit_ = 0;
        machine_.creditMessage(stream.owner_, stream.bank_);
    }
}

} // namespace affalloc::nsc
