/**
 * @file
 * Deterministic fault injection and the machine's degraded-state
 * bookkeeping. A FaultPlan is drawn once from a seeded Rng and then
 * consulted by every layer that can degrade gracefully:
 *
 *  - offline L3 banks: the bank mapper redirects lines homed at a
 *    dead bank to its spare (the next live bank in numbering order),
 *    the allocator's Eq. 4 policy skips dead banks, and irregular
 *    slots already placed there can be migrated off (victim
 *    migration);
 *  - degraded NoC links: a flit multiplier models a link running at
 *    reduced bandwidth (e.g. a lane-degraded SerDes) — routes still
 *    work but occupy the link longer;
 *  - transient offload rejection: stream-engine configuration
 *    requests NACK with a configured probability; the stream
 *    executor retries with capped exponential backoff and finally
 *    falls back to in-core execution per stream.
 *
 * An empty plan (the default FaultConfig) is guaranteed to be
 * zero-overhead: no Rng draws, identity bank redirection, unit link
 * multipliers — cycle counts are bit-identical to a build without
 * the subsystem.
 */

#ifndef AFFALLOC_SIM_FAULT_HH
#define AFFALLOC_SIM_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace affalloc::sim
{

/** Kind of one scheduled mid-run fault event. */
enum class FaultKind : std::uint8_t
{
    /** Mark an L3 bank offline at the scheduled cycle. */
    killBank,
    /** Degrade a directed mesh link at the scheduled cycle. */
    degradeLink,
    /**
     * Set the offload NACK rate at the scheduled cycle (a controller
     * brown-out rejecting stream configuration requests). target is
     * the reject probability in permille (0..1000); 0 ends the storm.
     */
    nackStorm
};

/** Short event-kind name matching the schedule grammar. */
const char *faultKindName(FaultKind k);

/** Largest accepted link flit multiplier (sanity bound on configs). */
inline constexpr std::uint32_t maxLinkDegradeFactor = 1024;

/**
 * One scheduled fault event of a mid-run campaign: at simulated cycle
 * @p atCycle, kill bank @p target or degrade link @p target. Applied
 * by open-system drivers (the serving front-end) at the first
 * scheduling round whose clock has reached the event.
 */
struct TimedFault
{
    /** Simulated cycle at (or after) which the event fires. */
    Cycles atCycle = 0;
    FaultKind kind = FaultKind::killBank;
    /** Bank id (killBank), directed link id (degradeLink), or the
     *  reject rate in permille (nackStorm). */
    std::uint32_t target = 0;
    /** Flit multiplier for degradeLink events (>= 1). */
    std::uint32_t factor = 4;

    bool
    operator==(const TimedFault &o) const
    {
        return atCycle == o.atCycle && kind == o.kind &&
               target == o.target &&
               (kind != FaultKind::degradeLink || factor == o.factor);
    }
};

/**
 * Parse a fault-campaign schedule such as
 * "bank:3@50000,link:12@80000x8,nack:800@90000" into TimedFault
 * events. Grammar: comma-separated `bank:<id>@<cycle>`,
 * `link:<id>@<cycle>[x<f>]` (f = flit multiplier, default 4), and
 * `nack:<permille>@<cycle>` (offload reject rate; 0 ends a storm).
 * Malformed specs SIM_FATAL; target ids are validated separately
 * (validateFaultSchedule) once the mesh is known.
 */
std::vector<TimedFault> parseFaultSchedule(const std::string &spec);

/**
 * Render a schedule back into the parseFaultSchedule grammar (the
 * canonical form round-trips: parse(format(s)) == s). Used by repro
 * bundles and the chaos CLI so a shrunk campaign is copy-pasteable.
 */
std::string formatFaultSchedule(const std::vector<TimedFault> &schedule);

/**
 * Validate a fault schedule against an @p mesh_x by @p mesh_y
 * machine: bank targets must be real banks, link targets real mesh
 * links (edge slots that would leave the mesh are rejected), degrade
 * factors >= 1, and — when @p max_cycles is nonzero — every event
 * must fire within the horizon. SIM_FATALs with the offending event
 * instead of letting a typo'd campaign silently never fire.
 */
void validateFaultSchedule(const std::vector<TimedFault> &schedule,
                           std::uint32_t mesh_x, std::uint32_t mesh_y,
                           Cycles max_cycles = 0);

/**
 * Fault-campaign configuration, carried inside MachineConfig so a
 * whole experiment (machine + faults) is one value. All fields
 * default to "healthy machine".
 */
struct FaultConfig
{
    /** Seed for all fault draws (bank picks, link picks, NACKs). */
    std::uint64_t seed = 0xfa117;
    /** Number of L3 banks to mark offline at boot. */
    std::uint32_t offlineBanks = 0;
    /** Probability an offload (stream config) request is NACKed. */
    double offloadRejectRate = 0.0;
    /** Number of mesh links to degrade at boot. */
    std::uint32_t degradedLinks = 0;
    /** Flit multiplier on degraded links (bandwidth divisor). */
    std::uint32_t linkDegradeFactor = 4;
    /** Offload retries before a stream falls back to in-core. */
    std::uint32_t maxOffloadRetries = 4;
    /** Base backoff in cycles; doubles per retry (capped). */
    std::uint32_t offloadRetryBackoff = 16;

    /** Whether any boot-time fault class is active. */
    bool
    any() const
    {
        return offlineBanks > 0 || offloadRejectRate > 0.0 ||
               degradedLinks > 0;
    }
};

/**
 * The realized fault plan of one machine instance: which banks are
 * dead, which links are slow, and the NACK draw stream. Owned by the
 * simulated OS (which learns of hardware faults and exports the
 * live-bank mask to the runtime); mutated only by dynamic injection
 * (offlineBank()).
 */
class FaultPlan
{
  public:
    /** A healthy plan over zero banks (placeholder). */
    FaultPlan() = default;

    /**
     * Draw a plan for an @p mesh_x by @p mesh_y machine from
     * @p cfg's seed. Offline banks and degraded links are picked
     * uniformly without replacement; at least one bank always stays
     * live.
     */
    FaultPlan(const FaultConfig &cfg, std::uint32_t mesh_x,
              std::uint32_t mesh_y);

    /** Whether any fault is (or became) active. */
    bool
    any() const
    {
        return cfg_.any() || offlineCount_ > 0 || degradedCount_ > 0;
    }
    /** The configuration the plan was drawn from. */
    const FaultConfig &config() const { return cfg_; }

    // ------------------------------------------------------------ banks
    /** Whether bank @p b is alive. */
    bool
    bankLive(BankId b) const
    {
        return liveMask_.empty() || liveMask_[b] != 0;
    }
    /** Banks currently offline. */
    std::uint32_t numOfflineBanks() const { return offlineCount_; }
    /** Banks still alive. */
    std::uint32_t
    numLiveBanks() const
    {
        return static_cast<std::uint32_t>(liveMask_.size()) -
               offlineCount_;
    }
    /**
     * Live-bank mask (1 = alive), one entry per bank; exported to
     * the allocator runtime through SimOS::topology().
     */
    const std::vector<std::uint8_t> &liveBankMask() const
    {
        return liveMask_;
    }
    /**
     * Spare bank serving @p b's lines: @p b itself when alive, else
     * the next live bank in bank-numbering order.
     */
    BankId
    redirect(BankId b) const
    {
        return redirect_.empty() ? b : redirect_[b];
    }
    /**
     * Dynamically mark @p b offline (fault injection mid-run).
     * fatal() if this would kill the last live bank; no-op when @p b
     * is already offline. Returns true when the mask changed.
     */
    bool offlineBank(BankId b);

    /**
     * Re-target dead bank @p dead's spare to live bank @p target
     * (re-affinity recovery: spread dead banks' lines over the least
     * contended survivors instead of the default next-in-order spare).
     * fatal() when @p dead is still live or @p target is not live.
     * Note offlineBank() rebuilds the default map, clobbering custom
     * redirects — recovery re-runs its assignment after every kill.
     */
    void setRedirect(BankId dead, BankId target);

    // ------------------------------------------------------------ links
    /** Flit multiplier of directed link @p link (1 = healthy). */
    std::uint32_t
    linkFlitMultiplier(std::uint32_t link) const
    {
        return linkMult_.empty() ? 1 : linkMult_[link];
    }
    /** Number of degraded links in the plan. */
    std::uint32_t numDegradedLinks() const { return degradedCount_; }
    /**
     * Dynamically degrade directed link @p link to @p factor x flit
     * occupancy (mid-run fault injection). fatal() on out-of-range
     * links or a zero factor. Returns true when the multiplier
     * changed (false: link already at that factor).
     */
    bool degradeLink(std::uint32_t link, std::uint32_t factor);
    /**
     * Monotonic counter bumped whenever a link multiplier changes
     * (degradeLink). noc::Network checks that it did not move while
     * traffic was waiting to be charged at the old multipliers.
     */
    std::uint64_t linkVersion() const { return linkVersion_; }

    /**
     * Monotonic counter bumped whenever the bank -> served-bank
     * mapping may have changed (offlineBank, setRedirect). Consumers
     * that cache bank-keyed state (the allocator's free lists)
     * compare against it to re-key lazily and deterministically.
     */
    std::uint64_t redirectVersion() const { return redirectVersion_; }

    // --------------------------------------------------------- offloads
    /** Whether offload requests can ever be rejected. */
    bool rejectsOffloads() const { return cfg_.offloadRejectRate > 0.0; }
    /**
     * Dynamically set the offload NACK rate (a nackStorm event).
     * fatal() outside [0, 1]. Draw determinism is preserved: the Rng
     * is still only consulted while the rate is nonzero.
     */
    void setOffloadRejectRate(double rate);
    /**
     * Draw one offload admission decision. Never touches the Rng
     * when the reject rate is zero (determinism guarantee).
     */
    bool
    rejectOffload()
    {
        return cfg_.offloadRejectRate > 0.0 &&
               rng_.chance(cfg_.offloadRejectRate);
    }

    /** One-line human-readable description. */
    std::string toString() const;

  private:
    void rebuildRedirect();

    FaultConfig cfg_{};
    Rng rng_{0};
    /** 1 = live, per bank; empty means "no banks modeled". */
    std::vector<std::uint8_t> liveMask_;
    /** Per-bank spare map (identity for live banks). */
    std::vector<BankId> redirect_;
    /** Per-directed-link flit multiplier; empty = all healthy. */
    std::vector<std::uint32_t> linkMult_;
    std::uint32_t offlineCount_ = 0;
    std::uint32_t degradedCount_ = 0;
    std::uint64_t redirectVersion_ = 0;
    std::uint64_t linkVersion_ = 0;
};

} // namespace affalloc::sim

#endif // AFFALLOC_SIM_FAULT_HH
