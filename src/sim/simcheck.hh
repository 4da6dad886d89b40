/**
 * @file
 * SimCheck: opt-in invariant auditing, livelock watchdog, and
 * determinism digests for the NDC stack.
 *
 * Components register named checks with the machine's Auditor; checks
 * fire at epoch boundaries (every `auditPeriodEpochs` epochs when
 * auditing is enabled) and on demand via Auditor::runAll(). A failed
 * check raises AuditError with a structured report of every violation
 * found in that pass. The LivelockWatchdog counts consecutive epochs
 * without forward progress and trips with a diagnostic instead of
 * letting a NACK-retry storm spin forever. The Digest is an
 * order-insensitive FNV-1a fold over (name, value) items, used to
 * fingerprint final stats and placement decisions so CI can assert
 * run-to-run determinism.
 */

#ifndef AFFALLOC_SIM_SIMCHECK_HH
#define AFFALLOC_SIM_SIMCHECK_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/log.hh"

namespace affalloc::sim
{
struct Stats;
} // namespace affalloc::sim

namespace affalloc::simcheck
{

/**
 * Runtime knobs, carried inside sim::MachineConfig. Defaults come from
 * the environment so the whole bench/test surface can be audited
 * without per-binary flag plumbing:
 *   AFFALLOC_SIMCHECK=1          enable epoch auditing
 *   AFFALLOC_SIMCHECK_PERIOD=N   audit every N epochs (default 64)
 *   AFFALLOC_SIMCHECK_WATCHDOG=N trip after N stalled epochs
 *                                (default 100000; 0 disables)
 */
struct SimCheckConfig
{
    /** Run registered audits at epoch boundaries. */
    bool audit = false;
    /** Epochs between audit passes when enabled (>= 1). */
    std::uint32_t auditPeriodEpochs = 64;
    /** Consecutive no-progress epochs before the watchdog trips. */
    std::uint32_t watchdogStallEpochs = 100000;

    /** Defaults overridden by AFFALLOC_SIMCHECK* environment vars. */
    static SimCheckConfig fromEnv();
};

/** One failed invariant found during an audit pass. */
struct Violation
{
    std::string component;
    std::string check;
    std::string message;
};

/** Thrown by the Auditor when an audit pass found violations. */
class AuditError : public PanicError
{
  public:
    AuditError(const std::string &what, std::vector<Violation> report);

    /** All violations from the failing pass. */
    const std::vector<Violation> &report() const { return report_; }

  private:
    std::vector<Violation> report_;
};

/** Thrown when the livelock watchdog trips. */
class LivelockError : public PanicError
{
  public:
    using PanicError::PanicError;
};

/**
 * Handed to each check; the check calls fail()/failf() once per
 * violated invariant and simply returns. The Auditor collects
 * violations across all checks before throwing.
 */
class CheckContext
{
  public:
    /** Record one violation of the current check. */
    void fail(std::string message);

    /** printf-style convenience over fail(). */
    template <typename... Args>
    void
    failf(const char *fmt, Args &&...args)
    {
        fail(detail::formatMessage(fmt, std::forward<Args>(args)...));
    }

    /** Whether the current check has recorded any violation. */
    bool failed() const { return failed_; }

  private:
    friend class Auditor;

    CheckContext(std::string component, std::string check,
                 std::vector<Violation> &sink)
        : component_(std::move(component)), check_(std::move(check)),
          sink_(sink)
    {
    }

    std::string component_;
    std::string check_;
    std::vector<Violation> &sink_;
    bool failed_ = false;
};

/**
 * Registry of named invariant checks. Components register at
 * construction and unregister from their destructors; the Auditor is
 * owned by the Machine, which outlives every registrant.
 */
class Auditor
{
  public:
    using CheckFn = std::function<void(CheckContext &)>;

    /** Register a check; returns an id for unregisterCheck(). */
    int registerCheck(std::string component, std::string check, CheckFn fn);

    /** Remove a check by id; unknown ids are ignored. */
    void unregisterCheck(int id);

    /** Enable/disable epoch-boundary auditing. */
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** Epochs between audit passes (clamped to >= 1). */
    void setPeriodEpochs(std::uint32_t period);

    std::size_t numChecks() const { return checks_.size(); }

    /**
     * Run every registered check regardless of the enabled flag
     * (on-demand audit); throws AuditError if anything failed.
     */
    void runAll() const;

    /** Run every check and return the violations without throwing. */
    std::vector<Violation> collect() const;

    /**
     * Epoch hook: runs a full pass when auditing is enabled and
     * `epochsCompleted` is a multiple of the period.
     */
    void
    onEpochEnd(std::uint64_t epochsCompleted) const
    {
        if (!enabled_ || epochsCompleted % period_ != 0)
            return;
        runAll();
    }

  private:
    struct Entry
    {
        int id;
        std::string component;
        std::string check;
        CheckFn fn;
    };

    std::vector<Entry> checks_;
    int nextId_ = 1;
    bool enabled_ = false;
    std::uint32_t period_ = 64;
};

/**
 * Counts consecutive epochs with no forward progress. The caller
 * decides what "progress" means (the Machine uses work-counter deltas,
 * deliberately excluding NoC messages so a NACK-retry storm does not
 * masquerade as progress).
 */
class LivelockWatchdog
{
  public:
    explicit LivelockWatchdog(std::uint32_t limit = 0) : limit_(limit) {}

    void setLimit(std::uint32_t limit) { limit_ = limit; }

    /**
     * Note one completed epoch; returns true when the stall streak
     * just reached the limit (caller raises LivelockError). A limit of
     * 0 disables the watchdog.
     */
    bool
    observe(bool progress)
    {
        if (limit_ == 0 || progress) {
            stalled_ = 0;
            return false;
        }
        return ++stalled_ >= limit_;
    }

    std::uint32_t stalledEpochs() const { return stalled_; }

  private:
    std::uint32_t limit_;
    std::uint32_t stalled_ = 0;
};

/**
 * Order-insensitive digest: each item is hashed independently with
 * FNV-1a and folded in with wrapping addition, so two runs that make
 * the same decisions in any order produce the same value.
 */
class Digest
{
  public:
    static constexpr std::uint64_t fnvBasis = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t fnvPrime = 0x100000001b3ull;

    /** FNV-1a over raw bytes, continuing from @p h. */
    static std::uint64_t fnv1a(const void *data, std::size_t n,
                               std::uint64_t h = fnvBasis);

    /** Hash of one (key, value) item. */
    static std::uint64_t hashItem(std::string_view key, std::uint64_t value);

    /** Fold one (key, value) item into the digest. */
    void fold(std::string_view key, std::uint64_t value)
    {
        acc_ += hashItem(key, value);
    }

    /** Fold a pre-computed item hash (e.g. another digest). */
    void foldRaw(std::uint64_t itemHash) { acc_ += itemHash; }

    std::uint64_t value() const { return acc_; }

  private:
    std::uint64_t acc_ = 0;
};

/** Digest over every named counter in the stats registry. */
std::uint64_t digestOfStats(const sim::Stats &stats);

/** Render a digest as the canonical 0x%016llx string. */
std::string digestToString(std::uint64_t digest);

} // namespace affalloc::simcheck

#endif // AFFALLOC_SIM_SIMCHECK_HH
