/**
 * @file
 * Host-side run telemetry: a low-overhead hierarchical phase profiler
 * for the simulator *itself* (where does wall-clock go inside a run —
 * epochs vs. audits, allocator metadata vs. memory-system charging),
 * plus run-level memory telemetry (peak RSS, per-tenant arena
 * footprints), named counters, and a stderr progress heartbeat for
 * long serving/chaos runs.
 *
 * Everything here observes the *host*, never the simulated machine:
 * the profiler reads std::chrono::steady_clock and /proc/self/status
 * and writes only to its own JSON file (and, for the heartbeat,
 * stderr), so enabling it is digest- and stdout-neutral by
 * construction. CI asserts this.
 *
 * Usage:
 *   - `PROF_SCOPE("alloc/malloc_aff");` opens an RAII phase scope on
 *     the calling thread. Scopes nest: the harvested tree mirrors the
 *     runtime nesting, with inclusive/exclusive nanoseconds and entry
 *     counts per node. Each thread accumulates into its own tree;
 *     harvest() merges all threads by phase name.
 *   - `prof::addTimed(name, ns)` records a phase retroactively (the
 *     epoch record phase is timed this way: a scope cannot straddle
 *     beginEpoch()/endEpoch()).
 *   - `prof::counterAdd(name, v)` bumps a named counter.
 *   - `prof::writeJson(...)` emits the versioned schema (see
 *     profSchemaVersion) consumed by tools/perf_diff.py.
 *
 * Cost model: with profiling disabled (the default) every PROF_SCOPE
 * is one relaxed atomic load and a predictable branch. Enabled
 * PROF_SCOPEs cost
 * two steady_clock reads plus a child lookup, so they sit on
 * epoch-frequency paths. Per-element-hot sites (the allocator calls,
 * millions per bench) use PROF_SCOPE_SAMPLED instead: exact entry
 * counts, but only ~1 in 64 entries is timed and harvest scales the
 * estimate back up — that keeps the whole-suite overhead inside the
 * 2% budget CI enforces.
 */

#ifndef AFFALLOC_SIM_PROF_HH
#define AFFALLOC_SIM_PROF_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace affalloc::prof
{

/** Schema identifier written into every JSON export. */
inline constexpr const char *profSchemaVersion = "affalloc-prof-1";

namespace detail
{
/** Process-wide runtime enable flag (off by default). */
extern std::atomic<bool> enabled_;
} // namespace detail

/** Whether profiling is runtime-enabled (one relaxed load). */
inline bool
enabled()
{
    return detail::enabled_.load(std::memory_order_relaxed);
}

/**
 * Runtime-enable / disable profiling. Enabling also stamps the
 * profiler's epoch-zero wall-clock (wall_ns in the export measures
 * from here). Safe to call repeatedly.
 */
void setEnabled(bool on);

/** Monotonic nanoseconds (steady_clock); 0 is never returned. */
std::uint64_t nowNs();

/** nowNs() when profiling is enabled, else 0 (cheap disabled path). */
inline std::uint64_t
nowNsIfEnabled()
{
    return enabled() ? nowNs() : 0;
}

// --------------------------------------------------------------- scopes

namespace detail
{
struct Node;
/** Enter phase @p name under the calling thread's current node. */
Node *scopeEnter(const char *name);
/** Close @p node, charging @p ns of inclusive time. */
void scopeExit(Node *node, std::uint64_t ns);
/** scopeEnter + the 1-in-N sampling decision for hot scopes. */
Node *scopeEnterSampled(const char *name, bool &sample);
/** Close a sampled-scope entry; @p ns only meaningful when timed. */
void scopeExitSampled(Node *node, std::uint64_t ns, bool timed);
} // namespace detail

/**
 * RAII phase scope. The name must be a string with static storage
 * duration (a literal): nodes cache the pointer, not a copy.
 */
class Scope
{
  public:
    explicit Scope(const char *name)
    {
        if (enabled()) {
            node_ = detail::scopeEnter(name);
            t0_ = nowNs();
        }
    }
    ~Scope()
    {
        if (node_)
            detail::scopeExit(node_, nowNs() - t0_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    detail::Node *node_ = nullptr;
    std::uint64_t t0_ = 0;
};

/**
 * RAII phase scope for *per-element-hot* sites (allocator calls that
 * run millions of times per bench). Every entry is counted exactly,
 * but only one entry in ~64 pays the two clock reads; harvest scales
 * the timed sample back up (and marks the phase `sampled` in the
 * export). A node's first entry is always timed, so rare phases still
 * get an estimate. Cost per untimed entry: the enabled check plus a
 * handful of thread-local/node writes — no clock reads.
 */
class ScopeSampled
{
  public:
    explicit ScopeSampled(const char *name)
    {
        if (enabled()) {
            node_ = detail::scopeEnterSampled(name, timed_);
            if (timed_)
                t0_ = nowNs();
        }
    }
    ~ScopeSampled()
    {
        if (node_)
            detail::scopeExitSampled(node_, timed_ ? nowNs() - t0_ : 0,
                                     timed_);
    }
    ScopeSampled(const ScopeSampled &) = delete;
    ScopeSampled &operator=(const ScopeSampled &) = delete;

  private:
    detail::Node *node_ = nullptr;
    std::uint64_t t0_ = 0;
    bool timed_ = false;
};

#define AFFALLOC_PROF_CONCAT2(a, b) a##b
#define AFFALLOC_PROF_CONCAT(a, b) AFFALLOC_PROF_CONCAT2(a, b)
/** Open a named RAII phase scope for the rest of the block. */
#define PROF_SCOPE(name)                                                      \
    ::affalloc::prof::Scope AFFALLOC_PROF_CONCAT(prof_scope_,                 \
                                                 __LINE__)(name)
/** PROF_SCOPE for per-element-hot sites: exact counts, sampled time. */
#define PROF_SCOPE_SAMPLED(name)                                              \
    ::affalloc::prof::ScopeSampled AFFALLOC_PROF_CONCAT(prof_scope_,          \
                                                        __LINE__)(name)

/**
 * Record @p ns of phase @p name as a completed child of the calling
 * thread's current scope (entered and exited in one call). Used where
 * an RAII scope cannot bracket the interval — e.g. the epoch *record*
 * phase runs between beginEpoch() and endEpoch() across many calls.
 * No-op when disabled.
 */
void addTimed(const char *name, std::uint64_t ns);

/**
 * The calling thread's scope cursor (where the next scope nests; null
 * while profiling is off) and its restore (null: no-op). A fiber
 * switch saves and restores it, so the scopes a fiber opens nest
 * under the scope that resumed it.
 */
void *scopeCursor();
void setScopeCursor(void *cursor);

/** Bump named counter @p name by @p v (no-op when disabled). */
void counterAdd(const char *name, std::uint64_t v);

/**
 * Raise named counter @p name to at least @p v (running maximum;
 * no-op when disabled). Used for high-watermarks such as sweep
 * dispatch-queue depth.
 */
void counterMax(const char *name, std::uint64_t v);

// --------------------------------------------------- memory telemetry

/**
 * Sample /proc/self/status (VmRSS / VmHWM) if profiling is enabled
 * and at least ~100 ms have passed since the last sample; called from
 * Machine::endEpoch() so long runs track their footprint without
 * per-epoch /proc traffic. Returns true when a sample was taken.
 */
bool rssEpochTick();

/** Peak RSS (VmHWM) in kB read from /proc right now; 0 off-Linux. */
std::uint64_t peakRssKb();

/**
 * Note one tenant arena's allocator pool footprint at run teardown.
 * Repeated notes for the same arena keep the maximum (an arena is
 * recycled across serving requests; the high-watermark is the signal).
 */
void noteArenaFootprint(std::uint32_t arena, std::uint64_t bytes);

// ------------------------------------------------ worker-pool telemetry

/**
 * One worker pool's utilization telemetry. No pool exists any more
 * (the sweep runner starts plain threads per call), so
 * Snapshot::pools is always empty; the type stays only because
 * the perfbench/ harness still reads it.
 */
struct PoolTelemetry
{
    unsigned threads = 0;
    std::uint64_t dispatches = 0;
    std::vector<std::uint64_t> busyNs;
    std::uint64_t sumMaxTaskNs = 0;
    std::uint64_t sumTaskNs = 0;
};

// --------------------------------------------------------- progress

/**
 * Enable the stderr progress heartbeat with @p interval_sec seconds
 * between lines (validated > 0 by the flag parser). Independent of
 * the phase profiler: --progress without --prof-out works.
 */
void progressEnable(double interval_sec);

/** Whether the heartbeat is enabled. */
bool progressEnabled();

/** Declare the unit goal of the current run (requests, campaigns). */
void progressSetGoal(std::uint64_t goal);

/** Note @p n more admitted units (serving: requests entering slots). */
void progressNoteAdmitted(std::uint64_t n);

/** Note @p n more completed/resolved units toward the goal. */
void progressAdvance(std::uint64_t n);

/**
 * Heartbeat tick from the epoch loop: emits one `[progress]` line to
 * stderr (epoch, simulated cycle, admitted/completed, ETA) when the
 * configured interval has elapsed. Thread-safe; cheap when disabled.
 */
void progressTick(std::uint64_t epoch, std::uint64_t cycles);

// ----------------------------------------------------------- harvest

/** One merged phase node of the harvested tree. */
struct PhaseNode
{
    std::string name;
    /** Total ns inside this phase, children included. For sampled
     *  phases this is the scaled estimate (timed ns * count /
     *  timedCount), raised to at least the children's sum, and scaled
     *  down (subtree and all) where the estimates overshoot an
     *  exactly timed parent. */
    std::uint64_t inclusiveNs = 0;
    /** inclusiveNs minus the children's inclusive ns (clamped >= 0). */
    std::uint64_t exclusiveNs = 0;
    /** Scope entries merged into this node (always exact). */
    std::uint64_t count = 0;
    /** Entries that actually paid the clock reads (== count for
     *  PROF_SCOPE / addTimed phases). */
    std::uint64_t timedCount = 0;
    /** True when inclusiveNs is a sampled estimate, not a full sum. */
    bool sampled = false;
    std::vector<PhaseNode> children;
};

/** A consistent copy of everything the profiler accumulated. */
struct Snapshot
{
    /** Wall ns since setEnabled(true); 0 when never enabled. */
    std::uint64_t wallNs = 0;
    /** Merged phase trees (roots sorted by name). */
    std::vector<PhaseNode> phases;
    /** Named counters, sorted by name. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    /** Always empty (see PoolTelemetry). */
    std::vector<PoolTelemetry> pools;
    /** Peak RSS (VmHWM) in kB at harvest; 0 when unavailable. */
    std::uint64_t peakRssKb = 0;
    /** Most recent VmRSS sample in kB; 0 when never sampled. */
    std::uint64_t lastRssKb = 0;
    /** /proc samples taken by rssEpochTick(). */
    std::uint64_t rssSamples = 0;
    /** (arena id, peak pool footprint bytes), sorted by arena. */
    std::vector<std::pair<std::uint32_t, std::uint64_t>> arenas;
};

/**
 * Merge every thread's tree and all telemetry into one snapshot.
 * Intended for after the measured work has quiesced (tests, the exit
 * writer); concurrent scope traffic cannot corrupt the harvest, it
 * can only be partially visible.
 */
Snapshot harvest();

/**
 * Write @p snap as schema-versioned JSON to @p out. The caller owns
 * the FILE*; write/flush errors are reported by writeJson returning
 * false (the exit-path writer cannot throw).
 */
bool writeJson(std::FILE *out, const Snapshot &snap);

/**
 * Reset all accumulated phase/counter/arena state (tests). Does
 * not touch the enabled flags or any open output file.
 */
void resetForTest();

} // namespace affalloc::prof

#endif // AFFALLOC_SIM_PROF_HH
