/**
 * @file
 * Chaos engine: seeded fault-space fuzzing over the open-system
 * serving stack, with deterministic repro shrinking.
 *
 * The fuzzer generates randomized-but-deterministic campaigns — a
 * serving configuration (workload mix, arrival schedule, tenant
 * slots) plus a sim::TimedFault schedule with bank-kill clusters
 * (including spare-of-spare shapes), spatially-correlated link
 * degradations, and NACK storms — and runs each under full SimCheck
 * with the livelock watchdog as the oracle. Any oracle violation is
 * automatically shrunk: delta-debugging over the fault events first,
 * then over the workload size and horizon, down to a minimal
 * reproducer emitted as a self-contained JSON bundle replayable via
 * `affalloc_cli chaos --replay`.
 *
 * Everything is deterministic from FuzzOptions::seed: campaign i is
 * drawn from Rng substream (seed, i), oracle runs go through
 * harness::runSweep (results in sweep order at any job count), and
 * shrinking never consults wall-clock or host state — so the same
 * seed produces byte-identical campaign sets, verdicts, and shrunk
 * reproducers regardless of --jobs.
 */

#ifndef AFFALLOC_CHAOS_CHAOS_HH
#define AFFALLOC_CHAOS_CHAOS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/serve.hh"

namespace affalloc::chaos
{

/**
 * The oracle's judgement of one serving run. `signature` is the
 * normalized failure fingerprint (first line, volatile numbers
 * collapsed — see normalizeSignature); `klass` is the coarser
 * failure class used as the shrink predicate, stable across timing
 * perturbations that renumber banks/cycles inside the message.
 */
struct Verdict
{
    bool failed = false;
    /** "audit" | "livelock" | "panic" | "fatal" | "invalid" | "". */
    std::string errorType;
    /** Normalized fingerprint; recorded in bundles, exact on replay. */
    std::string signature;
    /** Coarse failure class (errorType + check identity). */
    std::string klass;
};

/** One generated (or shrunk, or replayed) campaign. */
struct Campaign
{
    /** Position in the fuzzer's campaign matrix. */
    std::uint32_t index = 0;
    /** The full serving configuration, fault schedule included. */
    serve::ServeOptions opts;
};

/** Fuzzing run configuration. */
struct FuzzOptions
{
    /** Root seed; campaign i draws from substream (seed, i). */
    std::uint64_t seed = 1;
    /** Campaigns in the matrix. */
    std::uint32_t campaigns = 8;
    /** Worker threads for the oracle/shrink sweeps (>= 1). */
    unsigned jobs = 1;
    /** CI-scale workload inputs (strongly recommended). */
    bool quick = true;
    /** Livelock watchdog threshold; 0 keeps the env/config default. */
    std::uint32_t watchdogStallEpochs = 0;
    /** Directory for repro bundles of failures; empty = don't write. */
    std::string bundleDir;
};

/** Outcome of one campaign, shrink artifacts included on failure. */
struct CampaignResult
{
    std::uint32_t index = 0;
    /** formatFaultSchedule of the original campaign. */
    std::string schedule;
    Verdict verdict;

    // Populated only when verdict.failed:
    Campaign shrunk;
    Verdict shrunkVerdict;
    /** Oracle invocations the shrinker spent. */
    std::uint32_t shrinkOracleRuns = 0;
    /** Bundle file written for this failure (empty if none). */
    std::string bundlePath;
};

/** Aggregate outcome of a fuzzing run. */
struct FuzzReport
{
    std::uint32_t campaigns = 0;
    std::uint32_t failures = 0;
    /** Per-campaign results in matrix (index) order. */
    std::vector<CampaignResult> results;
    /** Fingerprint of the whole run (campaigns + verdicts + shrinks). */
    std::uint64_t digest = 0;
};

/** Deterministically generate campaign @p index of the matrix. */
Campaign generateCampaign(const FuzzOptions &f, std::uint32_t index);

/**
 * Run one campaign under the SimCheck/watchdog oracle. Catches
 * AuditError, LivelockError, PanicError and FatalError into a failed
 * Verdict; a run whose completed requests fail workload validation is
 * also a failure ("invalid"). Never throws on oracle violations.
 */
Verdict runOracle(const serve::ServeOptions &opts);

/**
 * Minimize a failing campaign: ddmin over the fault events (removing
 * complements at doubling granularity, then single events), then
 * binary shrink of numRequests and maxCycles. The predicate is
 * "still fails with the same Verdict::klass". Returns the minimized
 * campaign; @p oracle_runs (optional) counts predicate evaluations.
 */
Campaign shrinkCampaign(const Campaign &failing, const Verdict &verdict,
                        std::uint32_t *oracle_runs = nullptr);

/** Campaigns 0 .. f.campaigns-1 of the matrix (generateCampaign). */
std::vector<Campaign> generateMatrix(const FuzzOptions &f);

/**
 * Judge every campaign of @p camps (usually generateMatrix(f)), shrink
 * the failures and bundle them into f.bundleDir. An empty list is a
 * FatalError.
 */
FuzzReport runFuzz(const FuzzOptions &f, const std::vector<Campaign> &camps);

/**
 * Normalize a failure message into a stable fingerprint: first line
 * only, the line number of a `file.cc:LINE` / `file.hh:LINE` source
 * location and every numeric token of >= 5 hex/decimal digits
 * (addresses, cycle counts, host pointers) collapsed to '#', truncated
 * to 240 chars. Short numbers (bank ids, pool indices) are preserved.
 */
std::string normalizeSignature(const std::string &raw);

// ------------------------------------------------------ repro bundles

/**
 * Serialize a failing (usually shrunk) campaign and its verdict as a
 * self-contained flat-JSON repro bundle.
 */
std::string formatBundle(const Campaign &c, const Verdict &v);

/**
 * Parse a bundle produced by formatBundle. Throws FatalError with a
 * parse diagnostic on malformed input. @p expected (optional)
 * receives the recorded verdict.
 */
Campaign parseBundle(const std::string &json, Verdict *expected = nullptr);

/** Write a bundle file; throws FatalError on I/O failure. */
void writeBundleFile(const std::string &path, const Campaign &c,
                     const Verdict &v);

/** Outcome of replaying a bundle against the current build. */
struct ReplayResult
{
    Campaign campaign;
    /** Verdict recorded in the bundle. */
    Verdict expected;
    /** Verdict from re-running the campaign now. */
    Verdict got;
    /** got.failed and signatures match. */
    bool reproduced = false;
};

/** Load a bundle file and re-run it under the oracle. */
ReplayResult replayBundleFile(const std::string &path);

} // namespace affalloc::chaos

#endif // AFFALLOC_CHAOS_CHAOS_HH
