/**
 * @file
 * Parallel sweep runner. Figure benches sweep many independent
 * (workload, configuration) points; every point builds its own
 * os::SimOS + nsc::Machine + workload state inside its run function,
 * so points share no mutable state and can execute on a small thread
 * pool. Results are always delivered in sweep order — callers print
 * from the collected vector, so bench output (and the determinism
 * digests folded from it) is byte-identical at any job count.
 */

#ifndef AFFALLOC_HARNESS_SWEEP_HH
#define AFFALLOC_HARNESS_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/log.hh"

namespace affalloc::harness
{

/**
 * The value of the first `FLAG V` or `FLAG=V` in argv, else the
 * environment variable @p env when given and non-empty, else null.
 * @p origin (optional) is set to whichever of the two supplied it.
 */
const char *flagValue(int argc, char **argv, const char *flag,
                      const char *env = nullptr,
                      const char **origin = nullptr);

/**
 * Parse the shared --jobs flag: `--jobs N`, `--jobs=N`, or the
 * AFFALLOC_JOBS environment variable (flag wins). Returns at least 1;
 * `--jobs 0` means "one per hardware thread". Fatal on non-numeric
 * values, negative counts and counts above 1024.
 */
unsigned parseJobs(int argc, char **argv);

/**
 * Parse and apply the shared host-telemetry flags:
 *
 *   --prof-out FILE / --prof-out=FILE (or AFFALLOC_PROF_OUT): enable
 *   the self-profiler and write its JSON export to FILE at process
 *   exit. FILE is opened immediately — an empty or unwritable path is
 *   fatal at parse time, not at harvest time after a long run.
 *
 *   --progress[=SECONDS] (or AFFALLOC_PROGRESS): emit a `[progress]`
 *   heartbeat line to stderr roughly every SECONDS (default 5).
 *   SECONDS must be a positive number; the separate-argument form is
 *   deliberately not accepted (a bare `--progress` is valid, so a
 *   following value would be ambiguous).
 *
 * Returns true when --prof-out was given. Unknown flags are left for
 * the caller; benches ignore them, affalloc_cli rejects them.
 */
bool applyProfFlags(int argc, char **argv);

/** The flags every bench main reads before its sweep. */
struct BenchFlags
{
    /** --quick: smaller inputs for smoke runs. */
    bool quick = false;
    /** Sweep workers (parseJobs). */
    unsigned jobs = 1;
};

/**
 * Run @p parse, one of a bench main's flag parsers. A FatalError from
 * a bad value prints its `fatal: ...` message on stderr and exits 2,
 * as affalloc_cli does, instead of escaping main through
 * std::terminate.
 */
template <class Parse>
auto
exitOnBadFlag(Parse &&parse) -> decltype(parse())
{
    try {
        return parse();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
    }
}

/**
 * The prelude of every bench main: --quick, then parseJobs and
 * applyProfFlags, under exitOnBadFlag.
 */
BenchFlags parseBenchFlags(int argc, char **argv);

/**
 * Execute every task, spreading them over @p jobs worker threads
 * (inline on the calling thread when jobs <= 1, when there is only one
 * task, or when a sweep nested in another sweep's task finds the
 * shared pool busy). Tasks are claimed in index order. If any task throws, the
 * exception of the lowest-indexed failing task is rethrown on the
 * caller after all workers have drained.
 */
void runSweepTasks(unsigned jobs, std::vector<std::function<void()>> tasks);

/**
 * Run every sweep point and return their results in sweep order
 * (points[i] -> results[i], regardless of completion order).
 */
template <typename Result>
std::vector<Result>
runSweep(unsigned jobs, const std::vector<std::function<Result()>> &points)
{
    std::vector<Result> results(points.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        tasks.push_back([&results, &points, i] {
            results[i] = points[i]();
        });
    }
    runSweepTasks(jobs, std::move(tasks));
    return results;
}

} // namespace affalloc::harness

#endif // AFFALLOC_HARNESS_SWEEP_HH
