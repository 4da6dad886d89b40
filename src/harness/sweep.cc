#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <system_error>
#include <thread>

#include "harness/report.hh"
#include "sim/log.hh"
#include "sim/parse.hh"
#include "sim/prof.hh"

namespace affalloc::harness
{

const char *
flagValue(int argc, char **argv, const char *flag, const char *env,
          const char **origin)
{
    const std::size_t len = std::strlen(flag);
    const char *unused = nullptr;
    const char *&from = origin ? *origin : unused;
    from = flag;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0) {
            if (i + 1 >= argc)
                SIM_FATAL("harness", "%s requires a value", flag);
            return argv[i + 1];
        }
        if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=')
            return argv[i] + len + 1;
    }
    from = env;
    const char *value = env ? std::getenv(env) : nullptr;
    return value && *value ? value : nullptr;
}

namespace
{

/** Thread counts above this are typos, not requests. */
constexpr std::uint64_t maxThreads = 1024;

} // namespace

unsigned
parseJobs(int argc, char **argv)
{
    const char *origin = nullptr;
    const char *text =
        flagValue(argc, argv, "--jobs", "AFFALLOC_JOBS", &origin);
    if (!text)
        return 1;
    // 0 means one worker per hardware thread.
    const std::uint64_t v =
        sim::parseCount("harness", origin, text, maxThreads);
    if (v > 0)
        return static_cast<unsigned>(v);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

namespace
{

/** The --prof-out destination, held open from parse time to exit. */
std::FILE *profOut_ = nullptr;
std::string profOutPath_;

void
writeProfAtExit()
{
    if (!profOut_)
        return;
    const prof::Snapshot snap = prof::harvest();
    const bool wrote = prof::writeJson(profOut_, snap);
    const bool closed = std::fclose(profOut_) == 0;
    profOut_ = nullptr;
    if (!wrote || !closed) {
        // atexit context: throwing SIM_FATAL here would terminate();
        // report and fail the process directly.
        std::fprintf(stderr,
                     "fatal: [harness] failed writing profile to '%s': "
                     "%s\n",
                     profOutPath_.c_str(), std::strerror(errno));
        std::_Exit(1);
    }
}

void
openProfOut(const char *path)
{
    if (!path || *path == '\0')
        SIM_FATAL("harness", "--prof-out: empty path");
    if (profOut_)
        SIM_FATAL("harness", "--prof-out given twice");
    profOut_ = std::fopen(path, "w");
    if (!profOut_) {
        SIM_FATAL("harness", "--prof-out: cannot open '%s': %s", path,
                  std::strerror(errno));
    }
    profOutPath_ = path;
    std::atexit(&writeProfAtExit);
    prof::setEnabled(true);
}

double
validateProgressInterval(const char *text, const char *origin)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        SIM_FATAL("harness", "%s: '%s' is not a number", origin, text);
    if (!(v > 0.0) || v > 86400.0) {
        SIM_FATAL("harness",
                  "%s: %g is not a usable heartbeat interval (need "
                  "0 < seconds <= 86400)",
                  origin, v);
    }
    return v;
}

} // namespace

bool
applyProfFlags(int argc, char **argv)
{
    const char *prof_path =
        flagValue(argc, argv, "--prof-out", "AFFALLOC_PROF_OUT");
    bool progress = false;
    double interval = 5.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--progress") == 0) {
            progress = true;
        } else if (std::strncmp(argv[i], "--progress=", 11) == 0) {
            progress = true;
            interval = validateProgressInterval(argv[i] + 11, "--progress");
        }
    }
    if (!progress) {
        if (const char *env = std::getenv("AFFALLOC_PROGRESS");
            env && *env && std::strcmp(env, "0") != 0) {
            progress = true;
            if (std::strcmp(env, "1") != 0)
                interval =
                    validateProgressInterval(env, "AFFALLOC_PROGRESS");
        }
    }
    if (prof_path) {
        openProfOut(prof_path);
        if (!prof::compiledIn) {
            std::fprintf(stderr,
                         "warning: [harness] this build has "
                         "AFFALLOC_PROF=OFF; '%s' will carry an empty "
                         "profile\n",
                         prof_path);
        }
    }
    if (progress)
        prof::progressEnable(interval);
    return prof_path != nullptr;
}

BenchFlags
parseBenchFlags(int argc, char **argv)
{
    return exitOnBadFlag([&] {
        BenchFlags f;
        f.quick = quickMode(argc, argv);
        f.jobs = parseJobs(argc, argv);
        applyProfFlags(argc, argv);
        return f;
    });
}

void
runSweepTasks(unsigned jobs, std::vector<std::function<void()>> tasks)
{
    const std::size_t n = tasks.size();
    if (n == 0)
        return;
    PROF_SCOPE("harness/sweep");
    prof::counterMax("sweep/max_batch_tasks", n);
    // One parallel sweep at a time: a sweep nested inside another
    // sweep's task (or started beside it) runs its tasks inline, like
    // the jobs <= 1 loop, so the thread count never exceeds --jobs.
    static std::atomic<bool> busy{false};
    bool expected = false;
    if (jobs <= 1 || n == 1 ||
        !busy.compare_exchange_strong(expected, true)) {
        for (auto &task : tasks)
            task();
        return;
    }

    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(n);
    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                tasks[i]();
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    // min(jobs, n) workers: the calling thread plus plain threads
    // started for this sweep and joined before it returns.
    const std::size_t extra = std::min<std::size_t>(jobs, n) - 1;
    std::vector<std::thread> threads;
    threads.reserve(extra);
    try {
        for (std::size_t t = 0; t < extra; ++t)
            threads.emplace_back(worker);
    } catch (const std::system_error &) {
        // Out of threads: those started and this one drain the tasks.
    }
    worker();
    for (std::thread &t : threads)
        t.join();
    busy.store(false);

    // Deterministic error reporting: the lowest-indexed failure wins,
    // exactly as it would have surfaced from the serial loop.
    for (std::size_t i = 0; i < n; ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
    }
}

} // namespace affalloc::harness
