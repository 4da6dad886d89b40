#include "sim/prof.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

namespace affalloc::prof
{

namespace
{

std::uint64_t
steadyNs()
{
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
    // 0 is the "disabled" sentinel in a couple of fast paths; the
    // steady clock starting exactly at zero is not worth a branch
    // everywhere else.
    return static_cast<std::uint64_t>(ns) | 1u;
}

/** Read one "Vm...: N kB" field out of /proc/self/status. */
std::uint64_t
readProcStatusKb(const char *field)
{
#if defined(__linux__)
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    std::uint64_t kb = 0;
    const std::size_t flen = std::strlen(field);
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, field, flen) == 0 && line[flen] == ':') {
            kb = std::strtoull(line + flen + 1, nullptr, 10);
            break;
        }
    }
    std::fclose(f);
    return kb;
#else
    (void)field;
    return 0;
#endif
}

} // namespace

std::uint64_t
nowNs()
{
    return steadyNs();
}

std::uint64_t
peakRssKb()
{
    return readProcStatusKb("VmHWM");
}

#ifndef AFFALLOC_PROF_DISABLED

namespace detail
{

std::atomic<bool> enabled_{false};

/**
 * One phase node of one thread's tree. Accumulators are relaxed
 * atomics so a harvest racing a still-running scope reads torn-free
 * values; tree *shape* mutations happen only on the owning thread,
 * except for the child list, which harvest walks — hence the
 * per-thread node mutex around child insertion and child-list copies.
 */
struct Node
{
    const char *name = "";
    Node *parent = nullptr;
    std::vector<Node *> children;
    /** For sampled nodes: the sum over *timed* entries only. */
    std::atomic<std::uint64_t> inclusiveNs{0};
    std::atomic<std::uint64_t> count{0};
    /** Entries that paid the clock reads (== count for plain scopes). */
    std::atomic<std::uint64_t> timedCount{0};
};

struct ThreadState
{
    Node root;
    Node *current = &root;
    /** Owns every node of this thread's tree (root excepted). */
    std::deque<std::unique_ptr<Node>> nodes;
    /** Guards children vectors against harvest-time walks. */
    std::mutex shape;
    /** Rolling tick deciding which sampled-scope entries get timed. */
    std::uint64_t sampleTick = 0;
};

/** Sampled scopes time one entry in this many (plus first entries). */
constexpr std::uint64_t kSamplePeriod = 64;

namespace
{

std::mutex registryMu_;
std::vector<ThreadState *> threads_;

ThreadState &
threadState()
{
    // Leaked on purpose: worker threads outlive neither the process
    // nor the final harvest, and their trees must stay readable after
    // the thread exits (ad-hoc sweep threads die mid-run). Ownership
    // sits in the registry, which is never torn down.
    static thread_local ThreadState *state = [] {
        auto *s = new ThreadState();
        std::lock_guard<std::mutex> lk(registryMu_);
        threads_.push_back(s);
        return s;
    }();
    return *state;
}

} // namespace

Node *
scopeEnter(const char *name)
{
    ThreadState &ts = threadState();
    Node *cur = ts.current;
    // Sites pass string literals, so pointer equality catches the
    // steady state; strcmp handles the same phase named from two
    // translation units.
    for (Node *c : cur->children) {
        if (c->name == name || std::strcmp(c->name, name) == 0) {
            ts.current = c;
            return c;
        }
    }
    auto owned = std::make_unique<Node>();
    Node *child = owned.get();
    child->name = name;
    child->parent = cur;
    ts.nodes.push_back(std::move(owned));
    {
        std::lock_guard<std::mutex> lk(ts.shape);
        cur->children.push_back(child);
    }
    ts.current = child;
    return child;
}

void
scopeExit(Node *node, std::uint64_t ns)
{
    node->inclusiveNs.fetch_add(ns, std::memory_order_relaxed);
    node->count.fetch_add(1, std::memory_order_relaxed);
    node->timedCount.fetch_add(1, std::memory_order_relaxed);
    threadState().current = node->parent;
}

Node *
scopeEnterSampled(const char *name, bool &sample)
{
    ThreadState &ts = threadState();
    Node *node = scopeEnter(name);
    // Deterministic per-thread decimation; a node's first entry is
    // always timed so phases entered fewer than kSamplePeriod times
    // still get an estimate.
    sample = (ts.sampleTick++ % kSamplePeriod) == 0 ||
             node->timedCount.load(std::memory_order_relaxed) == 0;
    return node;
}

void
scopeExitSampled(Node *node, std::uint64_t ns, bool timed)
{
    if (timed) {
        node->inclusiveNs.fetch_add(ns, std::memory_order_relaxed);
        node->timedCount.fetch_add(1, std::memory_order_relaxed);
    }
    node->count.fetch_add(1, std::memory_order_relaxed);
    threadState().current = node->parent;
}

} // namespace detail

namespace
{

using detail::registryMu_;
using detail::threads_;

std::uint64_t enabledAtNs_ = 0;

// ------------------------------------------------------------- counters
std::mutex countersMu_;
std::map<std::string, std::uint64_t> counters_;

// ------------------------------------------------------------------ rss
std::atomic<std::uint64_t> rssLastSampleNs_{0};
std::atomic<std::uint64_t> rssLastKb_{0};
std::atomic<std::uint64_t> rssSamples_{0};
constexpr std::uint64_t rssSampleIntervalNs = 100'000'000; // 100 ms

// --------------------------------------------------------------- arenas
std::mutex arenasMu_;
std::map<std::uint32_t, std::uint64_t> arenas_;

// ------------------------------------------------------------- progress
std::atomic<bool> progressOn_{false};
std::uint64_t progressIntervalNs_ = 5'000'000'000;
std::atomic<std::uint64_t> progressLastEmitNs_{0};
std::atomic<std::uint64_t> progressStartNs_{0};
std::atomic<std::uint64_t> progressGoal_{0};
std::atomic<std::uint64_t> progressDone_{0};
std::atomic<std::uint64_t> progressAdmitted_{0};

void
mergeInto(std::vector<PhaseNode> &out, const detail::Node &node,
          detail::ThreadState &ts)
{
    const std::uint64_t inc =
        node.inclusiveNs.load(std::memory_order_relaxed);
    const std::uint64_t cnt = node.count.load(std::memory_order_relaxed);
    const std::uint64_t timed =
        node.timedCount.load(std::memory_order_relaxed);
    std::vector<detail::Node *> kids;
    {
        std::lock_guard<std::mutex> lk(ts.shape);
        kids = node.children;
    }
    PhaseNode *slot = nullptr;
    for (PhaseNode &p : out) {
        if (p.name == node.name) {
            slot = &p;
            break;
        }
    }
    if (!slot) {
        out.emplace_back();
        slot = &out.back();
        slot->name = node.name;
    }
    slot->inclusiveNs += inc;
    slot->count += cnt;
    slot->timedCount += timed;
    for (const detail::Node *c : kids)
        mergeInto(slot->children, *c, ts);
}

/** Scale a finalized subtree's times by @p num / @p den (<= 1);
 *  rounding down keeps every child inside its parent. */
void
scaleTree(PhaseNode &n, std::uint64_t num, std::uint64_t den)
{
    n.inclusiveNs = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(n.inclusiveNs) * num / den);
    std::uint64_t kids = 0;
    for (PhaseNode &c : n.children) {
        scaleTree(c, num, den);
        kids += c.inclusiveNs;
    }
    n.exclusiveNs = n.inclusiveNs - kids;
}

void
finalizeTree(std::vector<PhaseNode> &nodes)
{
    std::sort(nodes.begin(), nodes.end(),
              [](const PhaseNode &a, const PhaseNode &b) {
                  return a.name < b.name;
              });
    for (PhaseNode &n : nodes) {
        finalizeTree(n.children);
        // Sampled phases accumulated time for only timedCount of their
        // count entries: scale the sum up to the estimate.
        if (n.timedCount > 0 && n.timedCount < n.count) {
            n.sampled = true;
            n.inclusiveNs = n.inclusiveNs / n.timedCount * n.count +
                            n.inclusiveNs % n.timedCount * n.count /
                                n.timedCount;
        }
        std::uint64_t kids = 0;
        std::uint64_t estimated = 0;
        for (const PhaseNode &c : n.children) {
            kids += c.inclusiveNs;
            estimated += c.sampled ? c.inclusiveNs : 0;
        }
        // A sampled child's estimate can overshoot an exactly timed
        // parent: the parent's time is the measurement, so shrink the
        // estimates (whole subtrees) into the room the exactly timed
        // children leave. Only an estimate gives way to its children.
        const std::uint64_t exact = kids - estimated;
        if (kids > n.inclusiveNs && !n.sampled && exact <= n.inclusiveNs) {
            for (PhaseNode &c : n.children) {
                if (c.sampled)
                    scaleTree(c, n.inclusiveNs - exact, estimated);
            }
            kids = 0;
            for (const PhaseNode &c : n.children)
                kids += c.inclusiveNs;
        }
        n.inclusiveNs = std::max(n.inclusiveNs, kids);
        n.exclusiveNs = n.inclusiveNs - kids;
    }
    // resetForTest() zeroes nodes in place: one not entered since, with
    // nothing entered below it, is no phase of this profile.
    std::erase_if(nodes, [](const PhaseNode &n) {
        return n.count == 0 && n.children.empty();
    });
}

} // namespace

void
setEnabled(bool on)
{
    if (on && !detail::enabled_.load(std::memory_order_relaxed))
        enabledAtNs_ = steadyNs();
    detail::enabled_.store(on, std::memory_order_relaxed);
}

void
addTimed(const char *name, std::uint64_t ns)
{
    if (!enabled())
        return;
    detail::Node *node = detail::scopeEnter(name);
    detail::scopeExit(node, ns);
}

void *
scopeCursor()
{
    return enabled() ? detail::threadState().current : nullptr;
}

void
setScopeCursor(void *cursor)
{
    if (cursor)
        detail::threadState().current = static_cast<detail::Node *>(cursor);
}

void
counterAdd(const char *name, std::uint64_t v)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lk(countersMu_);
    counters_[name] += v;
}

void
counterMax(const char *name, std::uint64_t v)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lk(countersMu_);
    std::uint64_t &slot = counters_[name];
    slot = std::max(slot, v);
}

bool
rssEpochTick()
{
    if (!enabled())
        return false;
    const std::uint64_t now = steadyNs();
    std::uint64_t last = rssLastSampleNs_.load(std::memory_order_relaxed);
    if (now - last < rssSampleIntervalNs)
        return false;
    if (!rssLastSampleNs_.compare_exchange_strong(
            last, now, std::memory_order_relaxed))
        return false; // another thread is sampling this window
    const std::uint64_t kb = readProcStatusKb("VmRSS");
    if (kb) {
        rssLastKb_.store(kb, std::memory_order_relaxed);
        rssSamples_.fetch_add(1, std::memory_order_relaxed);
    }
    return kb != 0;
}

void
noteArenaFootprint(std::uint32_t arena, std::uint64_t bytes)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lk(arenasMu_);
    std::uint64_t &slot = arenas_[arena];
    slot = std::max(slot, bytes);
}

void
progressEnable(double interval_sec)
{
    progressIntervalNs_ =
        static_cast<std::uint64_t>(interval_sec * 1e9);
    progressStartNs_.store(steadyNs(), std::memory_order_relaxed);
    progressLastEmitNs_.store(steadyNs(), std::memory_order_relaxed);
    progressOn_.store(true, std::memory_order_relaxed);
}

bool
progressEnabled()
{
    return progressOn_.load(std::memory_order_relaxed);
}

void
progressSetGoal(std::uint64_t goal)
{
    progressGoal_.store(goal, std::memory_order_relaxed);
    progressDone_.store(0, std::memory_order_relaxed);
    progressAdmitted_.store(0, std::memory_order_relaxed);
}

void
progressNoteAdmitted(std::uint64_t n)
{
    if (progressEnabled())
        progressAdmitted_.fetch_add(n, std::memory_order_relaxed);
}

void
progressAdvance(std::uint64_t n)
{
    if (progressEnabled())
        progressDone_.fetch_add(n, std::memory_order_relaxed);
}

void
progressTick(std::uint64_t epoch, std::uint64_t cycles)
{
    if (!progressEnabled())
        return;
    const std::uint64_t now = steadyNs();
    std::uint64_t last = progressLastEmitNs_.load(std::memory_order_relaxed);
    if (now - last < progressIntervalNs_)
        return;
    if (!progressLastEmitNs_.compare_exchange_strong(
            last, now, std::memory_order_relaxed))
        return; // another thread owns this emission window
    const std::uint64_t goal = progressGoal_.load(std::memory_order_relaxed);
    const std::uint64_t done = progressDone_.load(std::memory_order_relaxed);
    const std::uint64_t adm =
        progressAdmitted_.load(std::memory_order_relaxed);
    const double elapsed =
        double(now - progressStartNs_.load(std::memory_order_relaxed)) /
        1e9;
    // stderr only: stdout stays byte-identical with the heartbeat on.
    if (goal > 0 && done > 0 && done < goal) {
        const double eta = elapsed * double(goal - done) / double(done);
        std::fprintf(stderr,
                     "[progress] epoch %" PRIu64 " cycle %" PRIu64
                     " admitted %" PRIu64 " done %" PRIu64 "/%" PRIu64
                     " elapsed %.0fs eta %.0fs\n",
                     epoch, cycles, adm, done, goal, elapsed, eta);
    } else {
        std::fprintf(stderr,
                     "[progress] epoch %" PRIu64 " cycle %" PRIu64
                     " admitted %" PRIu64 " done %" PRIu64 "/%" PRIu64
                     " elapsed %.0fs\n",
                     epoch, cycles, adm, done, goal, elapsed);
    }
}

Snapshot
harvest()
{
    Snapshot snap;
    if (enabledAtNs_)
        snap.wallNs = steadyNs() - enabledAtNs_;
    {
        std::lock_guard<std::mutex> lk(registryMu_);
        for (detail::ThreadState *ts : threads_) {
            std::vector<detail::Node *> roots;
            {
                std::lock_guard<std::mutex> sk(ts->shape);
                roots = ts->root.children;
            }
            for (const detail::Node *r : roots)
                mergeInto(snap.phases, *r, *ts);
        }
    }
    finalizeTree(snap.phases);
    {
        std::lock_guard<std::mutex> lk(countersMu_);
        snap.counters.assign(counters_.begin(), counters_.end());
    }
    snap.peakRssKb = readProcStatusKb("VmHWM");
    snap.lastRssKb = rssLastKb_.load(std::memory_order_relaxed);
    snap.rssSamples = rssSamples_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(arenasMu_);
        snap.arenas.assign(arenas_.begin(), arenas_.end());
    }
    return snap;
}

void
resetForTest()
{
    {
        std::lock_guard<std::mutex> lk(registryMu_);
        for (detail::ThreadState *ts : threads_) {
            std::vector<detail::Node *> stack;
            {
                std::lock_guard<std::mutex> sk(ts->shape);
                stack = ts->root.children;
            }
            while (!stack.empty()) {
                detail::Node *n = stack.back();
                stack.pop_back();
                n->inclusiveNs.store(0, std::memory_order_relaxed);
                n->count.store(0, std::memory_order_relaxed);
                n->timedCount.store(0, std::memory_order_relaxed);
                std::lock_guard<std::mutex> sk(ts->shape);
                for (detail::Node *c : n->children)
                    stack.push_back(c);
            }
        }
    }
    {
        std::lock_guard<std::mutex> lk(countersMu_);
        counters_.clear();
    }
    {
        std::lock_guard<std::mutex> lk(arenasMu_);
        arenas_.clear();
    }
    rssLastSampleNs_.store(0, std::memory_order_relaxed);
    rssLastKb_.store(0, std::memory_order_relaxed);
    rssSamples_.store(0, std::memory_order_relaxed);
    // A disabled profiler has no wall clock running; harvest() must
    // not report the time since some earlier test enabled it.
    enabledAtNs_ = enabled() ? steadyNs() : 0;
}

#else // AFFALLOC_PROF_DISABLED

void setEnabled(bool) {}
void addTimed(const char *, std::uint64_t) {}
void *scopeCursor() { return nullptr; }
void setScopeCursor(void *) {}
void counterAdd(const char *, std::uint64_t) {}
void counterMax(const char *, std::uint64_t) {}
bool rssEpochTick() { return false; }
void noteArenaFootprint(std::uint32_t, std::uint64_t) {}
void progressEnable(double) {}
bool progressEnabled() { return false; }
void progressSetGoal(std::uint64_t) {}
void progressNoteAdmitted(std::uint64_t) {}
void progressAdvance(std::uint64_t) {}
void progressTick(std::uint64_t, std::uint64_t) {}
Snapshot harvest() { return Snapshot{}; }
void resetForTest() {}

#endif // AFFALLOC_PROF_DISABLED

namespace
{

/** Minimal JSON string escaper (phase/counter names are tame, but a
 *  counter name with a quote must not corrupt the document). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

void
writePhase(std::FILE *out, const PhaseNode &n, int depth)
{
    const std::string pad(2 * (depth + 2), ' ');
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"inclusive_ns\":%" PRIu64
                 ",\"exclusive_ns\":%" PRIu64 ",\"count\":%" PRIu64
                 ",\"sampled\":%s,\"timed_entries\":%" PRIu64
                 ",\"children\":[",
                 pad.c_str(), jsonEscape(n.name).c_str(), n.inclusiveNs,
                 n.exclusiveNs, n.count, n.sampled ? "true" : "false",
                 n.timedCount);
    for (std::size_t i = 0; i < n.children.size(); ++i) {
        std::fprintf(out, "%s\n", i ? "," : "");
        writePhase(out, n.children[i], depth + 1);
    }
    if (!n.children.empty())
        std::fprintf(out, "\n%s", pad.c_str());
    std::fprintf(out, "]}");
}

} // namespace

bool
writeJson(std::FILE *out, const Snapshot &snap)
{
#ifndef AFFALLOC_GIT_REVISION
#define AFFALLOC_GIT_REVISION "unknown"
#endif
#ifndef AFFALLOC_BUILD_TYPE
#define AFFALLOC_BUILD_TYPE "unknown"
#endif
    std::fprintf(out,
                 "{\n"
                 "  \"schema\": \"%s\",\n"
                 "  \"git_revision\": \"%s\",\n"
                 "  \"build_type\": \"%s\",\n"
                 "  \"prof_compiled\": %s,\n"
                 "  \"wall_ns\": %" PRIu64 ",\n",
                 profSchemaVersion, AFFALLOC_GIT_REVISION,
                 AFFALLOC_BUILD_TYPE, compiledIn ? "true" : "false",
                 snap.wallNs);

    std::fprintf(out, "  \"phases\": [");
    for (std::size_t i = 0; i < snap.phases.size(); ++i) {
        std::fprintf(out, "%s\n", i ? "," : "");
        writePhase(out, snap.phases[i], 0);
    }
    std::fprintf(out, "%s],\n", snap.phases.empty() ? "" : "\n  ");

    std::fprintf(out, "  \"counters\": {");
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
        std::fprintf(out, "%s\n    \"%s\": %" PRIu64, i ? "," : "",
                     jsonEscape(snap.counters[i].first).c_str(),
                     snap.counters[i].second);
    }
    std::fprintf(out, "%s},\n", snap.counters.empty() ? "" : "\n  ");

    std::fprintf(out,
                 "  \"rss\": {\"peak_kb\": %" PRIu64
                 ", \"last_kb\": %" PRIu64 ", \"samples\": %" PRIu64
                 "},\n",
                 snap.peakRssKb, snap.lastRssKb, snap.rssSamples);

    std::fprintf(out, "  \"arenas\": [");
    for (std::size_t i = 0; i < snap.arenas.size(); ++i) {
        std::fprintf(out,
                     "%s{\"arena\": %u, \"peak_pool_bytes\": %" PRIu64 "}",
                     i ? ", " : "", snap.arenas[i].first,
                     snap.arenas[i].second);
    }
    std::fprintf(out, "]\n}\n");

    return std::fflush(out) == 0 && std::ferror(out) == 0;
}

} // namespace affalloc::prof
