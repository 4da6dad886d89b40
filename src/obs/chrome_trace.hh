/**
 * @file
 * Stream-lifecycle tracer emitting Chrome trace_event JSON (the
 * object format: {"traceEvents":[...]}), loadable in Perfetto or
 * chrome://tracing. Timestamps are simulated cycles reported in the
 * "ts" microsecond field, so one trace microsecond equals one core
 * cycle.
 *
 * Lanes (tid) are allocated deterministically and named through
 * metadata events the first time they are used:
 *   tid 0              epoch phase spans ("X" complete events)
 *   tid 1              machine-level instants (offload NACKs, faults)
 *   tid 1000 + id      one lane per configured stream; the stream's
 *                      config -> migrations -> completion live here
 *
 * Events are streamed to the file as they happen, so trace memory is
 * O(open spans), not O(events). All output is derived from simulated
 * state only — two deterministic runs produce byte-identical traces
 * regardless of wall clock or thread count (the obs tests diff the
 * bytes). Any I/O error is a SIM_FATAL naming the path; a trace is
 * never silently truncated.
 */

#ifndef AFFALLOC_OBS_CHROME_TRACE_HH
#define AFFALLOC_OBS_CHROME_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "sim/types.hh"

namespace affalloc::obs
{

/** Chrome trace_event JSON writer. */
class ChromeTracer
{
  public:
    /** Lane of machine-scoped instant events. */
    static constexpr std::uint32_t machineLane = 1;
    /** First per-tenant lane; tenant @p id traces on tenantLane + id. */
    static constexpr std::uint32_t tenantLane = 500;
    /** First per-stream lane; stream @p id traces on streamLane + id. */
    static constexpr std::uint32_t streamLane = 1000;

    /** Open @p path for writing; SIM_FATAL if it cannot be created. */
    explicit ChromeTracer(const std::string &path);
    ~ChromeTracer();

    ChromeTracer(const ChromeTracer &) = delete;
    ChromeTracer &operator=(const ChromeTracer &) = delete;

    // ------------------------------------------------------ event kinds
    /**
     * One completed epoch as a complete ("X") span on the epoch lane.
     * @p phase labels the span ("push"/"pull"/...); empty means
     * "epoch".
     */
    void epochSpan(const std::string &phase, Cycles start, Cycles duration,
                   std::uint64_t epoch_index);

    /** Begin a stream's lifetime span on its own lane. */
    void streamBegin(std::uint32_t stream_id, const char *kind,
                     CoreId owner, BankId bank, Cycles ts);

    /** End a stream's lifetime span (reconfigure or fallback). */
    void streamEnd(std::uint32_t stream_id, Cycles ts);

    /**
     * Instant on a stream's lane (migration, NACK, fallback).
     * @p args_json is the comma-joined member list of the "args"
     * object, *without* surrounding braces (e.g. "\"from\":2,\"to\":5").
     */
    void streamInstant(std::uint32_t stream_id, const char *name,
                       Cycles ts, const std::string &args_json);

    /** Instant on the machine lane; @p args_json as in streamInstant. */
    void machineInstant(const char *name, Cycles ts,
                        const std::string &args_json);

    /**
     * One scheduler quantum of a co-run tenant as a complete ("X")
     * span on the tenant's own lane (tenantLane + id), so each
     * tenant's machine occupancy reads as a Gantt track.
     */
    void tenantSpan(std::uint32_t tenant_id, const std::string &name,
                    Cycles start, Cycles end);

    /**
     * Flush and close the file, auto-closing any stream span still
     * open at the last observed timestamp so the JSON stays loadable
     * even when a workload never tears its streams down. Idempotent;
     * SIM_FATAL on write failure.
     */
    void close();

    /** Events written so far (tests). */
    std::uint64_t numEvents() const { return events_; }

  private:
    /** Emit a thread_name metadata event once per lane. */
    void ensureLane(std::uint32_t tid, const std::string &name);
    /** Write one already-rendered JSON event object. */
    void emit(const std::string &json);

    std::FILE *file_ = nullptr;
    std::string path_;
    bool first_ = true;
    std::uint64_t events_ = 0;
    Cycles lastTs_ = 0;
    /** Lanes already named via metadata events. */
    std::map<std::uint32_t, std::string> lanes_;
    /** Stream lanes with an open "B" span (closed on close()). */
    std::map<std::uint32_t, bool> openStreams_;
};

} // namespace affalloc::obs

#endif // AFFALLOC_OBS_CHROME_TRACE_HH
