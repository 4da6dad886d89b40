#include "obs/chrome_trace.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/parse.hh"

namespace affalloc::obs
{

ChromeTracer::ChromeTracer(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "w");
    if (!file_)
        SIM_FATAL("obs", "cannot open trace output %s for writing",
                  path.c_str());
    std::fputs("{\"traceEvents\":[", file_);
    ensureLane(0, "epochs");
}

ChromeTracer::~ChromeTracer()
{
    // Destruction without close() still produces a loadable trace,
    // but swallows I/O errors; RunContext::finish closes explicitly.
    if (file_) {
        try {
            close();
        } catch (...) {
            std::fclose(file_);
            file_ = nullptr;
        }
    }
}

void
ChromeTracer::emit(const std::string &json)
{
    if (!file_)
        SIM_PANIC("obs", "trace event after close() on %s", path_.c_str());
    if (!first_)
        std::fputs(",\n", file_);
    first_ = false;
    std::fputs(json.c_str(), file_);
    events_ += 1;
}

void
ChromeTracer::ensureLane(std::uint32_t tid, const std::string &name)
{
    const auto it = lanes_.find(tid);
    if (it != lanes_.end())
        return;
    lanes_.emplace(tid, name);
    emit(detail::formatMessage(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
        "\"args\":{\"name\":\"%s\"}}",
        tid, sim::jsonEscape(name).c_str()));
}

void
ChromeTracer::epochSpan(const std::string &phase, Cycles start,
                        Cycles duration, std::uint64_t epoch_index)
{
    lastTs_ = std::max(lastTs_, start + duration);
    emit(detail::formatMessage(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
        "\"ts\":%llu,\"dur\":%llu,\"args\":{\"epoch\":%llu}}",
        phase.empty() ? "epoch" : sim::jsonEscape(phase).c_str(),
        (unsigned long long)start, (unsigned long long)duration,
        (unsigned long long)epoch_index));
}

void
ChromeTracer::streamBegin(std::uint32_t stream_id, const char *kind,
                          CoreId owner, BankId bank, Cycles ts)
{
    const std::uint32_t tid = streamLane + stream_id;
    ensureLane(tid, detail::formatMessage("stream %u", stream_id));
    lastTs_ = std::max(lastTs_, ts);
    emit(detail::formatMessage(
        "{\"name\":\"%s\",\"ph\":\"B\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%llu,\"args\":{\"core\":%u,\"bank\":%u}}",
        kind, tid, (unsigned long long)ts, owner, bank));
    openStreams_[tid] = true;
}

void
ChromeTracer::streamEnd(std::uint32_t stream_id, Cycles ts)
{
    const std::uint32_t tid = streamLane + stream_id;
    const auto it = openStreams_.find(tid);
    if (it == openStreams_.end() || !it->second)
        return; // never configured, or already ended
    it->second = false;
    lastTs_ = std::max(lastTs_, ts);
    emit(detail::formatMessage(
        "{\"ph\":\"E\",\"pid\":1,\"tid\":%u,\"ts\":%llu}", tid,
        (unsigned long long)ts));
}

void
ChromeTracer::streamInstant(std::uint32_t stream_id, const char *name,
                            Cycles ts, const std::string &args_json)
{
    const std::uint32_t tid = streamLane + stream_id;
    ensureLane(tid, detail::formatMessage("stream %u", stream_id));
    lastTs_ = std::max(lastTs_, ts);
    emit(detail::formatMessage(
        "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
        "\"tid\":%u,\"ts\":%llu,\"args\":{%s}}",
        name, tid, (unsigned long long)ts, args_json.c_str()));
}

void
ChromeTracer::machineInstant(const char *name, Cycles ts,
                             const std::string &args_json)
{
    ensureLane(machineLane, "machine");
    lastTs_ = std::max(lastTs_, ts);
    emit(detail::formatMessage(
        "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
        "\"tid\":%u,\"ts\":%llu,\"args\":{%s}}",
        name, machineLane, (unsigned long long)ts, args_json.c_str()));
}

void
ChromeTracer::tenantSpan(std::uint32_t tenant_id, const std::string &name,
                         Cycles start, Cycles end)
{
    const std::uint32_t tid = tenantLane + tenant_id;
    ensureLane(tid, "tenant " + name);
    lastTs_ = std::max(lastTs_, end);
    emit(detail::formatMessage(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%llu,\"dur\":%llu,\"args\":{\"tenant\":%u}}",
        sim::jsonEscape(name).c_str(), tid, (unsigned long long)start,
        (unsigned long long)(end - start), tenant_id));
}

void
ChromeTracer::close()
{
    if (!file_)
        return;
    // Streams a workload never tore down get their span closed at the
    // last timestamp so the JSON nests correctly.
    for (auto &kv : openStreams_) {
        if (kv.second) {
            kv.second = false;
            emit(detail::formatMessage(
                "{\"ph\":\"E\",\"pid\":1,\"tid\":%u,\"ts\":%llu}",
                kv.first, (unsigned long long)lastTs_));
        }
    }
    std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", file_);
    const bool bad = std::ferror(file_) != 0;
    const bool close_failed = std::fclose(file_) != 0;
    file_ = nullptr;
    if (bad || close_failed)
        SIM_FATAL("obs", "I/O error writing trace output %s "
                  "(trace is incomplete)", path_.c_str());
}

} // namespace affalloc::obs
